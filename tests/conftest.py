import copy
import pickle
from pathlib import Path

import pytest
from hypothesis import strategies as st

from adb import EPS, TICK, Out, parse_adb, parse_nfa, validate_adb, validate_nfa

EXAMPLES = Path(__file__).parents[1] / "examples"
SYMBOLS = ("a", "b")


@pytest.fixture(autouse=True)
def unset_max_states(monkeypatch):
    """Every test starts under the default state cap, whatever the shell
    exports; a test that wants another cap sets ``ADB_MAX_STATES`` itself."""
    monkeypatch.delenv("ADB_MAX_STATES", raising=False)


@st.composite
def adbs(draw):
    """Small random automata over ``SYMBOLS`` with ticks, eps and delays."""
    locations = ["l%d" % i for i in range(draw(st.integers(1, 4)))]
    loc = st.sampled_from(locations)
    label = st.one_of(
        st.builds(Out, st.sampled_from(SYMBOLS), st.integers(0, 3)),
        st.just(EPS),
        st.just(TICK),
    )
    transitions = draw(st.lists(st.tuples(loc, label, loc), max_size=6))
    accepting = draw(st.sets(loc))
    return validate_adb(locations, SYMBOLS, "l0", accepting, transitions)


@st.composite
def nfas(draw):
    """Small random NFAs over ``SYMBOLS`` with eps transitions."""
    states = ["q%d" % i for i in range(draw(st.integers(1, 4)))]
    state = st.sampled_from(states)
    letter = st.sampled_from(SYMBOLS + (None,))
    transitions = draw(st.lists(st.tuples(state, letter, state), max_size=8))
    accepting = draw(st.sets(state))
    return validate_nfa(states, SYMBOLS, "q0", accepting, transitions)


def eps_cycle_nfa():
    """Words over a b that end in ``a`` and have no ``a a``, through an eps
    cycle s0 -> s1 -> s2 -> s0 and an eps self-loop on s3."""
    return parse_nfa("""
alphabet a b
states s0 s1 s2 s3
start s0
accept s3
trans s0 s1 eps
trans s1 s2 eps
trans s2 s0 eps
trans s3 s3 eps
trans s1 s3 on a
trans s2 s2 on b
trans s3 s0 on b
""")


def round_trips(value):
    """Copies of ``value`` by ``copy.copy``, ``copy.deepcopy`` and a pickle
    round trip at every protocol."""
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


def load_adb(name):
    return parse_adb((EXAMPLES / name).read_text())


def load_nfa(name):
    return parse_nfa((EXAMPLES / name).read_text())


@pytest.fixture(scope="session")
def a0():
    return load_adb("a0.adb")


@pytest.fixture(scope="session")
def a1():
    return load_adb("a1.adb")


@pytest.fixture(scope="session")
def a2():
    return load_adb("a2.adb")


@pytest.fixture(scope="session")
def a3():
    return load_adb("a3.adb")


@pytest.fixture(scope="session")
def corpus_adbs(a0, a1, a2, a3):
    return {"a0": a0, "a1": a1, "a2": a2, "a3": a3}


@pytest.fixture(scope="session")
def sigma_star():
    return load_nfa("sigma-star.nfa")


@pytest.fixture(scope="session")
def abc_blocks():
    return load_nfa("astar-bstar-cstar.nfa")


@pytest.fixture(scope="session")
def bac_blocks():
    return load_nfa("bstar-astar-cstar.nfa")


@pytest.fixture(scope="session")
def aabbcc():
    return load_nfa("aabbcc.nfa")


@pytest.fixture(scope="session")
def astar_b():
    return load_nfa("astar-b.nfa")


@pytest.fixture(scope="session")
def corpus_nfas(sigma_star, abc_blocks, bac_blocks, aabbcc, astar_b):
    return {
        "sigma-star": sigma_star,
        "astar-bstar-cstar": abc_blocks,
        "bstar-astar-cstar": bac_blocks,
        "aabbcc": aabbcc,
        "astar-b": astar_b,
    }
