"""Labels, automata, NFAs, runs and verdicts survive ``copy.copy``,
``copy.deepcopy`` and pickle: each copy compares equal, ``EPS`` and
``TICK`` come back as themselves, and a copied automaton decides as the
original does."""

from itertools import product

import pytest

from adb import (
    EPS,
    TICK,
    Out,
    intersect_regular_empty,
    is_empty,
    kappa,
    language_sample,
    member_timed,
    member_untimed,
    model_check,
    print_adb,
    print_nfa,
    pump_decompose,
    untimed_sample,
)
from conftest import EXAMPLES, load_adb, load_nfa, round_trips

ADBS = sorted(path.name for path in EXAMPLES.glob("*.adb"))
NFAS = sorted(path.name for path in EXAMPLES.glob("*.nfa"))


def assert_equal_copies(value):
    for twin in round_trips(value):
        assert type(twin) is type(value)
        assert twin == value


def test_markers_keep_their_identity():
    for marker in (EPS, TICK):
        for twin in round_trips(marker):
            assert twin is marker
    for twin in round_trips((EPS, Out("a", 2), TICK)):
        assert twin[0] is EPS and twin[2] is TICK
        assert type(twin[1]) is Out and twin[1] == Out("a", 2)


def decide(auto, specs):
    """Every verdict the package gives on ``auto``: emptiness, timed and
    untimed membership of sampled and short words, and model checking
    against each spec that reads its alphabet; then its text form."""
    short = [u for n in range(3) for u in product(sorted(auto.alphabet), repeat=n)]
    timed = sorted(language_sample(auto, 5) | {kappa(u, 0) for u in short})
    untimed = sorted(untimed_sample(auto, 6) | set(short))
    return (
        is_empty(auto),
        [member_timed(auto, w) for w in timed],
        [member_untimed(auto, u) for u in untimed],
        [model_check(auto, spec) for spec in specs if auto.alphabet <= spec.alphabet],
        print_adb(auto),
    )


@pytest.mark.parametrize("name", ADBS)
def test_automata_round_trip_and_decide_alike(name):
    auto = load_adb(name)
    specs = [load_nfa(spec) for spec in NFAS]
    fresh = list(round_trips(auto))  # before any query fills the cached indexes
    verdicts = decide(auto, specs)
    filled = list(round_trips(auto))
    for twin in fresh + filled:
        assert type(twin) is type(auto)
        assert twin == auto
        assert print_adb(twin) == print_adb(auto)
    # one copy per path (copy, deepcopy, pickle at the highest protocol), each
    # taken before and after the caches fill, decides as the original does
    for twin in fresh[:2] + fresh[-1:] + filled[:2] + filled[-1:]:
        assert decide(twin, specs) == verdicts


@pytest.mark.parametrize("name", NFAS)
def test_nfas_round_trip(name, a1):
    spec = load_nfa(name)
    assert_equal_copies(spec)
    for twin in round_trips(spec):
        assert print_nfa(twin) == print_nfa(spec)
        if a1.alphabet <= spec.alphabet:
            assert model_check(a1, twin) == model_check(a1, spec)


def test_runs_verdicts_and_witnesses_round_trip(a2, abc_blocks, aabbcc):
    verdict = model_check(a2, abc_blocks)
    run = verdict.witness_run  # a b c, two ticks through l3, a b c
    decomposition = pump_decompose(a2, run, (3, 8))
    assert decomposition.pump == ((TICK, "l3"), (TICK, "l0"))
    witness = intersect_regular_empty(a2, aabbcc)
    for value in (run, verdict, witness, decomposition):
        assert_equal_copies(value)
