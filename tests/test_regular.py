import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adb import (
    Nfa,
    UnknownSymbol,
    eps_closure,
    nfa_member,
    parse_nfa,
    single_word_nfa,
    validate_nfa,
)
from adb.regular import SpecTable
from conftest import EXAMPLES, SYMBOLS, eps_cycle_nfa, nfas


def ab_star_b():
    # (a|b)* b
    return validate_nfa(
        ["s0", "s1"],
        ["a", "b"],
        "s0",
        ["s1"],
        [("s0", "a", "s0"), ("s0", "b", "s0"), ("s0", "b", "s1")],
    )


def with_eps():
    # a* b* via an epsilon bridge
    return validate_nfa(
        ["p", "q"],
        ["a", "b"],
        "p",
        ["q"],
        [("p", "a", "p"), ("p", None, "q"), ("q", "b", "q")],
    )


def test_validate_nfa_errors():
    from adb import DuplicateLocation, UnknownLocation

    with pytest.raises(UnknownLocation):
        validate_nfa(["s"], ["a"], "x", [], [])
    with pytest.raises(UnknownLocation):
        validate_nfa(["s"], ["a"], "s", ["x"], [])
    with pytest.raises(UnknownLocation):
        validate_nfa(["s"], ["a"], "s", [], [("x", "a", "s")])
    with pytest.raises(UnknownLocation):
        validate_nfa(["s"], ["a"], "s", [], [("s", "a", "x")])
    with pytest.raises(UnknownSymbol):
        validate_nfa(["s"], ["a"], "s", [], [("s", "z", "s")])
    with pytest.raises(DuplicateLocation) as info:
        validate_nfa(["s", 0, "t", 0, "s"], ["a"], "s", [], [])
    assert info.value.name == 0  # the first repeat in the order given


TOKENS = st.text("ab$'", min_size=1, max_size=2)


@settings(max_examples=300, deadline=None)
@given(st.lists(TOKENS, max_size=6), TOKENS, st.lists(TOKENS, max_size=4))
def test_validators_report_the_same_structural_error(names, start, accepting):
    from adb import AdbError, validate_adb

    outcomes = []
    for validate in (validate_adb, validate_nfa):
        try:
            auto = validate(names, [], start, accepting, [])
        except AdbError as exc:
            outcomes.append((type(exc), exc.name))
        else:  # the location or state set comes first in both tuples
            outcomes.append((auto[0], auto.accepting))
    assert outcomes[0] == outcomes[1]


def test_eps_closure():
    nfa = with_eps()
    assert eps_closure(nfa, {"p"}) == frozenset({"p", "q"})
    assert eps_closure(nfa, {"q"}) == frozenset({"q"})


def test_nfa_member(astar_b):
    nfa = ab_star_b()
    assert nfa_member(nfa, "ab")
    assert nfa_member(nfa, "b")
    assert not nfa_member(nfa, "ba")
    assert not nfa_member(nfa, "")
    with pytest.raises(UnknownSymbol):
        nfa_member(nfa, "az")
    # no state is left after the second b; the foreign letter still counts
    with pytest.raises(UnknownSymbol, match="'zz'"):
        nfa_member(astar_b, ("b", "b", "zz"))


def test_eliminate_eps_preserves_language():
    nfa = with_eps()
    free = eliminate_eps(nfa)
    assert not any(letter is None for _, letter, _ in free.transitions)
    for word in ["", "a", "b", "ab", "ba", "aabb", "aba"]:
        assert nfa_member(free, word) == nfa_member(nfa, word)


def test_single_word_nfa():
    nfa = single_word_nfa(("a", "b"), ["a", "b", "c"])
    assert nfa_member(nfa, ("a", "b"))
    assert not nfa_member(nfa, ("a",))
    assert not nfa_member(nfa, ("a", "b", "a"))
    empty = single_word_nfa((), ["a"])
    assert nfa_member(empty, ())
    assert not nfa_member(empty, ("a",))
    with pytest.raises(UnknownSymbol):
        single_word_nfa(("z",), ["a"])


def eliminate_eps(nfa):
    """The eps fold of ``SpecTable`` as an NFA over the same states: each
    state steps to ``after((q,), letter)`` and accepts when the table says."""
    table = SpecTable(nfa)
    names = table.names
    transitions = frozenset(
        (names[q], letter, names[r])
        for letter in nfa.alphabet
        for q in range(len(names))
        for r in table.after((q,), letter)
    )
    return Nfa(nfa.states, nfa.alphabet, nfa.start,
               frozenset(names[q] for q in table.accepting), transitions)


def eliminate_eps_by_closure(nfa):
    """The reference elimination: one ``eps_closure`` per state."""
    letter_edges = {}
    for src, letter, dst in nfa.transitions:
        if letter is not None:
            letter_edges.setdefault(src, []).append((letter, dst))
    transitions = set()
    accepting = set()
    for s in nfa.states:
        closure = eps_closure(nfa, {s})
        if closure & nfa.accepting:
            accepting.add(s)
        for q in closure:
            for letter, dst in letter_edges.get(q, ()):
                transitions.add((s, letter, dst))
    return Nfa(nfa.states, nfa.alphabet, nfa.start, frozenset(accepting),
               frozenset(transitions))


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.nfa")), ids=lambda p: p.name)
def test_eliminate_eps_matches_closure_reference_on_examples(path):
    nfa = parse_nfa(path.read_text())
    assert eliminate_eps(nfa) == eliminate_eps_by_closure(nfa)


@settings(max_examples=300, deadline=None)
@given(nfas())
def test_eliminate_eps_matches_closure_reference(nfa):
    assert eliminate_eps(nfa) == eliminate_eps_by_closure(nfa)


def test_eliminate_eps_cycle_and_self_loop():
    nfa = eps_cycle_nfa()
    free = eliminate_eps(nfa)
    assert free == eliminate_eps_by_closure(nfa)
    # s0, s1 and s2 share one closure; s3 only reaches itself
    assert free.accepting == {"s3"}
    assert {(s, dst) for s, letter, dst in free.transitions if letter == "a"} == {
        ("s0", "s3"), ("s1", "s3"), ("s2", "s3")}


@settings(max_examples=300, deadline=None)
@given(nfas(), st.lists(st.sampled_from(SYMBOLS), max_size=6))
def test_nfa_member_matches_spec_table_run(nfa, word):
    # nfa_member closes under eps itself; SpecTable folds eps into its steps
    table = SpecTable(nfa)
    current = {table.start}
    for letter in word:
        current = table.after(current, letter)
    assert nfa_member(nfa, word) == bool(current & table.accepting)
