import itertools

import pytest
from hypothesis import example, given, settings

from adb import (
    EPS,
    TICK,
    BoundExceeded,
    IncompatibleAlphabet,
    Out,
    concat,
    enumerate_accepting_runs,
    intersect_regular,
    language_sample,
    lift_regular,
    nfa_member,
    parse_adb,
    print_adb,
    run_output,
    star,
    union,
    untime,
    untimed_sample,
    validate_adb,
    validate_nfa,
)
from conftest import SYMBOLS, adbs, nfas


def shortest_runs(auto, budget):
    """Each untimed output of an accepting run within the budget, with the
    fewest transitions a run needs for it."""
    best = {}
    for r in enumerate_accepting_runs(auto, budget):
        u = untime(run_output(auto, r))
        best[u] = min(best.get(u, budget), len(r))
    return best


def untimed_pairs(auto1, auto2, budget, overhead):
    """Expected untimed concatenations from run pairs whose combined cost
    (transitions plus bridge overhead) fits the budget."""
    runs1 = shortest_runs(auto1, budget)
    runs2 = shortest_runs(auto2, budget)
    return {
        u1 + u2
        for u1, n1 in runs1.items()
        for u2, n2 in runs2.items()
        if n1 + n2 + overhead <= budget
    }


def untimed_star_words(auto, budget, per_iteration):
    """Expected untimed star sample: concatenations of accepting-run outputs
    whose per-iteration costs sum within the budget."""
    runs = [(n + per_iteration, u) for u, n in shortest_runs(auto, budget).items()]
    best = {(): 0}
    frontier = [((), 0)]
    while frontier:
        word, cost = frontier.pop()
        for extra, u in runs:
            total = cost + extra
            if total <= budget:
                combined = word + u
                if best.get(combined, budget + 1) > total:
                    best[combined] = total
                    frontier.append((combined, total))
    return set(best)


def test_union_sample_equality(a1, a3):
    u = union(a1, a3)
    assert u.alphabet == a1.alphabet | a3.alphabet
    for bound in (0, 3, 6, 9):
        expected = language_sample(a1, bound) | language_sample(a3, bound)
        assert language_sample(u, bound + 1) == expected


def test_union_is_validated_and_disjoint(a1, a3):
    u = union(a1, a3)
    assert u.start == "$u"
    assert all(loc == "$u" or loc[:2] in ("1$", "2$") for loc in u.locations)


def test_concat_tick_chains(a1):
    c = concat(a1, a1)
    # one flush chain of max-delay many ticks per accepting location
    ticks = [t for t in c.transitions if t[1] is TICK]
    assert len(ticks) == a1.max_delay
    assert c.accepting == {"2$l0"}


def test_concat_sample_equality(a1, a3):
    for left, right in [(a1, a1), (a1, a3)]:
        c = concat(left, right)
        overhead = left.max_delay + 1
        for budget in (7, 13):
            expected = untimed_pairs(left, right, budget, overhead)
            assert untimed_sample(c, budget) == expected


def test_star_sample_equality(a1, a3):
    for auto in (a1, a3):
        s = star(auto)
        per_iteration = auto.max_delay + 1
        for budget in (12,):
            expected = untimed_star_words(auto, budget, per_iteration)
            assert untimed_sample(s, budget) == expected


# The laws above on random automata, at a transition bound of 6: a union
# pays one eps step in, a concatenation a flush chain of max-delay ticks and
# one eps, and a star iteration the flush chain and one eps, or two eps steps
# when the largest delay is 0.


@settings(max_examples=150, deadline=None)
@given(adbs(), adbs())
def test_union_sample_law(a, b):
    assert untimed_sample(union(a, b), 7) == untimed_sample(a, 6) | untimed_sample(b, 6)


@settings(max_examples=150, deadline=None)
@given(adbs(), adbs())
def test_concat_sample_law(a, b):
    assert untimed_sample(concat(a, b), 6) == untimed_pairs(a, b, 6, a.max_delay + 1)


@settings(max_examples=150, deadline=None)
@given(adbs())
def test_star_sample_law(a):
    per_iteration = max(a.max_delay, 1) + 1
    assert untimed_sample(star(a), 6) == untimed_star_words(a, 6, per_iteration)


# a pair whose product has too many runs of 7 steps for the oracle's cap
# of 10^6 paths, but few enough of 6
MANY_RUNS = (
    validate_adb(["l0"], SYMBOLS, "l0", ["l0"], [
        ("l0", EPS, "l0"), ("l0", TICK, "l0"), ("l0", Out("a", 0), "l0"),
        ("l0", Out("a", 2), "l0"), ("l0", Out("a", 3), "l0")]),
    validate_nfa(["q0", "q1", "q2"], SYMBOLS, "q0", ["q0"], [
        ("q0", "a", "q2"), ("q2", "a", "q0"), ("q0", "a", "q0")]),
)


@settings(max_examples=400, deadline=None)
@given(adbs(), nfas())
@example(*MANY_RUNS)
def test_intersect_sample_law(a, s):
    # the product pays one eps step out of $init, and keeps no location
    # but $init that cannot reach an accepting one
    try:
        prod = intersect_regular(a, s, cap=20_000)
    except BoundExceeded:
        return
    # where the oracle cannot enumerate the product's runs of 7 steps, the
    # same law is checked one step shorter, down to 4 against 3
    for depth in (7, 6, 5, 4):
        try:
            sample = untimed_sample(prod, depth)
            break
        except BoundExceeded:
            if depth == 4:
                raise
    assert sample == {
        w for w in untimed_sample(a, depth - 1) if nfa_member(s, w)}
    live, grew = set(prod.accepting), True
    while grew:
        grew = False
        for src, _, dst in prod.transitions:
            if dst in live and src not in live:
                live.add(src)
                grew = True
    assert prod.locations - {"$init"} <= live


def test_star_zero_delay_uses_eps():
    from adb import validate_adb

    flat = validate_adb(
        ["l0", "l1"], ["a"], "l0", ["l1"], [("l0", Out("a", 0), "l1")]
    )
    s = star(flat)
    assert not any(t[1] is TICK for t in s.transitions)
    # each iteration costs three transitions: eps in, the output, eps back
    assert untimed_sample(s, 9) == {(), ("a",), ("a", "a"), ("a", "a", "a")}


def test_star_accepts_empty_word(a1):
    s = star(a1)
    assert s.start in s.accepting
    assert () in untimed_sample(s, 0)


def test_lift_regular(abc_blocks):
    lifted = lift_regular(abc_blocks)
    assert lifted.max_delay == 0
    words = untimed_sample(lifted, 6)
    for u in words:
        assert nfa_member(abc_blocks, u)
    assert ("a", "b", "c") in words
    assert ("a", "a", "b") in words


def test_lift_regular_names_non_string_states_apart():
    # the state 0 would be named "q0", which a string state already holds
    spec = validate_nfa(["q0", 0, 1], ["a", "b"], 0, ["q0"],
                        [(0, "a", "q0"), ("q0", "b", 1), (1, None, "q0")])
    lifted = lift_regular(spec)
    assert lifted.locations == {"q0", "q0'", "q1"}
    assert lifted.start == "q0'"
    assert untimed_sample(lifted, 4) == {("a",), ("a", "b")}


@pytest.mark.parametrize("first, second, lifted_names", [
    ((0, 1), (1, 2), {"q(0,1)", "q(1,2)"}),
    ("x y", "", {"q'xy'", "q''"}),
])
def test_constructions_name_states_that_are_not_location_names(
    first, second, lifted_names
):
    # a tuple's repr holds a space, and "x y" and "" are no location names;
    # both constructions mint names that a printed file reads back
    auto = validate_adb(["l0", "l1"], ["a", "b"], "l0", ["l1"],
                        [("l0", Out("a", 1), "l1"), ("l1", TICK, "l1")])
    spec = validate_nfa([first, second], ["a", "b"], first, [second],
                        [(first, "a", second), (second, "b", second)])
    lifted = lift_regular(spec)
    product = intersect_regular(auto, spec)
    for built in (lifted, product):
        assert parse_adb(print_adb(built)) == built
    assert lifted.locations == lifted_names
    assert untimed_sample(lifted, 3) == {("a",), ("a", "b"), ("a", "b", "b")}
    assert untimed_sample(product, 4) == {("a",)}


def test_intersect_regular_product(a1, abc_blocks, bac_blocks, sigma_star):
    prod = intersect_regular(a1, abc_blocks)
    sample = untimed_sample(prod, 40)
    assert ("a", "b", "c") in sample
    assert ("a", "a", "b", "b", "c", "c") in sample

    everything = intersect_regular(a1, sigma_star)
    assert untimed_sample(everything, 13) == untimed_sample(a1, 12)


def test_intersect_regular_size_bound(a1, abc_blocks):
    prod = intersect_regular(a1, abc_blocks)
    n_a = len(a1.locations)
    n_r = len(abc_blocks.states)
    m = a1.max_delay
    assert len(prod.locations) <= 1 + n_a * n_r ** (2 * m + 1)


def test_intersect_regular_cap(a1, abc_blocks):
    # the product of a1 with a*b*c* materializes 39 locations, $init
    # included, and the cap counts them all; 8 are on an accepting path
    with pytest.raises(BoundExceeded):
        intersect_regular(a1, abc_blocks, cap=38)
    assert len(intersect_regular(a1, abc_blocks, cap=39).locations) == 8


def test_intersect_regular_rejects_missing_symbols(a3, abc_blocks):
    with pytest.raises(IncompatibleAlphabet):
        intersect_regular(a3, abc_blocks)


def test_intersection_untimed_equality(a1, aabbcc):
    # sample of the product equals the filtered sample of the input
    prod = intersect_regular(a1, aabbcc)
    got = untimed_sample(prod, 60)
    want = {u for u in untimed_sample(a1, 12) if u == ("a", "a", "b", "b", "c", "c")}
    assert got == want


def test_intersect_regular_names_spec_states_in_repr_order():
    # a spec state that is not a string is named r<i>, i its place in repr
    # order: 0, 10, 2, so r1 is state 10, the one "a" reaches; the
    # locations that guess r2 cannot accept and are trimmed
    auto = validate_adb(["l0", "l1"], ["a", "b"], "l0", ["l1"],
                        [("l0", Out("a", 1), "l1"), ("l1", TICK, "l1")])
    spec = validate_nfa([0, 2, 10], ["a", "b"], 0, [10],
                        [(0, "a", 10), (10, "b", 2)])
    assert print_adb(intersect_regular(auto, spec)) == """\
alphabet a b
locations $init l0|r0,r0|r0 l1|r0,r1|r0 l1|r1,r1|r1
start $init
accept l1|r0,r1|r0 l1|r1,r1|r1
trans $init l0|r0,r0|r0 eps
trans l0|r0,r0|r0 l1|r0,r1|r0 out a 1
trans l1|r0,r1|r0 l1|r1,r1|r1 tick
trans l1|r1,r1|r1 l1|r1,r1|r1 tick
"""


# A chain or product name that the construction mints may already name an
# input location; it then gets primes, so the two never merge.

def clashing_chain(delay):
    """After renaming, the accepting ``1$l0``'s first chain location would
    be named like the input location ``1$l0$tick$1``."""
    return validate_adb(
        ["l0", "l0$tick$1", "l1"], ["a", "b"], "l1", ["l0"],
        [("l1", Out("a", delay), "l0"), ("l0$tick$1", Out("b", 0), "l0")])


def test_concat_chain_name_clash():
    left = clashing_chain(1)
    right = validate_adb(["m0"], ["a", "b"], "m0", ["m0"], [])
    c = concat(left, right)
    assert "1$l0$tick$1'" in c.locations
    assert untimed_sample(c, 8) == {("a",)}


def test_star_chain_name_clash():
    auto = clashing_chain(2)
    s = star(auto)
    assert "1$l0$tick$1'" in s.locations
    assert untimed_sample(s, 12) == untimed_star_words(auto, 12, auto.max_delay + 1)


# Exact printed text of the constructions, flush chain names included.
PRINTED = {
    "union a1 a1": (lambda a1: union(a1, a1), (
        "alphabet a b c\n"
        "locations $u 1$l0 1$l1 1$l2 2$l0 2$l1 2$l2\n"
        "start $u\n"
        "accept 1$l0 2$l0\n"
        "trans $u 1$l0 eps\n"
        "trans $u 2$l0 eps\n"
        "trans 1$l0 1$l1 out a 0\n"
        "trans 1$l1 1$l2 out b 1\n"
        "trans 1$l2 1$l0 out c 2\n"
        "trans 2$l0 2$l1 out a 0\n"
        "trans 2$l1 2$l2 out b 1\n"
        "trans 2$l2 2$l0 out c 2\n")),
    "concat a1 a1": (lambda a1: concat(a1, a1), (
        "alphabet a b c\n"
        "locations 1$l0 1$l0$tick$1 1$l0$tick$2 1$l1 1$l2 2$l0 2$l1 2$l2\n"
        "start 1$l0\n"
        "accept 2$l0\n"
        "trans 1$l0 1$l1 out a 0\n"
        "trans 1$l0 1$l0$tick$1 tick\n"
        "trans 1$l0$tick$1 1$l0$tick$2 tick\n"
        "trans 1$l0$tick$2 2$l0 eps\n"
        "trans 1$l1 1$l2 out b 1\n"
        "trans 1$l2 1$l0 out c 2\n"
        "trans 2$l0 2$l1 out a 0\n"
        "trans 2$l1 2$l2 out b 1\n"
        "trans 2$l2 2$l0 out c 2\n")),
    "star a1": (lambda a1: star(a1), (
        "alphabet a b c\n"
        "locations $star 1$l0 1$l0$tick$1 1$l1 1$l2\n"
        "start $star\n"
        "accept $star\n"
        "trans $star 1$l0 eps\n"
        "trans 1$l0 1$l1 out a 0\n"
        "trans 1$l0 1$l0$tick$1 tick\n"
        "trans 1$l0$tick$1 $star tick\n"
        "trans 1$l1 1$l2 out b 1\n"
        "trans 1$l2 1$l0 out c 2\n")),
    # largest delay 0: a direct eps back to the fresh start
    "star delay 0": (lambda a1: star(clashing_chain(0)), (
        "alphabet a b\n"
        "locations $star 1$l0 1$l0$tick$1 1$l1\n"
        "start $star\n"
        "accept $star\n"
        "trans $star 1$l1 eps\n"
        "trans 1$l0 $star eps\n"
        "trans 1$l0$tick$1 1$l0 out b 0\n"
        "trans 1$l1 1$l0 out a 0\n")),
    "concat clash": (lambda a1: concat(clashing_chain(1), validate_adb(
        ["m0"], ["a", "b"], "m0", ["m0"], [])), (
        "alphabet a b\n"
        "locations 1$l0 1$l0$tick$1 1$l0$tick$1' 1$l1 2$m0\n"
        "start 1$l1\n"
        "accept 2$m0\n"
        "trans 1$l0 1$l0$tick$1' tick\n"
        "trans 1$l0$tick$1 1$l0 out b 0\n"
        "trans 1$l0$tick$1' 2$m0 eps\n"
        "trans 1$l1 1$l0 out a 1\n")),
    "star clash": (lambda a1: star(clashing_chain(2)), (
        "alphabet a b\n"
        "locations $star 1$l0 1$l0$tick$1 1$l0$tick$1' 1$l1\n"
        "start $star\n"
        "accept $star\n"
        "trans $star 1$l1 eps\n"
        "trans 1$l0 1$l0$tick$1' tick\n"
        "trans 1$l0$tick$1 1$l0 out b 0\n"
        "trans 1$l0$tick$1' $star tick\n"
        "trans 1$l1 1$l0 out a 2\n")),
}


@pytest.mark.parametrize("name", PRINTED)
def test_construction_printed_text(a1, name):
    build, text = PRINTED[name]
    assert print_adb(build(a1)) == text


def test_intersect_regular_name_clash():
    # z|s| steps on a to x|p|q| and on b to x|p|q| as well, unless primed
    auto = validate_adb(
        ["z", "x", "x|p", "y"], ["a", "b", "c", "d"], "z", ["y"],
        [("z", Out("a", 0), "x"), ("z", Out("b", 0), "x|p"),
         ("x", Out("c", 0), "y"), ("x|p", Out("d", 0), "y")])
    spec = validate_nfa(
        ["s", "p|q", "q", "f"], ["a", "b", "c", "d"], "s", ["f"],
        [("s", "a", "p|q"), ("s", "b", "q"), ("p|q", "c", "f"), ("q", "d", "f")])
    assert untimed_sample(intersect_regular(auto, spec), 5) == {("a", "c"), ("b", "d")}
