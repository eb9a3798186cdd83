import random

from hypothesis import given, settings
from hypothesis import strategies as st

from adb import (EPS, TICK, BoundExceeded, Out, single_word_nfa, validate_adb,
                 validate_nfa)
from adb.product import check_alphabet, search_accepting
from adb.regular import SpecTable
from conftest import SYMBOLS, adbs, load_adb, load_nfa, nfas

specs = st.one_of(
    nfas(),
    st.lists(st.sampled_from(SYMBOLS), max_size=4).map(
        lambda u: single_word_nfa(u, SYMBOLS)
    ),
)


# The relation-product search as a successor generator, an acceptance test
# and a BFS over them, with its own spec table and live locations: the
# reference for the one-loop search_accepting.


def live_locations(auto):
    live = set(auto.accepting)
    grew = True
    while grew:
        grew = False
        for src, _, dst in auto.transitions:
            if dst in live and src not in live:
                live.add(src)
                grew = True
    return live


def successors(auto, table, live, hit, ps):
    for label, dst in auto.edges_from(ps[0]):
        if dst not in live:
            continue
        _, current, pending = ps
        if label is TICK:
            if pending:
                current = table.image(current, pending[0])
                pending = pending[1:] + (table.identity,)
        elif label is not EPS:
            symbol, d = label
            if d == 0:
                current = table.after(current, symbol)
            else:
                relation = table.compose(pending[d - 1], symbol)
                if hit and not relation:
                    continue
                pending = pending[:d - 1] + (relation,) + pending[d:]
        if hit and not current:
            continue
        yield label, (dst, current, pending)


def is_accepting(auto, table, hit, ps):
    loc, image, pending = ps
    if loc not in auto.accepting:
        return False
    for relation in pending:
        image = table.image(image, relation)
    return bool(image & table.accepting) == hit


def reference_search(auto, spec, hit, cap):
    check_alphabet(auto, spec)
    table, live = SpecTable(spec), live_locations(auto)
    parent, frontier = {}, []

    def reached(ps, step):
        parent[ps] = step
        frontier.append(ps)
        if len(parent) > cap:
            raise BoundExceeded(cap)
        return is_accepting(auto, table, hit, ps)

    start = (auto.start, frozenset({table.start}),
             (table.identity,) * auto.max_delay)
    goal = start if reached(start, None) else None
    for ps in frontier:
        if goal is not None:
            break
        for label, nxt in successors(auto, table, live, hit, ps):
            if nxt not in parent and reached(nxt, (ps, label)):
                goal = nxt
                break
    if goal is None:
        return None, len(parent)
    path = []
    while parent[goal] is not None:
        prev, label = parent[goal]
        path.append((label, goal[0]))
        goal = prev
    return tuple(reversed(path)), len(parent)


def outcome(search, auto, spec, hit, cap):
    try:
        path, count = search(auto, spec, hit, cap)
    except BoundExceeded as exc:
        return "BoundExceeded", exc.cap
    if path is None:
        return None, count
    assert all(type(step) is tuple and len(step) == 2 for step in path)
    labels = tuple(label for label, _ in path)
    return labels, path, count


@settings(max_examples=300, deadline=None)
@given(adbs(), specs, st.booleans(), st.sampled_from([4, 10, 10**6]))
def test_search_matches_reference(auto, spec, hit, cap):
    assert outcome(search_accepting, auto, spec, hit, cap) == outcome(
        reference_search, auto, spec, hit, cap)


def test_search_matches_reference_at_the_cap():
    # the a1 ladder with delays (0, 2, 4) against a*b*c*: 1 state searched
    # for intersection, 19 for containment
    auto = validate_adb(["l0", "l1", "l2"], ["a", "b", "c"], "l0", ["l0"], [
        ("l0", Out("a", 0), "l1"), ("l1", Out("b", 2), "l2"),
        ("l2", Out("c", 4), "l0"), ("l0", TICK, "l0"),
    ])
    spec = load_nfa("astar-bstar-cstar.nfa")
    for hit in (True, False):
        _, count = reference_search(auto, spec, hit, 10**6)
        for cap in range(1, count + 2):
            want = outcome(reference_search, auto, spec, hit, cap)
            assert outcome(search_accepting, auto, spec, hit, cap) == want
            assert (want[0] == "BoundExceeded") == (cap < count)


def test_search_matches_reference_on_examples():
    auto = load_adb("a1.adb")
    for name in ("astar-bstar-cstar.nfa", "bstar-astar-cstar.nfa", "aabbcc.nfa",
                 "sigma-star.nfa"):
        spec = load_nfa(name)
        for hit in (True, False):
            want = outcome(reference_search, auto, spec, hit, 10**6)
            assert outcome(search_accepting, auto, spec, hit, 10**6) == want


def test_search_steps_each_letter_apart():
    # a/0 and b/0 leave the same spec set; only b reaches the spec's word
    auto = validate_adb(["l0", "l1"], SYMBOLS, "l0", ["l1"], [
        ("l0", Out("a", 0), "l1"), ("l0", Out("b", 0), "l1"),
    ])
    spec = single_word_nfa(("b",), SYMBOLS)
    for hit in (True, False):
        want = outcome(reference_search, auto, spec, hit, 10**6)
        assert outcome(search_accepting, auto, spec, hit, 10**6) == want
        assert want[0] == ((Out("b", 0),) if hit else (Out("a", 0),))


def matches_reference_at_every_cap(auto, spec):
    for hit in (True, False):
        _, count = reference_search(auto, spec, hit, 10**6)
        for cap in range(1, count + 2):
            want = outcome(reference_search, auto, spec, hit, cap)
            assert outcome(search_accepting, auto, spec, hit, cap) == want
            assert (want[0] == "BoundExceeded") == (cap < count)


PARITY = validate_nfa(["s0", "s1"], ["a"], "s0", ["s0"],
                      [("s0", "a", "s1"), ("s1", "a", "s0")])


def test_search_trims_a_pending_identity():
    # the second a/1 composes the swap relation back to the identity, which
    # the search leaves out of its pending pairs
    auto = validate_adb(["l0", "l1", "l2"], ["a"], "l0", ["l2"], [
        ("l0", Out("a", 1), "l1"), ("l1", Out("a", 1), "l2"),
        ("l2", TICK, "l2"),
    ])
    matches_reference_at_every_cap(auto, PARITY)
    assert outcome(search_accepting, auto, PARITY, True, 10**6)[0] == (
        Out("a", 1), Out("a", 1))
    assert outcome(search_accepting, auto, PARITY, False, 10**6)[0] is None


def test_search_leaves_out_an_inner_identity():
    # as above, behind a relation at offset 2 that stays pending
    auto = validate_adb(["l0", "l1", "l2", "l3"], ["a"], "l0", ["l3"], [
        ("l0", Out("a", 2), "l1"), ("l1", Out("a", 1), "l2"),
        ("l2", Out("a", 1), "l3"), ("l3", TICK, "l3"),
    ])
    matches_reference_at_every_cap(auto, PARITY)
    assert outcome(search_accepting, auto, PARITY, True, 10**6)[0] is None
    assert outcome(search_accepting, auto, PARITY, False, 10**6)[0] == (
        Out("a", 2), Out("a", 1), Out("a", 1))


def test_search_holds_no_slot_per_delay():
    # only slots that hold letters are pending, so a delay of 10^12 searches
    # the same states as a delay of 3 when the goal comes before a tick
    def auto(d):
        return validate_adb(["l0", "l1", "l2"], SYMBOLS, "l0", ["l2"], [
            ("l0", Out("a", d), "l1"), ("l1", TICK, "l1"),
            ("l1", Out("b", 0), "l2"),
        ])

    spec = single_word_nfa(("b", "a"), SYMBOLS)
    near = outcome(reference_search, auto(3), spec, True, 10**6)
    far = outcome(search_accepting, auto(10**12), spec, True, 10**6)
    assert near[0] == (Out("a", 3), Out("b", 0))
    assert far[0] == (Out("a", 10**12), Out("b", 0))
    assert far[2] == near[2]


def test_search_matches_reference_on_the_letter_ladder():
    # one location outputs a and b at every delay 0..M and ticks: untimed
    # membership of seeded 8-letter words reaches 98 to 7,840 states with
    # several offsets pending; the non-member variant ends in l1 after one
    # c/0, so the word u c c is never output
    rng = random.Random(8)
    for m in (1, 2):
        edges = [("l0", Out(s, d), "l0") for s in "ab" for d in range(m + 1)]
        edges.append(("l0", TICK, "l0"))
        ladder = validate_adb(["l0"], ["a", "b"], "l0", ["l0"], edges)
        cut = validate_adb(["l0", "l1"], ["a", "b", "c"], "l0", ["l1"],
                           edges + [("l0", Out("c", 0), "l1")])
        for _ in range(3):
            u = tuple(rng.choice("ab") for _ in range(8))
            for auto, word in ((ladder, u), (cut, u + ("c", "c"))):
                spec = single_word_nfa(word, auto.alphabet)
                _, count = reference_search(auto, spec, True, 10**6)
                for cap in (10**6, count - 1):
                    assert outcome(search_accepting, auto, spec, True, cap) == (
                        outcome(reference_search, auto, spec, True, cap))
