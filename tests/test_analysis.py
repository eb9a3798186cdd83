import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adb import (
    EPS,
    BoundExceeded,
    IncompatibleAlphabet,
    InternalVerificationFailure,
    TICK,
    Out,
    Run,
    UnknownSymbol,
    Verdict,
    brute_member_timed,
    intersect_regular,
    intersect_regular_empty,
    is_accepting_run,
    is_empty,
    language_sample,
    lift_regular,
    member_timed,
    member_untimed,
    model_check,
    nfa_member,
    parse_adb,
    parse_nfa,
    parse_timed_word,
    random_mutations,
    run_output,
    shortest_accepting_run,
    single_word_nfa,
    untime,
    untimed_sample,
    validate_adb,
    validate_nfa,
)
from conftest import SYMBOLS, adbs, eps_cycle_nfa, load_adb, nfas

# random NFAs, and single-word specs, which tell apart the orders of letters
specs = st.one_of(
    nfas(),
    st.lists(st.sampled_from(SYMBOLS), max_size=4).map(
        lambda u: single_word_nfa(u, SYMBOLS)
    ),
)


def test_emptiness(a1, a2):
    assert not is_empty(a1)
    assert not is_empty(a2)
    assert is_empty(load_adb("empty.adb"))


def test_shortest_accepting_run_is_a_witness(a1, a2, a3):
    for auto in (a1, a2, a3):
        run = shortest_accepting_run(auto)
        assert is_accepting_run(auto, run)
    # the empty run already accepts when the start location does
    assert len(shortest_accepting_run(a1)) == 0


def test_shortest_run_nontrivial():
    auto = validate_adb(
        ["l0", "l1", "l2"],
        ["a"],
        "l0",
        ["l2"],
        [("l0", Out("a", 0), "l1"), ("l1", Out("a", 1), "l2")],
    )
    run = shortest_accepting_run(auto)
    assert run.locations() == ("l0", "l1", "l2")


def reference_shortest_accepting_run(auto):
    """BFS over locations with a back-trace: the reference for the relation
    product's emptiness search."""
    parent = {auto.start: None}
    queue = deque([auto.start])
    goal = auto.start if auto.start in auto.accepting else None
    while goal is None and queue:
        loc = queue.popleft()
        for label, dst in auto.edges_from(loc):
            if dst in parent:
                continue
            parent[dst] = (loc, label)
            queue.append(dst)
            if dst in auto.accepting:
                goal = dst
                break
    if goal is None:
        return None
    steps = []
    loc = goal
    while parent[loc] is not None:
        prev, label = parent[loc]
        steps.append((label, loc))
        loc = prev
    steps.reverse()
    return Run(auto.start, tuple(steps))


@settings(max_examples=500, deadline=None)
@given(adbs())
def test_shortest_accepting_run_matches_reference(auto):
    assert shortest_accepting_run(auto) == reference_shortest_accepting_run(auto)


def test_member_timed_positive(a1):
    assert member_timed(a1, parse_timed_word("a@0 b@1 c@2"))
    assert member_timed(a1, ())
    assert member_timed(a1, parse_timed_word("a@0 a@0 b@1 b@1 c@2 c@2"))


def test_member_timed_negative(a1):
    assert not member_timed(a1, parse_timed_word("a@0"))
    assert not member_timed(a1, parse_timed_word("a@0 b@1"))
    assert not member_timed(a1, parse_timed_word("a@1 b@1 c@2"))
    # a stamp far past any clock a search can reach costs no memory
    late = parse_timed_word("a@0 b@100000000")
    assert not member_timed(a1, late) and not brute_member_timed(a1, late)
    for decide in (member_timed, brute_member_timed):
        with pytest.raises(UnknownSymbol):
            decide(a1, (("z", 0),))


def test_member_timed_window_follows_the_word():
    # the counts hold one digit per stamp of the word, not per clock slot: a
    # delay of 10^11 that reaches a stamp costs no more than one that does not
    far = validate_adb(["l0", "l1"], ["a"], "l0", ["l1"],
                       [("l0", Out("a", 10**11), "l1")])
    words = [(("a", 0),), (), (("a", 10**11),)]
    verdicts = [member_timed(far, w) for w in words]
    assert verdicts == [brute_member_timed(far, w) for w in words]
    assert verdicts == [False, False, True]


def test_member_timed_memory_follows_neither_cap_nor_horizon(a1):
    # only the word and the states of one clock (and the next) are held:
    # a far stamp under a large cap, and an idle tick loop that runs clock
    # after clock until the cap stops it, each peak well below 1 MB
    idle, _ = cycles(1, [])
    far = parse_timed_word("a@0 b@100000000")
    tracemalloc.start()
    try:
        assert not member_timed(a1, far, cap=10**6)
        with pytest.raises(BoundExceeded):
            member_timed(idle, parse_timed_word("b@100000000"), cap=10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_member_timed_idle_ticks(a2):
    # the golden run with idle detours between cycles
    w = parse_timed_word("a@0 a@0 b@1 b@1 c@2 c@2 a@2 b@3 c@4 a@6 b@7 c@8")
    assert member_timed(a2, w)
    assert member_timed(a2, ())
    assert not member_timed(a2, parse_timed_word("a@0 b@2 c@2"))


def test_member_timed_interleaving(a3):
    w = parse_timed_word("a@0 a@0 b@0 a@0 b@0 c@1 c@1 c@1 d@2 d@2")
    assert member_timed(a3, w)
    assert not member_timed(a3, parse_timed_word("a@0 d@2"))


def test_member_timed_flush_after_acceptance(a1):
    # the run ends at time 0 but delayed letters surface later
    assert member_timed(a1, parse_timed_word("a@0 b@1 c@2"))
    assert not member_timed(a1, parse_timed_word("a@0 b@1 c@3"))


@settings(max_examples=300, deadline=None)
@given(adbs(), st.integers(0, 5), st.integers(0, 2**16))
def test_member_timed_agrees_with_brute_force(auto, max_transitions, seed):
    members = sorted(
        language_sample(auto, max_transitions), key=lambda w: (len(w), w)
    )
    words = {()} | set(members[-6:])
    for w in members[-6:]:
        words.update(random_mutations(w, auto.alphabet, 4, seed))
    for w in sorted(words):
        assert member_timed(auto, w) == brute_member_timed(auto, w), w


@st.composite
def far_delay_adbs(draw):
    """Small random automata like ``conftest.adbs`` whose delays may reach
    10^12; kept out of ``adbs`` because star and concat build a tick chain
    as long as the largest delay, and the reference search in
    ``test_product`` pads its pending slots up to it."""
    locations = ["l%d" % i for i in range(draw(st.integers(1, 4)))]
    loc = st.sampled_from(locations)
    label = st.one_of(
        st.builds(Out, st.sampled_from(SYMBOLS),
                  st.sampled_from((0, 1, 2, 3, 10**12))),
        st.just(EPS),
        st.just(TICK),
    )
    transitions = draw(st.lists(st.tuples(loc, label, loc), max_size=6))
    accepting = draw(st.sets(loc))
    return validate_adb(locations, SYMBOLS, "l0", accepting, transitions)


@settings(max_examples=300, deadline=None)
@given(far_delay_adbs(), st.integers(0, 5), st.integers(0, 2**16))
def test_member_timed_agrees_with_brute_force_on_far_delays(
    auto, max_transitions, seed
):
    # a word's stamps, not its delays, size the search; a word that needs
    # ticks across an idle gap towards a far stamp hits the cap on either
    # side, and is skipped
    members = sorted(
        language_sample(auto, max_transitions), key=lambda w: (len(w), w)
    )
    words = {()} | set(members[-6:])
    for w in members[-6:]:
        words.update(random_mutations(w, auto.alphabet, 4, seed))
    for w in sorted(words):
        try:
            verdicts = [decide(auto, w, cap=20_000)
                        for decide in (member_timed, brute_member_timed)]
        except BoundExceeded:
            continue
        assert verdicts[0] == verdicts[1], w


def cycles(d, times):
    """The automaton of ``a/d`` then ``b/0`` cycles with idle ticks, and the
    word of one cycle started at each of ``times``."""
    auto = validate_adb(["l0", "l1"], ["a", "b"], "l0", ["l0"], [
        ("l0", Out("a", d), "l1"), ("l1", Out("b", 0), "l0"), ("l0", TICK, "l0"),
    ])
    letters = [x for t in times for x in (("a", t + d), ("b", t))]
    return auto, tuple(sorted(letters, key=lambda x: x[1]))


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_member_timed_packed_count_boundaries(d):
    # member_timed packs the slot counts into one int whose base is one more
    # than the fullest slot; 9, 10, 11 and 40 letters in one slot sit around
    # the digit boundaries, and a later cycle makes the window shift past
    # them; the empty word and a word that skips slots come first
    auto, skipping = cycles(d, [0, 4])
    words = [(), skipping]
    for k in (9, 10, 11, 40):
        _, dense = cycles(d, [2] * k + [5])
        words.append(dense)
        words.extend(random_mutations(dense, auto.alphabet, 3, k))
    verdicts = [member_timed(auto, w) for w in words]
    assert verdicts == [brute_member_timed(auto, w) for w in words]
    assert verdicts[:3] == [True, True, True]


def test_member_timed_bound(a2):
    w = parse_timed_word("a@0 a@0 b@1 b@1 c@2 c@2 a@2 b@3 c@4 a@6 b@7 c@8")
    with pytest.raises(BoundExceeded):
        member_timed(a2, w, cap=5)
    # an idle tick loop ticks on towards a far stamp until the cap stops it
    idle, _ = cycles(1, [])
    for decide in (member_timed, brute_member_timed):
        with pytest.raises(BoundExceeded):
            decide(idle, parse_timed_word("b@100000000"), cap=1000)


@pytest.mark.parametrize("d", [0, 2])
def test_member_timed_cap_cuts_no_reachable_slot(d):
    # the search counts each state against the cap as it first finds it, one
    # clock after another: under every cap the verdict is the uncapped one or
    # BoundExceeded
    auto, w = cycles(d, [0, 3, 7])
    for u in (w, w[:-1], ()):
        want = member_timed(auto, u)
        assert want == brute_member_timed(auto, u)
        for cap in range(0, 60):
            try:
                assert member_timed(auto, u, cap=cap) == want
            except BoundExceeded:
                pass


def test_member_timed_least_deciding_cap(a2):
    # the search finds the same states in the same order as when a state was
    # a (location, counts) tuple: the least cap that decides is pinned
    golden = parse_timed_word("a@0 a@0 b@1 b@1 c@2 c@2 a@2 b@3 c@4 a@6 b@7 c@8")
    auto, w = cycles(2, [0, 3, 7])
    for adb, word, least, want in ((a2, golden, 19, True), (auto, w, 14, True),
                                   (auto, w[:-1], 12, False)):
        with pytest.raises(BoundExceeded):
            member_timed(adb, word, cap=least - 1)
        assert member_timed(adb, word, cap=least) is want


def test_member_untimed(a1, a3):
    assert member_untimed(a1, ())
    assert member_untimed(a1, ("a", "b", "c"))
    assert member_untimed(a1, ("a", "a", "b", "b", "c", "c"))
    assert not member_untimed(a1, ("a", "b"))
    assert not member_untimed(a1, ("b", "a", "c"))
    assert member_untimed(a3, ("a", "b", "c", "d"))
    with pytest.raises(UnknownSymbol):
        member_untimed(a1, ("z",))


@settings(max_examples=300, deadline=None)
@given(adbs(), st.lists(st.lists(st.sampled_from(SYMBOLS), max_size=5), max_size=3))
def test_member_untimed_laws(auto, words):
    # law 1: every sampled word is a member; law 2: membership agrees with
    # the guess-tuple product, which shares no search code with it; at most
    # 6 transitions give at most 6**0 + ... + 6**6 = 55,987 paths of up to 6
    # steps, so the sample never hits its cap
    sample = untimed_sample(auto, 6, cap=55_987)
    for u in sample:
        assert member_untimed(auto, u)
    for u in sample | {tuple(w) for w in words}:
        try:
            product = intersect_regular(
                auto, single_word_nfa(u, auto.alphabet), cap=20_000)
        except BoundExceeded:
            continue
        assert member_untimed(auto, u) == (not is_empty(product))


def test_library_searches_read_no_state_cap(monkeypatch, a1, abc_blocks):
    # each search below needs more than one state
    monkeypatch.setenv("ADB_MAX_STATES", "1")
    assert member_untimed(a1, ("a", "b", "c"))
    assert member_timed(a1, parse_timed_word("a@0 b@1 c@2"))
    assert model_check(a1, abc_blocks).holds
    assert len(intersect_regular(a1, abc_blocks).locations) == 8


def test_intersect_regular_empty_witness(a1, aabbcc, astar_b):
    hit = intersect_regular_empty(a1, aabbcc)
    assert hit is not None
    assert hit.word == ("a", "a", "b", "b", "c", "c")
    assert is_accepting_run(a1, hit.run)
    assert untime(run_output(a1, hit.run)) == hit.word
    assert hit.states_explored >= 1

    widened = validate_nfa(
        astar_b.states,
        astar_b.alphabet | {"c"},
        astar_b.start,
        astar_b.accepting,
        astar_b.transitions,
    )
    assert intersect_regular_empty(a1, widened) is None


def test_intersect_regular_empty_bound(a1, aabbcc):
    with pytest.raises(BoundExceeded):
        intersect_regular_empty(a1, aabbcc, cap=5)


def test_model_check_holds(a1, abc_blocks, sigma_star):
    assert model_check(a1, abc_blocks).holds
    assert model_check(a1, sigma_star).holds


def test_model_check_fails_with_verified_counterexample(a1, bac_blocks):
    verdict = model_check(a1, bac_blocks)
    assert not verdict.holds
    assert verdict.counterexample == ("a", "b", "c")
    assert member_untimed(a1, verdict.counterexample)
    assert not nfa_member(bac_blocks, verdict.counterexample)
    assert is_accepting_run(a1, verdict.witness_run)


def test_model_check_rejects_a_counterexample_that_fails_verification(
        a1, bac_blocks, monkeypatch):
    import adb.analysis

    with monkeypatch.context() as patch:
        patch.setattr(adb.analysis, "nfa_member", lambda spec, u: True)
        with pytest.raises(InternalVerificationFailure):
            model_check(a1, bac_blocks)
    # words the spec rejects, on a step a1 has no edge for and on a run that
    # stops at a rejecting location
    a, b, c = Out("a", 0), Out("b", 1), Out("c", 2)
    for path in (((a, "l1"), (b, "l2"), (c, "l1")), ((a, "l1"), (b, "l2"))):
        with monkeypatch.context() as patch:
            patch.setattr(adb.analysis, "search_accepting",
                          lambda *args, path=path: (path, 1))
            with pytest.raises(InternalVerificationFailure):
                model_check(a1, bac_blocks)


def test_model_check_lifted_spec_against_itself(abc_blocks, bac_blocks, astar_b):
    for spec in (abc_blocks, bac_blocks, astar_b):
        assert model_check(lift_regular(spec), spec).holds


def test_model_check_alphabet_mismatch(a3, abc_blocks):
    with pytest.raises(IncompatibleAlphabet) as info:
        model_check(a3, abc_blocks)
    assert info.value.missing == ["d"]
    assert str(info.value) == "spec alphabet is missing ['d']"


def test_model_check_survey_protocol(a0, sigma_star):
    assert model_check(a0, sigma_star).holds


@settings(max_examples=200, deadline=None)
@given(adbs(), specs)
def test_intersect_regular_empty_agrees_with_construction(auto, spec):
    # the paper's guess-tuple construction is the independent oracle
    witness = intersect_regular_empty(auto, spec)
    assert (witness is None) == is_empty(intersect_regular(auto, spec))
    if witness is not None:
        assert is_accepting_run(auto, witness.run)
        assert untime(run_output(auto, witness.run)) == witness.word
        assert nfa_member(spec, witness.word)


@settings(max_examples=200, deadline=None)
@given(adbs(), specs)
def test_model_check_agrees_with_sample(auto, spec):
    verdict = model_check(auto, spec)
    outside = [u for u in untimed_sample(auto, 6) if not nfa_member(spec, u)]
    if verdict.holds:
        assert outside == []
    else:
        u, run = verdict.counterexample, verdict.witness_run
        assert is_accepting_run(auto, run)
        assert untime(run_output(auto, run)) == u
        assert not nfa_member(spec, u)


def test_eps_cycle_spec_against_construction_and_sample():
    # the spec's eps cycle and eps self-loop go through the spec table
    spec = eps_cycle_nfa()
    auto = validate_adb(["l0", "l1", "l2"], ["a", "b"], "l0", ["l2"], [
        ("l0", Out("a", 1), "l1"), ("l1", Out("b", 0), "l2"),
        ("l1", Out("a", 0), "l2"), ("l2", EPS, "l0"), ("l2", TICK, "l2"),
    ])
    sample = untimed_sample(auto, 6)
    witness = intersect_regular_empty(auto, spec)
    assert not is_empty(intersect_regular(auto, spec))
    assert witness.word == ("b", "a")
    assert witness.word in sample and nfa_member(spec, witness.word)
    verdict = model_check(auto, spec)
    assert verdict.counterexample == ("a", "a")
    assert verdict.counterexample in sample
    assert not nfa_member(spec, verdict.counterexample)


def test_member_untimed_large_delay():
    # the guess-tuple search exceeded this cap from d=4 on
    loop = validate_adb(["l0"], ["a"], "l0", ["l0"], [("l0", Out("a", 40), "l0")])
    assert member_untimed(loop, ("a", "a"), cap=100)


def test_model_check_large_delays(abc_blocks, bac_blocks):
    # a1 with delays (0, 10, 20); the guess-tuple search needs over 10^6 states
    auto = validate_adb(
        ["l0", "l1", "l2"],
        ["a", "b", "c"],
        "l0",
        ["l0"],
        [("l0", Out("a", 0), "l1"), ("l1", Out("b", 10), "l2"),
         ("l2", Out("c", 20), "l0")],
    )
    assert model_check(auto, abc_blocks, cap=100).holds
    assert model_check(auto, bac_blocks, cap=100).counterexample == ("a", "b", "c")


def test_search_skips_locations_that_cannot_accept():
    # l0/l1 never reach the accepting location, but their ticks and delayed
    # outputs feed the spec relations without bound
    auto = parse_adb("""
alphabet a b
locations l0 l1 dead
start l0
accept dead
trans l0 l1 out a 0
trans l1 l0 out b 3
trans l0 l0 out a 2
trans l1 l1 out b 1
trans l1 l1 tick
trans l0 l0 tick
""")
    spec = parse_nfa("""
alphabet a b
states s0 s1 s2 s3 s4
start s0
accept s0 s3
trans s0 s2 on a
trans s0 s4 on b
trans s1 s3 on a
trans s1 s1 on b
trans s2 s1 on a
trans s2 s3 on b
trans s3 s0 on b
trans s4 s0 on a
trans s4 s3 on b
""")
    assert model_check(auto, spec, cap=100) == Verdict(holds=True)
    assert intersect_regular_empty(auto, spec, cap=100) is None
