"""Decision procedures: emptiness, timed and untimed membership,
intersection-with-regular emptiness, and regular model checking with
verified counterexamples."""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Optional

from .automaton import Adb, Run, is_accepting_run, run_output
from .errors import (
    BoundExceeded,
    InternalVerificationFailure,
    InvalidStep,
    UnknownLocation,
    UnknownSymbol,
)
from .product import DEFAULT_STATE_CAP, search_accepting
from .regular import Nfa, nfa_member, single_word_nfa
from .words import (
    EPS,
    TICK,
    TimedWord,
    UntimedWord,
    oword,
    untime,
    validate_timed_word,
)


def shortest_accepting_run(adb: Adb) -> Optional[Run]:
    """A shortest path from the start to an accepting location, as a run, or
    ``None``: the relation product's search with a one-state spec that
    accepts every word.  Each location then has one product state, so the
    search never passes a cap of the locations."""
    every_word = Nfa(frozenset({0}), adb.alphabet, 0, frozenset({0}),
                     frozenset((0, symbol, 0) for symbol in adb.alphabet))
    path, _ = search_accepting(adb, every_word, True, len(adb.locations))
    return None if path is None else Run(adb.start, path)


def is_empty(adb: Adb) -> bool:
    """True iff the automaton generates no timed word at all."""
    return shortest_accepting_run(adb) is None


# ---------------------------------------------------------------------------
# timed membership


def member_timed(adb: Adb, w: TimedWord, cap=DEFAULT_STATE_CAP) -> bool:
    """Timed-word membership by breadth-first search, one clock at a time.

    At clock ``c`` (the ticks taken) a state is an automaton location and
    the consumption counts of the word's stamps at or after ``c``, packed
    into one int in base ``b``, one more than the most letters any stamp
    holds, with digit ``i`` for the ``i``-th such stamp.  Only the stamps
    within the largest delay M of ``c`` can hold a count, so ``power`` has
    ``min(M+1, stamps)`` entries and nothing grows with M.  The state is
    the one int ``counts * L + i``, where ``i`` is the location's index in
    ``sorted(adb.locations)`` and ``L`` their number.

    An output with delay d must match the next unconsumed letter of stamp
    ``c+d`` and adds its power, and fails with no stamp there; it and eps
    keep the clock.  A tick passes its state to clock ``c+1``: if ``c`` is a
    stamp, digit 0 must be full and the counts shift down a digit.  One past
    the final stamp a tick keeps the clock, which keeps the search finite
    across eps/tick cycles.  A state accepts when its location is accepting
    and every stamp left is full: the outputs still pending then surface
    exactly as the word's remaining letters.  Memory follows the word and
    one clock's states; the empty word needs no special case."""
    w = validate_timed_word(w)
    for sym, _ in w:
        if sym not in adb.alphabet:
            raise UnknownSymbol(sym)
    t_end = w[-1][1] if w else -1
    # each stamp's letters, then None (read by an output once full), and rank
    slots = {
        t: (tuple(sym for sym, _ in letters) + (None,), rank)
        for rank, (t, letters) in enumerate(groupby(w, itemgetter(1)))
    }
    sizes = [len(letters) - 1 for letters, _ in slots.values()]
    b = max(sizes, default=0) + 1
    power = [b**i for i in range(min(adb.max_delay + 1, len(sizes)))]

    # each location's outputs and eps (symbol None), then its ticks, in
    # edges_from order
    names = sorted(adb.locations)
    n_locs, index = len(names), {loc: i for i, loc in enumerate(names)}
    moves, ticks = [[] for _ in names], [[] for _ in names]
    for i, loc in enumerate(names):
        for label, dst in adb.edges_from(loc):
            if label is TICK:
                ticks[i].append(index[dst])
            else:
                moves[i].append((None, 0, index[dst]) if label is EPS
                                else (label.symbol, label.delay, index[dst]))
    accepting = [loc in adb.accepting for loc in names]

    m = adb.max_delay
    clock, first, found = 0, 0, 1  # first: rank of the first stamp >= clock
    seen = {index[adb.start]: None}
    while True:
        base, size = (b, sizes[first]) if clock in slots else (1, 0)
        full = None
        if clock + m >= t_end:  # every stamp left is within reach
            full = sum(n * p for n, p in zip(sizes[first:], power))
        # the next clock's states; past the final stamp a tick keeps the clock
        last = clock > t_end
        ticked = seen if last else {}
        frontier = list(seen)
        for state in frontier:
            i = state % n_locs
            here, counts = state - i, state // n_locs
            if accepting[i] and counts == full:
                return True
            for sym, d, j in moves[i]:
                nxt = here + j
                if sym is not None:
                    slot = slots.get(clock + d)
                    if slot is None:
                        continue
                    letters, rank = slot
                    p = power[rank - first]
                    if letters[counts // p % b] != sym:
                        continue
                    nxt += p * n_locs
                if nxt not in seen:
                    seen[nxt] = None
                    found += 1
                    if found > cap:
                        raise BoundExceeded(cap)
                    frontier.append(nxt)
            if ticks[i] and counts % base == size:
                shifted = counts // base * n_locs
                for j in ticks[i]:
                    nxt = shifted + j
                    if nxt not in ticked:
                        ticked[nxt] = None
                        found += 1
                        if found > cap:
                            raise BoundExceeded(cap)
                        if last:
                            frontier.append(nxt)
        if last or not ticked:
            return False
        clock, first, seen = clock + 1, first + (base > 1), ticked


# ---------------------------------------------------------------------------
# intersection emptiness, untimed membership, model checking


class IntersectionWitness(NamedTuple):
    """A word in the intersection plus the automaton run generating it."""

    word: UntimedWord
    run: Run
    states_explored: int


def _search(adb: Adb, spec: Nfa, hit: bool, cap) -> Optional[IntersectionWitness]:
    """A shortest relation-product path to an output whose spec image does
    (``hit``) or does not meet the spec's accepting states."""
    path, count = search_accepting(adb, spec, hit, cap)
    if path is None:
        return None
    run = Run(adb.start, path)
    return IntersectionWitness(untime(oword(run.labels())), run, count)


def intersect_regular_empty(
    adb: Adb, spec: Nfa, cap=DEFAULT_STATE_CAP
) -> Optional[IntersectionWitness]:
    """``None`` when the automaton's untimed language is disjoint from the
    spec NFA's language; otherwise a witness word from a shortest accepting
    product path."""
    return _search(adb, spec, True, cap)


def member_untimed(adb: Adb, u: UntimedWord, cap=DEFAULT_STATE_CAP) -> bool:
    """Untimed membership via intersection with a single-word NFA."""
    path, _ = search_accepting(adb, single_word_nfa(u, adb.alphabet), True, cap)
    return path is not None


class Verdict(NamedTuple):
    holds: bool
    counterexample: Optional[UntimedWord] = None
    witness_run: Optional[Run] = None


def model_check(adb: Adb, spec: Nfa, cap=DEFAULT_STATE_CAP) -> Verdict:
    """Decide containment of the automaton's untimed language in the spec
    NFA's language by searching for an accepting run whose output the spec
    rejects.  A counterexample is re-verified before it is returned: its run
    is replayed on the automaton, and the spec must reject its word."""
    witness = _search(adb, spec, False, cap)
    if witness is None:
        return Verdict(holds=True)
    u, run = witness.word, witness.run
    try:
        replayed = is_accepting_run(adb, run) and untime(run_output(adb, run)) == u
    except (InvalidStep, UnknownLocation):
        replayed = False
    if not replayed or nfa_member(spec, u):
        raise InternalVerificationFailure(
            "counterexample %r failed verification" % (u,)
        )
    return Verdict(holds=False, counterexample=u, witness_run=run)
