"""Decision procedures: emptiness, timed and untimed membership,
intersection-with-regular emptiness, and regular model checking with
verified counterexamples."""

from __future__ import annotations

from collections import deque
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
from .product import search_accepting, state_cap
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
    """A shortest path from the start to an accepting location, as a run
    (``None`` when no accepting location is reachable).  BFS over the sorted
    transition relation makes the witness reproducible."""
    parent = {adb.start: None}
    queue = deque([adb.start])
    goal = adb.start if adb.start in adb.accepting else None
    while goal is None and queue:
        loc = queue.popleft()
        for label, dst in adb.edges_from(loc):
            if dst in parent:
                continue
            parent[dst] = (loc, label)
            queue.append(dst)
            if dst in adb.accepting:
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
    return Run(adb.start, tuple(steps))


def is_empty(adb: Adb) -> bool:
    """True iff the automaton generates no timed word at all."""
    return shortest_accepting_run(adb) is None


# ---------------------------------------------------------------------------
# timed membership


def member_timed(adb: Adb, w: TimedWord, cap=None) -> bool:
    """Timed-word membership by breadth-first search over window states.

    A state is ``(loc, clock, counts)``: an automaton location, the ticks
    taken so far and ``M+1`` consumption counts, one per open time slot
    ``clock .. clock+M`` (M being the largest delay).  The counts are packed
    into one int in base ``b``, one more than the most letters any slot
    holds, with digit ``i`` for slot ``clock+i``.  The clock stops at one
    past the final timestamp, where every slot is empty, which keeps the
    search finite across eps/tick cycles.

    An output with delay d must match the next unconsumed letter of slot
    ``clock+d`` (digit d), and adds ``b**d``; a tick needs slot ``clock`` to
    be full (digit 0), then floor-divides by ``b`` to shift the window by
    one slot.  A state accepts when its location is accepting, the window
    reaches the final timestamp and every slot in it is full: the outputs
    still pending then surface exactly as the word's remaining letters.  The
    empty word needs no special case."""
    if cap is None:
        cap = state_cap()
    w = validate_timed_word(w)
    for sym, _ in w:
        if sym not in adb.alphabet:
            raise UnknownSymbol(sym)
    m = adb.max_delay
    t_end = w[-1][1] if w else -1
    # A clock only advances by a tick, so a search of at most ``cap`` states
    # never expands a clock past ``cap - 1``: the tables stop there, however
    # late the word ends.
    clocks = min(t_end + 2, max(cap, 1))
    # each slot's letters, then None, read by an output once the slot is full
    segments = [(None,)] * (clocks + m)
    sizes = [0] * (clocks + m)
    for t, letters in groupby(w, itemgetter(1)):
        if t >= clocks + m:
            break
        segments[t] = tuple(sym for sym, _ in letters) + (None,)
        sizes[t] = len(segments[t]) - 1
    b = max(sizes) + 1
    power = [b**d for d in range(m + 1)]
    # the counts of a window whose every slot is full, per clock
    full = [0] * clocks
    for t, size in enumerate(sizes):
        if size:
            for d in range(max(t - clocks + 1, 0), min(t, m) + 1):
                full[t - d] += size * power[d]

    accepting, edges_from = adb.accepting, adb.edges_from
    start = (adb.start, 0, 0)
    seen = {start}
    queue = deque([start])
    while queue:
        loc, clock, counts = queue.popleft()
        if loc in accepting and clock + m >= t_end and counts == full[clock]:
            return True
        for label, dst in edges_from(loc):
            if label is EPS:
                state = (dst, clock, counts)
            elif label is TICK:
                if counts % b != sizes[clock]:
                    continue
                state = (dst, clock + 1 if clock <= t_end else clock, counts // b)
            else:
                sym, d = label
                if segments[clock + d][counts // power[d] % b] != sym:
                    continue
                state = (dst, clock, counts + power[d])
            if state not in seen:
                seen.add(state)
                if len(seen) > cap:
                    raise BoundExceeded(cap)
                queue.append(state)
    return False


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
    adb: Adb, spec: Nfa, cap=None
) -> Optional[IntersectionWitness]:
    """``None`` when the automaton's untimed language is disjoint from the
    spec NFA's language; otherwise a witness word from a shortest accepting
    product path."""
    return _search(adb, spec, True, cap)


def member_untimed(adb: Adb, u: UntimedWord, cap=None) -> bool:
    """Untimed membership via intersection with a single-word NFA."""
    return _search(adb, single_word_nfa(u, adb.alphabet), True, cap) is not None


class Verdict(NamedTuple):
    holds: bool
    counterexample: Optional[UntimedWord] = None
    witness_run: Optional[Run] = None


def model_check(adb: Adb, spec: Nfa, cap=None) -> Verdict:
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
