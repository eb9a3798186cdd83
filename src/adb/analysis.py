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

    At clock ``c`` (the ticks taken) a state is ``(loc, counts)``: an
    automaton location and ``m+1`` consumption counts, one per open time slot
    ``c .. c+m``, packed into one int in base ``b``, one more than the most
    letters any slot holds, with digit ``i`` for slot ``c+i``.  Here m is the
    largest delay, or the final timestamp if that is smaller: a longer delay
    lands past the word.  Memory follows the word and one clock's states.

    An output with delay d <= m must match the next unconsumed letter of slot
    ``c+d`` (digit d), and adds ``b**d``; it and eps keep the clock.  A tick
    needs slot ``c`` to be full (digit 0), then floor-divides by ``b`` to
    shift the window, passing its state to clock ``c+1``.  One past the final
    timestamp every slot is empty and a tick keeps the clock, which keeps the
    search finite across eps/tick cycles.  A state accepts when its location
    is accepting, the window reaches the final timestamp and every slot in it
    is full: the outputs still pending then surface exactly as the word's
    remaining letters.  The empty word needs no special case."""
    w = validate_timed_word(w)
    for sym, _ in w:
        if sym not in adb.alphabet:
            raise UnknownSymbol(sym)
    t_end = w[-1][1] if w else -1
    m = min(adb.max_delay, max(t_end, 0))
    # each stamped slot's letters, then None, read by an output once full
    slots = {
        t: tuple(sym for sym, _ in letters) + (None,)
        for t, letters in groupby(w, itemgetter(1))
    }
    b = max(map(len, slots.values()), default=1)
    power = [b**d for d in range(m + 1)]

    accepting, edges_from = adb.accepting, adb.edges_from
    clock, found = 0, 1
    seen = {(adb.start, 0): None}
    while True:
        window = [slots.get(clock + d, (None,)) for d in range(m + 1)]
        size = len(window[0]) - 1
        full = None
        if clock + m >= t_end:
            full = sum((len(s) - 1) * p for s, p in zip(window, power))
        # the next clock's states; past the final stamp a tick keeps the clock
        last = clock > t_end
        ticked = seen if last else {}
        frontier = list(seen)
        for loc, counts in frontier:
            if loc in accepting and counts == full:
                return True
            for label, dst in edges_from(loc):
                into = seen
                if label is EPS:
                    state = (dst, counts)
                elif label is TICK:
                    if counts % b != size:
                        continue
                    state, into = (dst, counts // b), ticked
                else:
                    sym, d = label
                    if d > m or window[d][counts // power[d] % b] != sym:
                        continue
                    state = (dst, counts + power[d])
                if state not in into:
                    into[state] = None
                    found += 1
                    if found > cap:
                        raise BoundExceeded(cap)
                    if into is seen:
                        frontier.append(state)
        if last or not ticked:
            return False
        clock, seen = clock + 1, ticked


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
    return _search(adb, single_word_nfa(u, adb.alphabet), True, cap) is not None


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
