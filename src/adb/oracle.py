"""Brute-force reference implementations used as differential test oracles,
plus the run-pumping decomposition."""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator, NamedTuple, Set, Tuple

from .automaton import Adb, Run, is_accepting_run, run_output
from .errors import BoundExceeded, DecreasingTimestamp, WindowTooShort
from .product import DEFAULT_STATE_CAP
from .regular import _check_letters
from .words import EPS, Out, TimedWord, rep, untime, validate_timed_word


def enumerate_accepting_runs(
    adb: Adb, max_transitions: int, cap=DEFAULT_STATE_CAP
) -> Iterator[Run]:
    """All accepting runs with at most ``max_transitions`` transitions, in
    depth-first order.  Raises ``BoundExceeded`` past the path cap."""
    count = 0
    stack = [(adb.start, ())]
    while stack:
        loc, steps = stack.pop()
        count += 1
        if count > cap:
            raise BoundExceeded(cap)
        if loc in adb.accepting:
            yield Run(adb.start, steps)
        if len(steps) < max_transitions:
            for label, dst in reversed(adb.edges_from(loc)):
                stack.append((dst, steps + ((label, dst),)))


def language_sample(adb: Adb, max_transitions: int,
                    cap=DEFAULT_STATE_CAP) -> Set[TimedWord]:
    """Timed words generated by runs of at most ``max_transitions``
    transitions; a finite under-approximation of the output language."""
    return {
        run_output(adb, run)
        for run in enumerate_accepting_runs(adb, max_transitions, cap)
    }


def untimed_sample(adb: Adb, max_transitions: int,
                   cap=DEFAULT_STATE_CAP) -> Set[Tuple[str, ...]]:
    return {untime(w) for w in language_sample(adb, max_transitions, cap)}


def brute_member_timed(adb: Adb, w: TimedWord, cap=DEFAULT_STATE_CAP) -> bool:
    """Timed membership by exhaustive run search.

    A search state is (location, ticks taken, consumption counts, one per
    timestamp that carries letters).  Outputs must match the next unconsumed
    letter of their target timestamp; ticks beyond the final timestamp are
    collapsed, which keeps the state space finite even across eps/tick
    cycles.  Accept whenever an accepting location is reached with the whole
    word consumed."""
    w = validate_timed_word(w)
    _check_letters(untime(w), adb.alphabet)
    t_end = w[-1][1] if w else -1
    index, segments = {}, []  # timestamp -> its position; letters per position
    for sym, t in w:
        if t not in index:
            index[t] = len(segments)
            segments.append([])
        segments[index[t]].append(sym)
    full = tuple(len(seg) for seg in segments)

    start = (adb.start, 0, (0,) * len(segments))
    seen = {start}
    queue = deque([start])
    while queue:
        loc, ticks, consumed = queue.popleft()
        if loc in adb.accepting and consumed == full:
            return True
        for label, dst in adb.edges_from(loc):
            if isinstance(label, Out):
                i = index.get(ticks + label.delay)
                if i is None or consumed[i] >= full[i]:
                    continue
                if segments[i][consumed[i]] != label.symbol:
                    continue
                state = (
                    dst,
                    ticks,
                    consumed[:i] + (consumed[i] + 1,) + consumed[i + 1:],
                )
            elif label is EPS:
                state = (dst, ticks, consumed)
            else:
                state = (dst, min(ticks + 1, t_end + 1), consumed)
            if state not in seen:
                seen.add(state)
                if len(seen) > cap:
                    raise BoundExceeded(cap)
                queue.append(state)
    return False


class PumpDecomposition(NamedTuple):
    """``run = prefix . side0 . pump . side1 . suffix`` with the window
    covering ``side0 . pump . side1`` and ``pump`` a loop on one location."""

    start: str
    prefix: Tuple
    side0: Tuple
    pump: Tuple
    side1: Tuple
    suffix: Tuple


def pump_decompose(adb: Adb, run: Run, window: Tuple[int, int]) -> PumpDecomposition:
    """Find a pumpable loop of at most |locations| transitions inside the
    half-open transition-index ``window`` of an accepting run."""
    if not is_accepting_run(adb, run):
        raise ValueError("run is not an accepting run of the automaton")
    lo, hi = window
    if not (0 <= lo <= hi <= len(run.steps)):
        raise ValueError("window out of range")
    bound = len(adb.locations)
    if hi - lo < bound:
        raise WindowTooShort(bound, hi - lo)

    locs = run.locations()
    first_at = {locs[lo]: lo}
    for j in range(lo + 1, hi + 1):
        if locs[j] in first_at:
            i = first_at[locs[j]]
            return PumpDecomposition(
                start=run.start,
                prefix=run.steps[:lo],
                side0=run.steps[lo:i],
                pump=run.steps[i:j],
                side1=run.steps[j:hi],
                suffix=run.steps[hi:],
            )
        first_at[locs[j]] = j
    raise AssertionError("pigeonhole guarantees a repeat inside the window")


def pump(adb: Adb, dec: PumpDecomposition, i: int) -> Run:
    """The run with the loop repeated ``i`` times; accepting for every
    ``i >= 0``."""
    steps = dec.prefix + dec.side0 + rep(dec.pump, i) + dec.side1 + dec.suffix
    return Run(dec.start, steps)


def random_mutations(
    w: TimedWord, alphabet, count: int, seed: int = 0
) -> Iterator[TimedWord]:
    """Up to ``count`` random single-letter mutations of ``w`` (symbol swap,
    timestamp nudge, letter deletion) that are still valid timed words.
    Deterministic for a fixed seed."""
    if not w:
        return
    rng = random.Random(seed)
    symbols = sorted(alphabet)
    produced = 0
    attempts = 0
    while produced < count and attempts < 20 * count:
        attempts += 1
        i = rng.randrange(len(w))
        kind = rng.choice(("symbol", "stamp", "delete"))
        if kind == "symbol":
            letters = list(w)
            letters[i] = (rng.choice(symbols), letters[i][1])
        elif kind == "stamp":
            letters = list(w)
            sym, t = letters[i]
            t += rng.choice((-1, 1))
            if t < 0:
                continue
            letters[i] = (sym, t)
        else:
            letters = list(w[:i] + w[i + 1:])
        try:
            yield validate_timed_word(letters)
        except DecreasingTimestamp:
            continue
        produced += 1
