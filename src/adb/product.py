"""Relation product of a delay automaton with a regular spec, and the
breadth-first search that decides every regular-spec question.

A state is a location and a spec side ``(current, pending)``: the set of
eps-free spec states reached on the letters of the closed time slots and of
the current slot so far, and the letters queued for the future slots
``clock+1, ...`` as ``(offset, relation)`` pairs in offset order, one spec
relation ``{(p, q)}`` per slot that does not hold the identity; a slot left
out holds the identity, so no state is sized by the largest delay.  A
delay-0 output steps ``current``; delay d > 0 composes the relation at
offset d with the letter.  A tick maps ``current`` through the relation at
offset 1 and shifts the offsets down.  At an accepting location the pending
slots flush, so the spec states the run's untimed output reaches are
``current`` composed with every relation.  Edges into locations that cannot
reach an accepting one are never taken.

Spec states are the state numbers of a :class:`~adb.regular.SpecTable`, so
a set is a frozenset of ints and a relation a frozenset of int pairs, and a
product state is the tuple ``(location, current, pending)``.  Each
location's edges into live locations are listed on its first expansion,
each delay-0 output with its letter's step memo, keyed by ``current``.  The
table memoizes compositions and images, so a search computes each one once
and equal sets are shared objects, which compare by identity.
"""

from __future__ import annotations

from .automaton import Adb
from .errors import BoundExceeded, IncompatibleAlphabet
from .regular import Nfa, SpecTable, _close
from .words import EPS, TICK

DEFAULT_STATE_CAP = 10**6


def check_alphabet(adb: Adb, spec: Nfa) -> None:
    """Raise ``IncompatibleAlphabet`` unless the spec reads every symbol the
    automaton can output."""
    if missing := adb.alphabet - spec.alphabet:
        raise IncompatibleAlphabet(sorted(missing))


def _live(transitions, accepting) -> frozenset:
    """The locations that can still reach an accepting one over
    ``transitions``: no accepting run leaves them."""
    preds = {}
    for src, _, dst in transitions:
        preds.setdefault(dst, []).append(src)
    return _close(preds, accepting)


def search_accepting(adb: Adb, spec: Nfa, hit: bool = True, cap=DEFAULT_STATE_CAP):
    """BFS for an accepting product state.  With ``hit`` a state accepts
    when the output can end in an accepting spec state (intersection,
    membership); without, when it cannot (a counterexample to containment).

    Returns ``(path, visited_count)``: a shortest accepting path as a tuple
    of ``(label, location)`` steps out of the start, the steps of a
    :class:`~adb.automaton.Run` (``None`` when there is none), and the
    number of states reached.  Raises ``BoundExceeded`` once the search
    would hold more than ``cap`` states.
    """
    check_alphabet(adb, spec)
    table, live = SpecTable(spec), _live(adb.transitions, adb.accepting)
    identity, after = table.identity, table.after
    compose, image, spec_final = table.compose, table.image, table.accepting
    final = adb.accepting
    steps = {}  # per letter: current set -> the set one delay-0 output on
    # per location, once expanded: (label, its letter's steps for a delay-0
    # output or None, target, whether it accepts) per edge into a live one
    moves = {}

    def accepts(current, pending) -> bool:
        for _, relation in pending:
            current = image(current, relation)
        return bool(current & spec_final) == hit

    start = (adb.start, frozenset({table.start}), ())
    parent = {start: None}
    goal = start if adb.start in final and accepts(start[1], ()) else None
    frontier = [start]
    for state in frontier:
        if goal is not None:
            break
        loc, current, pending = state
        out = moves.get(loc)
        if out is None:
            out = moves[loc] = []
            for label, dst in adb.edges_from(loc):
                if dst in live:
                    instant = label is not EPS and label is not TICK and not label[1]
                    memo = steps.setdefault(label[0], {}) if instant else None
                    out.append((label, memo, dst, dst in final))
        for label, memo, dst, accepting in out:
            cur, pend = current, pending
            if memo is not None:
                cur = memo.get(current)
                if cur is None:
                    cur = memo[current] = after(current, label[0])
            elif label is TICK:
                if pend:
                    if pend[0][0] == 1:
                        cur = image(cur, pend[0][1])
                        pend = pend[1:]
                    pend = tuple([(k - 1, relation) for k, relation in pend])
            elif label is not EPS:
                symbol, d = label
                i = 0
                while i < len(pend) and pend[i][0] < d:
                    i += 1
                j = i + (i < len(pend) and pend[i][0] == d)
                relation = compose(pend[i][1] if j > i else identity, symbol)
                if hit and not relation:
                    continue  # the image is empty from here on
                entry = () if relation == identity else ((d, relation),)
                pend = pend[:i] + entry + pend[j:]
            if hit and not cur:
                continue
            nxt = (dst, cur, pend)
            if nxt in parent:
                continue
            parent[nxt] = (state, label)
            if len(parent) > cap:
                raise BoundExceeded(cap)
            frontier.append(nxt)
            if accepting and accepts(cur, pend):
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
