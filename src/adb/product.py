"""Relation product of a delay automaton with a regular spec, and the
breadth-first search that decides every regular-spec question.

A state is ``(loc, current, pending)``: the set of eps-free spec states
reached on the letters of the closed time slots and of the current slot so
far, and the letters queued for the future slots ``clock+1, ...`` as
``(offset, relation)`` pairs in offset order, one spec relation ``{(p, q)}``
per slot that does not hold the identity; a slot left out holds the
identity, so no state is sized by the largest delay.  A delay-0 output
steps ``current``; delay d > 0 composes the relation at offset d with the
letter.  A tick maps ``current`` through the relation at offset 1 and
shifts the offsets down.  At an accepting location the pending slots
flush, so the spec states the run's untimed output reaches are ``current``
composed with every relation.  Edges into locations that cannot reach an
accepting one are never taken.

Spec states are the state numbers of a :class:`~adb.regular.SpecTable`, so
a set is a frozenset of ints and a relation a frozenset of int pairs.  The
search prepares its own table and memoizes delay-0 steps per letter, and the
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
    if adb.alphabet - spec.alphabet:
        raise IncompatibleAlphabet(
            "spec alphabet is missing %s" % sorted(adb.alphabet - spec.alphabet)
        )


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
    edges_from, final = adb.edges_from, adb.accepting
    identity, after = table.identity, table.after
    steps = {symbol: {} for symbol in adb.alphabet}  # after(), per letter and set
    compose, image, spec_final = table.compose, table.image, table.accepting

    def accepts(current, pending) -> bool:
        for _, relation in pending:
            current = image(current, relation)
        return bool(current & spec_final) == hit

    start = (adb.start, frozenset({table.start}), ())
    parent = {start: None}
    goal = start if start[0] in final and accepts(*start[1:]) else None
    frontier = [start]
    for ps in frontier:
        if goal is not None:
            break
        loc, current, pending = ps
        for label, dst in edges_from(loc):
            if dst not in live:
                continue
            cur, pend = current, pending
            if label is TICK:
                if pend:
                    if pend[0][0] == 1:
                        cur = image(cur, pend[0][1])
                        pend = pend[1:]
                    pend = tuple([(k - 1, relation) for k, relation in pend])
            elif label is not EPS:
                symbol, d = label
                if d == 0:
                    memo = steps[symbol]
                    cur = memo.get(current)
                    if cur is None:
                        cur = memo[current] = after(current, symbol)
                else:
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
            parent[nxt] = (ps, label)
            if len(parent) > cap:
                raise BoundExceeded(cap)
            frontier.append(nxt)
            if dst in final and accepts(cur, pend):
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
