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
a set is a frozenset of ints and a relation a frozenset of int pairs.  The
search numbers each spec side ``(current, pending)`` the first time it
reaches it and decides the side's acceptance then, numbers the locations in
the order it reaches them, and holds a state as the int ``number * L + i``
for side ``number`` at location ``i`` of ``L``.  Each label's step is
memoized per side number, one dict per label; eps keeps the number, and so
does a tick with nothing pending.  The table memoizes compositions and
images, so a search computes each one once and equal sets are shared
objects, which compare by identity.
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
    identity, after = table.identity, table.after
    compose, image, spec_final = table.compose, table.image, table.accepting
    final, n_locs = adb.accepting, len(adb.locations)
    names, index = [adb.start], {adb.start: 0}  # numbered as first reached
    # per location number, once expanded: (label, its steps or None for eps,
    # the target's number, whether it accepts) for each edge into a live one
    moves = [None]
    steps = {}  # per label: spec side number -> successor's number, or -1
    sides, numbers, accepts = [], {}, []

    def number(current, pending) -> int:
        """The spec side's number; a new side's acceptance is found once."""
        side = (current, pending)
        n = numbers.get(side)
        if n is None:
            n = numbers[side] = len(sides)
            sides.append(side)
            for _, relation in pending:
                current = image(current, relation)
            accepts.append(bool(current & spec_final) == hit)
        return n

    # a state is its spec side's number times n_locs plus its location's number
    start = number(frozenset({table.start}), ()) * n_locs
    parent = {start: None}
    goal = start if adb.start in final and accepts[0] else None
    frontier = [start]
    for state in frontier:
        if goal is not None:
            break
        n, i = divmod(state, n_locs)
        out = moves[i]
        if out is None:
            out = moves[i] = []
            for label, dst in adb.edges_from(names[i]):
                if dst in live:
                    j = index.setdefault(dst, len(names))
                    if j == len(names):
                        names.append(dst)
                        moves.append(None)
                    memo = None if label is EPS else steps.setdefault(label, {})
                    out.append((label, memo, j, dst in final))
        for label, memo, j, accepting in out:
            m = n
            if memo is not None:
                m = memo.get(n)
            if m is None:
                current, pending = sides[n]
                if label is TICK:
                    if pending:
                        if pending[0][0] == 1:
                            current = image(current, pending[0][1])
                            pending = pending[1:]
                        pending = tuple([(k - 1, relation) for k, relation in pending])
                else:
                    symbol, d = label
                    if d == 0:
                        current = after(current, symbol)
                    else:
                        k = 0
                        while k < len(pending) and pending[k][0] < d:
                            k += 1
                        end = k + (k < len(pending) and pending[k][0] == d)
                        relation = compose(pending[k][1] if end > k else identity,
                                           symbol)
                        if hit and not relation:  # the image is empty from here on
                            current = relation  # so the side is pruned below
                        entry = () if relation == identity else ((d, relation),)
                        pending = pending[:k] + entry + pending[end:]
                m = memo[n] = -1 if hit and not current else number(current, pending)
            if m < 0:
                continue
            nxt = m * n_locs + j
            if nxt in parent:
                continue
            parent[nxt] = (state, label)
            if len(parent) > cap:
                raise BoundExceeded(cap)
            frontier.append(nxt)
            if accepting and accepts[m]:
                goal = nxt
                break
    if goal is None:
        return None, len(parent)
    path = []
    while parent[goal] is not None:
        prev, label = parent[goal]
        path.append((label, names[goal % n_locs]))
        goal = prev
    return tuple(reversed(path)), len(parent)
