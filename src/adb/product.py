"""Relation product of a delay automaton with a regular spec, and the
breadth-first search that decides every regular-spec question.

A state is ``(loc, current, pending)``: the set of eps-free spec states
reached on the letters of the closed time slots and of the current slot so
far, and one spec relation ``{(p, q)}`` per future slot ``clock+1 ..
clock+M`` (M being the largest delay) for the letters queued there.  A
delay-0 output steps ``current``; delay d > 0 composes slot d's relation
with the letter.  A tick maps ``current`` through the first relation,
shifts the rest down and opens the newest slot with the identity.  At an
accepting location the pending slots flush, so the spec states the run's
untimed output reaches are ``current`` composed with every relation.
Edges into locations that cannot reach an accepting one are never taken.

Spec states are the state numbers of a :class:`~adb.regular.SpecTable`, so
a set is a frozenset of ints and a relation a frozenset of int pairs.  The
table memoizes every step, composition and image, so a search computes each
one once and equal sets are shared objects, which compare by identity.
"""

from __future__ import annotations

import os
from typing import FrozenSet, Iterator, NamedTuple, Tuple

from .automaton import Adb
from .errors import BoundExceeded, IncompatibleAlphabet
from .regular import Nfa, SpecTable
from .words import EPS, TICK, Label

DEFAULT_STATE_CAP = 10**6


def state_cap() -> int:
    return int(os.environ.get("ADB_MAX_STATES", DEFAULT_STATE_CAP))


def check_alphabet(adb: Adb, spec: Nfa) -> None:
    """Raise ``IncompatibleAlphabet`` unless the spec reads every symbol the
    automaton can output."""
    if adb.alphabet - spec.alphabet:
        raise IncompatibleAlphabet(
            "spec alphabet is missing %s" % sorted(adb.alphabet - spec.alphabet)
        )


class RelationState(NamedTuple):
    loc: str
    current: FrozenSet  # spec states after the closed slots and this one
    pending: Tuple[FrozenSet, ...]  # M spec relations, slot clock+1 first


class RelationProduct:
    """Lazy successors.  With ``hit`` a state accepts when the output can
    end in an accepting spec state (intersection, membership); without, when
    it cannot (a counterexample to containment)."""

    def __init__(self, adb: Adb, spec: Nfa, hit: bool = True):
        check_alphabet(adb, spec)
        self.adb = adb
        self.table = SpecTable(spec)
        self.hit = hit
        # Locations that can still reach an accepting one: a shortest
        # accepting path never leaves them.
        preds = {}
        for src, _, dst in adb.transitions:
            preds.setdefault(dst, []).append(src)
        self.live = set(adb.accepting)
        stack = list(self.live)
        while stack:
            for src in preds.get(stack.pop(), ()):
                if src not in self.live:
                    self.live.add(src)
                    stack.append(src)

    def initial_state(self) -> RelationState:
        return RelationState(self.adb.start, frozenset({self.table.start}),
                             (self.table.identity,) * self.adb.max_delay)

    def successors(self, ps: RelationState) -> Iterator[Tuple[Label, RelationState]]:
        table, live, hit = self.table, self.live, self.hit
        for label, dst in self.adb.edges_from(ps.loc):
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
                    current = table.step(current, symbol)
                else:
                    relation = table.compose(pending[d - 1], symbol)
                    if hit and not relation:
                        continue  # the image is empty from here on
                    pending = pending[:d - 1] + (relation,) + pending[d:]
            if hit and not current:
                continue
            yield label, RelationState(dst, current, pending)

    def is_accepting(self, ps: RelationState) -> bool:
        if ps.loc not in self.adb.accepting:
            return False
        image = ps.current
        for relation in ps.pending:
            image = self.table.image(image, relation)
        return bool(image & self.table.accepting) == self.hit


def search_accepting(product: RelationProduct, cap=None):
    """BFS for an accepting product state.

    Returns ``(path, visited_count)``: a shortest accepting path as a tuple
    of ``(label, state)`` steps out of the initial state (``None`` when there
    is none), and the number of states reached plus one fresh start state,
    as the explicit construction counts its ``$init`` location.
    """
    if cap is None:
        cap = state_cap()
    parent, frontier = {}, []

    def reached(ps, step) -> bool:
        parent[ps] = step
        frontier.append(ps)
        if len(parent) >= cap:  # with the fresh start state, past the cap
            raise BoundExceeded(cap)
        return product.is_accepting(ps)

    start = product.initial_state()
    goal = start if reached(start, None) else None
    for ps in frontier:
        if goal is not None:
            break
        for label, nxt in product.successors(ps):
            if nxt not in parent and reached(nxt, (ps, label)):
                goal = nxt
                break
    if goal is None:
        return None, len(parent) + 1
    path = []
    while parent[goal] is not None:
        prev, label = parent[goal]
        path.append((label, goal))
        goal = prev
    return tuple(reversed(path)), len(parent) + 1
