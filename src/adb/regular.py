"""Classical NFA machinery: validation, epsilon closure and elimination,
membership by subset simulation, and single-word NFAs.

Letters are arbitrary hashable values (the stamped-alphabet view of a delay
automaton uses ``(symbol, delay)`` tuples and the string ``"tick"``); an
epsilon transition carries the letter ``None``.
"""

from __future__ import annotations

from functools import cached_property
from typing import FrozenSet, Hashable, Iterable, NamedTuple, Sequence, Tuple

from .errors import UnknownLocation, UnknownSymbol

NfaTransition = Tuple[Hashable, Hashable, Hashable]  # (src, letter-or-None, dst)


class Nfa(NamedTuple("Nfa", [
    ("states", FrozenSet),
    ("alphabet", FrozenSet),
    ("start", Hashable),
    ("accepting", FrozenSet),
    ("transitions", FrozenSet[NfaTransition]),
])):
    """An immutable NFA; like ``Adb``, it keeps an instance ``__dict__`` for
    its cached indexes."""

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to Nfa.%s" % name)

    @cached_property
    def _eps_index(self):
        index = {}
        for src, letter, dst in self.transitions:
            if letter is None:
                index.setdefault(src, set()).add(dst)
        return index

    @cached_property
    def _letter_index(self):
        index = {}
        for src, letter, dst in self.transitions:
            if letter is not None:
                index.setdefault((src, letter), set()).add(dst)
        return index

    def step(self, state, letter) -> frozenset:
        return frozenset(self._letter_index.get((state, letter), ()))


def validate_nfa(states, alphabet, start, accepting, transitions) -> Nfa:
    """Check endpoint and letter validity, then freeze."""
    state_set = frozenset(states)
    alpha = frozenset(alphabet)
    if start not in state_set:
        raise UnknownLocation(start)
    acc = frozenset(accepting)
    for s in acc - state_set:
        raise UnknownLocation(s)
    trans = set()
    for src, letter, dst in transitions:
        if src not in state_set:
            raise UnknownLocation(src)
        if dst not in state_set:
            raise UnknownLocation(dst)
        if letter is not None and letter not in alpha:
            raise UnknownSymbol(letter)
        trans.add((src, letter, dst))
    return Nfa(state_set, alpha, start, acc, frozenset(trans))


def eps_closure(nfa: Nfa, states: Iterable) -> frozenset:
    """Least superset of ``states`` closed under epsilon transitions."""
    closure = set(states)
    stack = list(closure)
    index = nfa._eps_index
    while stack:
        s = stack.pop()
        for t in index.get(s, ()):
            if t not in closure:
                closure.add(t)
                stack.append(t)
    return frozenset(closure)


def eliminate_eps(nfa: Nfa) -> Nfa:
    """Epsilon-free NFA over the same state set accepting the same language."""
    letter_edges = {}
    for src, letter, dst in nfa.transitions:
        if letter is not None:
            letter_edges.setdefault(src, []).append((letter, dst))
    transitions = set()
    accepting = set()
    for s in nfa.states:
        closure = eps_closure(nfa, {s})
        if closure & nfa.accepting:
            accepting.add(s)
        for q in closure:
            for letter, dst in letter_edges.get(q, ()):
                transitions.add((s, letter, dst))
    return Nfa(nfa.states, nfa.alphabet, nfa.start, frozenset(accepting),
               frozenset(transitions))


def nfa_member(nfa: Nfa, word: Sequence) -> bool:
    """Standard subset simulation (epsilon transitions honored)."""
    current = eps_closure(nfa, {nfa.start})
    for letter in word:
        if letter not in nfa.alphabet:
            raise UnknownSymbol(letter)
        nxt = set()
        for s in current:
            nxt |= nfa.step(s, letter)
        current = eps_closure(nfa, nxt)
        if not current:
            return False
    return bool(current & nfa.accepting)


def single_word_nfa(word: Sequence, alphabet: Iterable) -> Nfa:
    """A chain NFA whose language is exactly ``{word}``."""
    alpha = frozenset(alphabet)
    for letter in word:
        if letter not in alpha:
            raise UnknownSymbol(letter)
    states = frozenset(range(len(word) + 1))
    transitions = frozenset(
        (i, letter, i + 1) for i, letter in enumerate(word)
    )
    return Nfa(states, alpha, 0, frozenset({len(word)}), transitions)
