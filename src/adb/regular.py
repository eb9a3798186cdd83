"""Classical NFA machinery: validation, epsilon closure, membership by
subset simulation, single-word NFAs, and the ``SpecTable`` that both
intersection products read.

Letters are arbitrary hashable values (the stamped-alphabet view of a delay
automaton uses ``(symbol, delay)`` tuples and the string ``"tick"``); an
epsilon transition carries the letter ``None``.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable, NamedTuple, Sequence, Tuple

from .errors import DuplicateLocation, UnknownLocation, UnknownSymbol

NfaTransition = Tuple[Hashable, Hashable, Hashable]  # (src, letter-or-None, dst)


class Nfa(NamedTuple):
    """An immutable NFA."""

    states: FrozenSet
    alphabet: FrozenSet
    start: Hashable
    accepting: FrozenSet
    transitions: FrozenSet[NfaTransition]


def _distinct(names) -> set:
    """The set of ``names``; ``DuplicateLocation`` at the first repeat."""
    seen = set()
    for name in names:
        if name in seen:
            raise DuplicateLocation(name)
        seen.add(name)
    return seen


def _known(names, start, accepting) -> frozenset:
    """Frozen ``accepting``; ``UnknownLocation`` for the first unknown name."""
    if start not in names:
        raise UnknownLocation(start)
    acc = tuple(accepting)
    for name in acc:
        if name not in names:
            raise UnknownLocation(name)
    return frozenset(acc)


def validate_nfa(states, alphabet, start, accepting, transitions) -> Nfa:
    """Check repeats, endpoints and letters, then freeze, as ``validate_adb`` does."""
    state_set = _distinct(states)
    alpha = frozenset(alphabet)
    acc = _known(state_set, start, accepting)
    trans = set()
    for src, letter, dst in transitions:
        if src not in state_set:
            raise UnknownLocation(src)
        if dst not in state_set:
            raise UnknownLocation(dst)
        if letter is not None and letter not in alpha:
            raise UnknownSymbol(letter)
        trans.add((src, letter, dst))
    return Nfa(frozenset(state_set), alpha, start, acc, frozenset(trans))


def _edges(nfa: Nfa):
    """The eps successors of each state, and the letter successors of each
    (state, letter) pair."""
    eps, letters = {}, {}
    for src, letter, dst in nfa.transitions:
        if letter is None:
            eps.setdefault(src, []).append(dst)
        else:
            letters.setdefault((src, letter), []).append(dst)
    return eps, letters


def _close(successors, states: Iterable) -> frozenset:
    closure = set(states)
    stack = list(closure)
    while stack:
        for t in successors.get(stack.pop(), ()):
            if t not in closure:
                closure.add(t)
                stack.append(t)
    return frozenset(closure)


def eps_closure(nfa: Nfa, states: Iterable) -> frozenset:
    """Least superset of ``states`` closed under epsilon transitions."""
    return _close(_edges(nfa)[0], states)


class SpecTable:
    """An NFA prepared for both intersection products: its states are
    numbered ``0 .. n-1`` in ``names`` order, sorted by ``repr``, and its eps
    transitions are folded into the letter steps: a state accepts when its
    eps closure does, and steps on a letter wherever a state of its closure
    does.

    A set of spec states is a frozenset of state numbers and a relation a
    frozenset of number pairs.  ``compose`` is memoized per (relation,
    letter) and ``image`` per (set, relation), so equal inputs share one
    result object."""

    def __init__(self, nfa: Nfa):
        self.names = tuple(sorted(nfa.states, key=repr))
        n = len(self.names)
        index = {s: i for i, s in enumerate(self.names)}
        # Bitmasks per state, for acceptance and for each letter the states
        # one letter on; propagating them backwards along eps edges until
        # none grows gives the values of the eps closures.
        accept = [1 if s in nfa.accepting else 0 for s in self.names]
        rows, preds = {}, {}
        for src, letter, dst in nfa.transitions:
            if letter is None:
                preds.setdefault(index[dst], []).append(index[src])
            else:
                if letter not in rows:
                    rows[letter] = [0] * n
                rows[letter][index[src]] |= 1 << index[dst]
        work = list(preds)
        while work:
            t = work.pop()
            for s in preds.get(t, ()):
                grew = False
                for row in (accept, *rows.values()):
                    if row[t] & ~row[s]:
                        row[s] |= row[t]
                        grew = True
                if grew:
                    work.append(s)
        self.start = index[nfa.start]
        self.accepting = frozenset(i for i in range(n) if accept[i])
        self.identity = frozenset((q, q) for q in range(n))
        self._rows = rows
        self._composed = {}
        self._images = {}

    def after(self, states: Iterable[int], letter) -> FrozenSet[int]:
        """The states one ``letter`` after any of ``states``."""
        row = self._rows.get(letter)
        mask = 0
        if row is not None:
            for q in states:
                mask |= row[q]
        if not mask & (mask - 1):  # no state or one
            return frozenset((mask.bit_length() - 1,)) if mask else frozenset()
        members = []
        while mask:
            low = mask & -mask
            members.append(low.bit_length() - 1)
            mask ^= low
        return frozenset(members)

    def compose(self, relation: FrozenSet, letter) -> FrozenSet:
        """``{(p, r)}`` for every ``(p, q)`` in ``relation`` and every ``r``
        one ``letter`` after ``q``."""
        key = (relation, letter)
        result = self._composed.get(key)
        if result is None:
            result = self._composed[key] = frozenset(
                (p, r) for p, q in relation for r in self.after((q,), letter)
            )
        return result

    def image(self, states: FrozenSet[int], relation: FrozenSet) -> FrozenSet[int]:
        """``{q}`` for every ``(p, q)`` in ``relation`` with ``p`` in ``states``."""
        key = (states, relation)
        result = self._images.get(key)
        if result is None:
            result = self._images[key] = frozenset(
                q for p, q in relation if p in states
            )
        return result


def _check_letters(word: Iterable, alphabet) -> None:
    """``UnknownSymbol`` for the first letter of ``word`` not in ``alphabet``."""
    for letter in word:
        if letter not in alphabet:
            raise UnknownSymbol(letter)


def nfa_member(nfa: Nfa, word: Sequence) -> bool:
    """Standard subset simulation (epsilon transitions honored)."""
    _check_letters(word, nfa.alphabet)
    eps, letters = _edges(nfa)
    current = _close(eps, {nfa.start})
    for letter in word:
        current = _close(
            eps, [t for s in current for t in letters.get((s, letter), ())])
        if not current:
            return False
    return bool(current & nfa.accepting)


def single_word_nfa(word: Sequence, alphabet: Iterable) -> Nfa:
    """A chain NFA whose language is exactly ``{word}``."""
    alpha = frozenset(alphabet)
    _check_letters(word, alpha)
    states = frozenset(range(len(word) + 1))
    transitions = frozenset(
        (i, letter, i + 1) for i, letter in enumerate(word)
    )
    return Nfa(states, alpha, 0, frozenset({len(word)}), transitions)
