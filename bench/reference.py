"""Reference semantics for checking the verdicts of ``adb``.

Nothing here imports ``adb``: every verdict the benchmark accepts is checked
against this file's own parser, output evaluation and decision procedures.

Automata are plain tuples.  A delay automaton is ``Aut(alphabet, locations,
start, accept, edges)`` with edges ``(src, kind, symbol, delay, dst)`` where
``kind`` is ``"out"``, ``"tick"`` or ``"eps"``.  An NFA is ``Nfa(alphabet,
states, start, accept, trans)`` with transitions ``(src, symbol, dst)`` and
``symbol`` ``None`` for eps.

The untimed decisions use a relation product: a state is the automaton
location, the set ``S`` of spec states reached by the letters of every
closed time slot and of the current slot, and one spec relation per future
slot (``R_1..R_M``, the pairs ``(p, q)`` such that the slot's letters so far
lead the spec from ``p`` to ``q``).  At an accepting location the pending
slots are flushed, so the spec states reached by the run's untimed output
are ``S`` composed with ``R_1..R_M``.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple


class Aut(NamedTuple):
    alphabet: tuple
    locations: tuple
    start: str
    accept: tuple
    edges: tuple  # (src, kind, symbol, delay, dst)

    @property
    def max_delay(self):
        return max((e[3] for e in self.edges if e[1] == "out"), default=0)


class Nfa(NamedTuple):
    alphabet: tuple
    states: tuple
    start: str
    accept: tuple
    trans: tuple  # (src, symbol-or-None, dst)


class Undecided(Exception):
    """The reference search passed its own state limit."""


# ---------------------------------------------------------------------------
# text formats


def _rows(text):
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line.split()


def _head(rows, keyword):
    tokens = next(rows)
    if tokens[0] != keyword:
        raise ValueError("expected %s section, got %r" % (keyword, tokens[0]))
    return tuple(tokens[1:])


def read_adb(text):
    rows = _rows(text)
    alphabet = _head(rows, "alphabet")
    locations = _head(rows, "locations")
    (start,) = _head(rows, "start")
    accept = _head(rows, "accept")
    edges = []
    for tokens in rows:
        if tokens[0] != "trans":
            raise ValueError("expected trans line")
        if tokens[3] == "out":
            edges.append((tokens[1], "out", tokens[4], int(tokens[5]), tokens[2]))
        else:
            edges.append((tokens[1], tokens[3], None, 0, tokens[2]))
    return Aut(alphabet, locations, start, accept, tuple(edges))


def read_nfa(text):
    rows = _rows(text)
    alphabet = _head(rows, "alphabet")
    states = _head(rows, "states")
    (start,) = _head(rows, "start")
    accept = _head(rows, "accept")
    trans = []
    for tokens in rows:
        symbol = tokens[4] if tokens[3] == "on" else None
        trans.append((tokens[1], symbol, tokens[2]))
    return Nfa(alphabet, states, start, accept, tuple(trans))


def write_adb(aut):
    lines = [
        "alphabet " + " ".join(aut.alphabet),
        "locations " + " ".join(aut.locations),
        "start " + aut.start,
        ("accept " + " ".join(aut.accept)).rstrip(),
    ]
    for src, kind, sym, delay, dst in aut.edges:
        if kind == "out":
            lines.append("trans %s %s out %s %d" % (src, dst, sym, delay))
        else:
            lines.append("trans %s %s %s" % (src, dst, kind))
    return "\n".join(lines) + "\n"


def write_nfa(nfa):
    lines = [
        "alphabet " + " ".join(nfa.alphabet),
        "states " + " ".join(nfa.states),
        "start " + nfa.start,
        ("accept " + " ".join(nfa.accept)).rstrip(),
    ]
    for src, sym, dst in nfa.trans:
        if sym is None:
            lines.append("trans %s %s eps" % (src, dst))
        else:
            lines.append("trans %s %s on %s" % (src, dst, sym))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output evaluation


def stamp_sort(labels):
    """Timed output of a label sequence: stamp each output with the clock
    plus its delay, then stable-sort by stamp."""
    stamped = []
    now = 0
    for kind, sym, delay in labels:
        if kind == "tick":
            now += 1
        elif kind == "out":
            stamped.append((sym, now + delay))
    stamped.sort(key=lambda letter: letter[1])
    return stamped


# ---------------------------------------------------------------------------
# NFA simulation over bit sets


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Spec:
    """An NFA compiled to bit masks: ``step(S, a)`` is the eps-closed image
    of the state set ``S`` under letter ``a``."""

    def __init__(self, nfa):
        self.index = {s: i for i, s in enumerate(nfa.states)}
        n = len(nfa.states)
        eps = [0] * n
        letter = {}
        for src, sym, dst in nfa.trans:
            i, j = self.index[src], self.index[dst]
            if sym is None:
                eps[i] |= 1 << j
            else:
                row = letter.setdefault(sym, [0] * n)
                row[i] |= 1 << j
        self.closure = []
        for i in range(n):
            seen = 1 << i
            todo = [i]
            while todo:
                for j in _bits(eps[todo.pop()] & ~seen):
                    seen |= 1 << j
                    todo.append(j)
            self.closure.append(seen)
        self.moves = {
            sym: [self.close(row[i]) for i in range(n)] for sym, row in letter.items()
        }
        self.start = self.closure[self.index[nfa.start]]
        self.accept = 0
        for s in nfa.accept:
            self.accept |= 1 << self.index[s]
        self.identity = tuple(self.closure)
        self._image = {}

    def close(self, mask):
        out = 0
        for i in _bits(mask):
            out |= self.closure[i]
        return out

    def step(self, mask, sym):
        key = (mask, sym)
        hit = self._image.get(key)
        if hit is None:
            moves = self.moves.get(sym)
            hit = 0
            if moves is not None:
                for i in _bits(mask):
                    hit |= moves[i]
            self._image[key] = hit
        return hit

    def through(self, mask, relation):
        out = 0
        for i in _bits(mask):
            out |= relation[i]
        return out

    def accepts(self, word):
        mask = self.start
        for sym in word:
            mask = self.step(mask, sym)
            if not mask:
                return False
        return bool(mask & self.accept)


def chain_nfa(word, alphabet):
    states = tuple("p%d" % i for i in range(len(word) + 1))
    trans = tuple((states[i], sym, states[i + 1]) for i, sym in enumerate(word))
    return Nfa(tuple(alphabet), states, states[0], (states[-1],), trans)


# ---------------------------------------------------------------------------
# untimed decisions


def _out_edges(aut):
    index = {loc: [] for loc in aut.locations}
    for src, kind, sym, delay, dst in aut.edges:
        index[src].append((kind, sym, delay, dst))
    return index


def find_run(aut, nfa, want_inside, limit=200_000):
    """Search the relation product for an accepting run whose untimed output
    is in the spec language (``want_inside``) or outside it.  Returns the
    run's labels, or ``None`` when no such run exists."""
    spec = Spec(nfa)
    m = aut.max_delay
    edges = _out_edges(aut)
    accept = frozenset(aut.accept)
    start = (aut.start, spec.start, (spec.identity,) * m)
    parent = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        loc, mask, rels = state
        if loc in accept:
            image = mask
            for rel in rels:
                image = spec.through(image, rel)
            if bool(image & spec.accept) == want_inside:
                labels = []
                while parent[state] is not None:
                    state, label = parent[state]
                    labels.append(label)
                return labels[::-1]
        for kind, sym, delay, dst in edges[loc]:
            if kind == "eps":
                nxt = (dst, mask, rels)
            elif kind == "tick":
                if m:
                    nxt = (dst, spec.through(mask, rels[0]), rels[1:] + (spec.identity,))
                else:
                    nxt = (dst, mask, rels)
            elif delay == 0:
                nxt = (dst, spec.step(mask, sym), rels)
            else:
                rel = tuple(spec.step(row, sym) for row in rels[delay - 1])
                nxt = (dst, mask, rels[: delay - 1] + (rel,) + rels[delay:])
            if nxt not in parent:
                parent[nxt] = (state, (kind, sym, delay))
                if len(parent) > limit:
                    raise Undecided("relation product passed %d states" % limit)
                queue.append(nxt)
    return None


def untimed_output(labels):
    return [sym for sym, _ in stamp_sort(labels)]


def contained(aut, nfa, limit=200_000):
    """True when every untimed output of the automaton is in the spec."""
    return find_run(aut, nfa, want_inside=False, limit=limit) is None


def member_untimed(aut, word, limit=200_000):
    return find_run(aut, chain_nfa(word, aut.alphabet), True, limit) is not None


def intersects(aut, nfa, limit=200_000):
    return find_run(aut, nfa, want_inside=True, limit=limit) is not None


# ---------------------------------------------------------------------------
# timed membership


def member_timed(aut, word, limit=2_000_000):
    """Search over (location, clock, per-slot consumption counts for the
    clock's slot and the next M).  An output must match the next unread
    letter of its slot; a tick needs the clock's slot fully read.  Clocks
    past the last stamp are clamped, which keeps the search finite."""
    horizon = word[-1][1] if word else -1
    segs = [[] for _ in range(horizon + 1)]
    for sym, t in word:
        segs[t].append(sym)
    sizes = [len(seg) for seg in segs]
    m = aut.max_delay
    edges = _out_edges(aut)
    accept = frozenset(aut.accept)

    def size(t):
        return sizes[t] if t <= horizon else 0

    def done(t, counts):
        if t + m < horizon:
            return False
        return all(counts[j] == size(t + j) for j in range(m + 1))

    start = (aut.start, 0, (0,) * (m + 1))
    seen = {start}
    queue = deque([start])
    while queue:
        loc, t, counts = queue.popleft()
        if loc in accept and done(t, counts):
            return True
        for kind, sym, delay, dst in edges[loc]:
            if kind == "eps":
                nxt = (dst, t, counts)
            elif kind == "tick":
                if counts[0] != size(t):
                    continue
                nxt = (dst, min(t + 1, horizon + 1), counts[1:] + (0,))
            else:
                slot = t + delay
                k = counts[delay]
                if slot > horizon or k >= sizes[slot] or segs[slot][k] != sym:
                    continue
                nxt = (dst, t, counts[:delay] + (k + 1,) + counts[delay + 1:])
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > limit:
                    raise Undecided("timed search passed %d states" % limit)
                queue.append(nxt)
    return False


# ---------------------------------------------------------------------------
# emptiness and runs


def reachable_accept(aut):
    """True when some accepting location is reachable from the start."""
    edges = _out_edges(aut)
    seen = {aut.start}
    todo = [aut.start]
    while todo:
        loc = todo.pop()
        if loc in aut.accept:
            return True
        for _, _, _, dst in edges[loc]:
            if dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return False


def is_path(aut, locations):
    """True when consecutive locations are joined by some transition."""
    pairs = {(src, dst) for src, _, _, _, dst in aut.edges}
    return all(pair in pairs for pair in zip(locations, locations[1:]))


def dfa_size(nfa):
    """Reachable subsets of the spec's subset construction, the empty sink
    included: the size of the complemented spec model checking searches."""
    spec = Spec(nfa)
    seen = {spec.start}
    todo = [spec.start]
    while todo:
        mask = todo.pop()
        for sym in nfa.alphabet:
            nxt = spec.step(mask, sym)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen) + (0 not in seen)
