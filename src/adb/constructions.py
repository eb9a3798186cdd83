"""Language constructions: the regular lift, union, concatenation, Kleene
star, and the explicit intersection product with a regular specification.

The intersection product is the paper's guess-tuple construction: a state
holds the automaton location, the spec position of the current slot and of
each of the next M slots, and M guessed slot-start positions.  A tick needs
the current slot at its guess, shifts every component one slot down and
appends a fresh agreeing (position, guess) pair.

Union, concatenation and star work on disjoint renamed copies of their
inputs (locations of copy k are prefixed ``k$``); chain locations minted by
concatenation and star are named ``<accepting>$tick$<k>``.  Every
construction output passes structural validation.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Tuple

from .automaton import Adb, validate_adb
from .errors import BoundExceeded
from .product import check_alphabet, state_cap
from .regular import Nfa, eliminate_eps
from .words import EPS, TICK, Label, Out


def _renamed(adb: Adb, prefix: str):
    """Location-renamed copy of the automaton's pieces."""
    name = lambda loc: prefix + loc
    transitions = [(name(s), lab, name(d)) for s, lab, d in adb.sorted_transitions]
    return (
        {name(loc) for loc in adb.locations},
        name(adb.start),
        {name(loc) for loc in adb.accepting},
        transitions,
    )


def lift_regular(nfa: Nfa) -> Adb:
    """View an NFA as a delay automaton: letters become zero-delay outputs,
    epsilon transitions stay, and no ticks are introduced."""
    names = {s: s if isinstance(s, str) else "q%r" % (s,) for s in nfa.states}
    transitions = []
    for src, letter, dst in nfa.transitions:
        label = EPS if letter is None else Out(letter, 0)
        transitions.append((names[src], label, names[dst]))
    return validate_adb(
        names.values(),
        nfa.alphabet,
        names[nfa.start],
        {names[s] for s in nfa.accepting},
        transitions,
    )


def union(a1: Adb, a2: Adb) -> Adb:
    """Fresh start with epsilon transitions into disjoint copies of both
    inputs; generates the union of the two timed languages."""
    locs1, start1, acc1, trans1 = _renamed(a1, "1$")
    locs2, start2, acc2, trans2 = _renamed(a2, "2$")
    start = "$u"
    transitions = trans1 + trans2 + [(start, EPS, start1), (start, EPS, start2)]
    return validate_adb(
        locs1 | locs2 | {start},
        a1.alphabet | a2.alphabet,
        start,
        acc1 | acc2,
        transitions,
    )


def _tick_chain(src, chain_names, dst, tail_label):
    """Transitions src -tick-> c1 -tick-> ... -tick-> cn, then tail to dst."""
    transitions = []
    here = src
    for node in chain_names:
        transitions.append((here, TICK, node))
        here = node
    transitions.append((here, tail_label, dst))
    return transitions


def concat(a1: Adb, a2: Adb) -> Adb:
    """Concatenation: from every accepting location of the first copy, a
    chain of max-delay-many ticks (flushing all pending outputs) followed by
    an epsilon into the second copy's start.  Only the second copy's
    accepting locations remain accepting."""
    locs1, start1, acc1, trans1 = _renamed(a1, "1$")
    locs2, start2, acc2, trans2 = _renamed(a2, "2$")
    m = a1.max_delay
    locations = locs1 | locs2
    transitions = trans1 + trans2
    for final in sorted(acc1):
        chain = ["%s$tick$%d" % (final, k) for k in range(1, m + 1)]
        locations.update(chain)
        transitions += _tick_chain(final, chain, start2, EPS)
    return validate_adb(
        locations, a1.alphabet | a2.alphabet, start1, acc2, transitions
    )


def star(adb: Adb) -> Adb:
    """Kleene star: a fresh accepting start location, an epsilon into a copy
    of the input, and from each accepting copy location a chain of
    max-delay-many ticks back to the fresh start (a direct epsilon when the
    largest delay is zero)."""
    locs, start_copy, acc, trans = _renamed(adb, "1$")
    start = "$star"
    locations = locs | {start}
    transitions = trans + [(start, EPS, start_copy)]
    m = adb.max_delay
    for final in sorted(acc):
        if m == 0:
            transitions.append((final, EPS, start))
        else:
            chain = ["%s$tick$%d" % (final, k) for k in range(1, m)]
            locations.update(chain)
            transitions += _tick_chain(final, chain, start, TICK)
    return validate_adb(locations, adb.alphabet, start, {start}, transitions)


class ProductState(NamedTuple):
    loc: str
    slots: Tuple  # M+1 spec positions, current slot first
    guesses: Tuple  # M guessed slot-start positions


class ProductExplorer:
    """Lazy successor generation over the product's reachable states.

    Guess tuples are enumerated on demand (at the initial fan and at each
    tick), never materialized up front.
    """

    def __init__(self, adb: Adb, spec: Nfa):
        check_alphabet(adb, spec)
        self.adb = adb
        self.spec = eliminate_eps(spec)
        self.delay_bound = adb.max_delay
        self.spec_states = tuple(sorted(self.spec.states, key=repr))

    def initial_states(self) -> Iterator[ProductState]:
        """The epsilon fan out of the fresh initial state: one product state
        per guess tuple, with each future slot starting at its guess."""
        m = self.delay_bound
        for guesses in itertools.product(self.spec_states, repeat=m):
            yield ProductState(self.adb.start, (self.spec.start,) + guesses, guesses)

    def successors(self, ps: ProductState) -> Iterator[Tuple[Label, ProductState]]:
        m = self.delay_bound
        for label, dst in self.adb.edges_from(ps.loc):
            if isinstance(label, Out):
                slot = ps.slots[label.delay]
                for nxt in sorted(self.spec.step(slot, label.symbol), key=repr):
                    slots = (
                        ps.slots[: label.delay] + (nxt,) + ps.slots[label.delay + 1 :]
                    )
                    yield label, ProductState(dst, slots, ps.guesses)
            elif label is EPS:
                yield label, ProductState(dst, ps.slots, ps.guesses)
            else:  # tick
                if m == 0:
                    yield label, ProductState(dst, ps.slots, ps.guesses)
                elif ps.slots[0] == ps.guesses[0]:
                    for fresh in self.spec_states:
                        yield label, ProductState(
                            dst,
                            ps.slots[1:] + (fresh,),
                            ps.guesses[1:] + (fresh,),
                        )

    def is_accepting(self, ps: ProductState) -> bool:
        if ps.loc not in self.adb.accepting:
            return False
        if ps.slots[-1] not in self.spec.accepting:
            return False
        return all(ps.slots[j] == ps.guesses[j] for j in range(self.delay_bound))


def _encode(ps, spec_names) -> str:
    return "%s|%s|%s" % (
        ps.loc,
        ",".join(spec_names[s] for s in ps.slots),
        ",".join(spec_names[s] for s in ps.guesses),
    )


def intersect_regular(adb: Adb, spec: Nfa, cap=None) -> Adb:
    """The explicit intersection product automaton.

    Only states reachable from the fresh initial location are materialized.
    The untimed language of the result is the intersection of the
    automaton's untimed language with the spec NFA's language.
    """
    if cap is None:
        cap = state_cap()
    explorer = ProductExplorer(adb, spec)
    spec_names = {
        s: s if isinstance(s, str) else "r%d" % i
        for i, s in enumerate(explorer.spec_states)
    }

    init = "$init"
    locations = {init}
    transitions = []
    accepting = set()
    seen = {}
    frontier = []

    def visit(ps):
        name = seen.get(ps)
        if name is None:
            name = _encode(ps, spec_names)
            seen[ps] = name
            locations.add(name)
            if len(locations) > cap:
                raise BoundExceeded(cap)
            if explorer.is_accepting(ps):
                accepting.add(name)
            frontier.append(ps)
        return name

    for ps in explorer.initial_states():
        transitions.append((init, EPS, visit(ps)))
    index = 0
    while index < len(frontier):
        ps = frontier[index]
        index += 1
        src = seen[ps]
        for label, nxt in explorer.successors(ps):
            transitions.append((src, label, visit(nxt)))

    return validate_adb(locations, adb.alphabet, init, accepting, transitions)
