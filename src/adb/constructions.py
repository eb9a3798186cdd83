"""Language constructions: the regular lift, union, concatenation, Kleene
star, and the explicit intersection product with a regular specification.

The intersection product is the paper's guess-tuple construction: a state
holds the automaton location, the spec position of the current slot and of
each of the next M slots, and M guessed slot-start positions.  A tick needs
the current slot at its guess, shifts every component one slot down and
appends a fresh agreeing (position, guess) pair.

Union, concatenation and star work on disjoint renamed copies of their
inputs (locations of copy k are prefixed ``k$``); chain locations minted by
concatenation and star are named ``<accepting>$tick$<k>``, and a minted
name already in use gets primes (``'``) appended.  Every construction
output passes structural validation.
"""

from __future__ import annotations

import itertools

from .automaton import Adb, _is_name, validate_adb
from .errors import BoundExceeded
from .product import DEFAULT_STATE_CAP, _live, check_alphabet
from .regular import Nfa, SpecTable
from .words import EPS, TICK, Out


def _renamed(adb: Adb, prefix: str):
    """Location-renamed copy of the automaton's pieces."""
    name = lambda loc: prefix + loc
    return (
        {name(loc) for loc in adb.locations},
        name(adb.start),
        {name(loc) for loc in adb.accepting},
        [(name(s), lab, name(d)) for s, lab, d in adb.transitions],
    )


def _fresh(name: str, taken) -> str:
    """``name`` with primes appended until it is not in ``taken``."""
    while name in taken:
        name += "'"
    return name


def lift_regular(nfa: Nfa) -> Adb:
    """View an NFA as a delay automaton: letters become zero-delay outputs,
    epsilon transitions stay, and no ticks are introduced.  A state that is
    not a location name is named ``q<repr>`` without its whitespace, primed
    if that name is in use."""
    names = {s: s for s in nfa.states if _is_name(s)}
    taken = set(names)
    for s in sorted(nfa.states - taken, key=repr):
        names[s] = _fresh("q" + "".join(repr(s).split()), taken)
        taken.add(names[s])
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


def _flush(finals, ticks, target, tail, locations):
    """From each accepting location, in sorted order, ``ticks`` ticks through
    fresh ``<final>$tick$<k>`` locations (added to ``locations``), then
    ``tail`` into ``target``: long enough for every pending output to
    surface before ``target`` runs."""
    transitions = []
    for final in sorted(finals):
        # named in one expression: a chain too long for memory fails there,
        # and is freed before the error is reported
        path = [final] + [_fresh("%s$tick$%d" % (final, k), locations)
                          for k in range(1, ticks + 1)]
        locations.update(path[1:])
        transitions += [(a, TICK, b) for a, b in zip(path, path[1:])]
        transitions.append((path[-1], tail, target))
    return transitions


def concat(a1: Adb, a2: Adb) -> Adb:
    """Concatenation: from every accepting location of the first copy, a
    chain of max-delay-many ticks (flushing all pending outputs) followed by
    an epsilon into the second copy's start.  Only the second copy's
    accepting locations remain accepting."""
    locs1, start1, acc1, trans1 = _renamed(a1, "1$")
    locs2, start2, acc2, trans2 = _renamed(a2, "2$")
    locations = locs1 | locs2
    transitions = trans1 + trans2 + _flush(acc1, a1.max_delay, start2, EPS, locations)
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
    m = adb.max_delay
    transitions = trans + [(start, EPS, start_copy)] + _flush(
        acc, max(m - 1, 0), start, TICK if m else EPS, locations)
    return validate_adb(locations, adb.alphabet, start, {start}, transitions)


def intersect_regular(adb: Adb, spec: Nfa, cap=DEFAULT_STATE_CAP) -> Adb:
    """The explicit intersection product automaton.

    A product location is ``(loc, slots, guesses)``: the automaton location,
    the M+1 spec positions of the current slot and the next M, and the M
    guessed slot-start positions.  The fresh initial location's eps fan
    enters one location per guess tuple, each future slot starting at its
    guess; guess tuples are enumerated there and at each tick, never
    materialized up front.  A location accepts when its automaton location
    and last slot accept and every other slot ended at the next one's
    guess.  Only locations reachable from the initial one are materialized,
    and ``cap`` counts every one of them; the result then keeps only the
    locations on an accepting path, and ``$init`` always.  The untimed
    language of the result is the intersection of the automaton's untimed
    language with the spec NFA's language.
    """
    check_alphabet(adb, spec)
    table = SpecTable(spec)
    m = adb.max_delay
    # spec positions are the table's state numbers; a location names a
    # state by itself when it is a location name, else by its number
    spec_names = [s if _is_name(s) else "r%d" % i for i, s in enumerate(table.names)]
    spec_states = range(len(spec_names))

    init = "$init"
    locations = {init}
    transitions = []
    accepting = set()
    seen = {}
    frontier = []

    def visit(ps):
        name = seen.get(ps)
        if name is None:
            loc, slots, guesses = ps
            name = seen[ps] = _fresh("%s|%s|%s" % (
                loc, ",".join([spec_names[s] for s in slots]),
                ",".join([spec_names[s] for s in guesses])), locations)
            locations.add(name)
            if len(locations) > cap:
                raise BoundExceeded(cap)
            if (loc in adb.accepting and slots[-1] in table.accepting
                    and slots[:m] == guesses):
                accepting.add(name)
            frontier.append(ps)
        return name

    for guesses in itertools.product(spec_states, repeat=m):
        ps = (adb.start, (table.start,) + guesses, guesses)
        transitions.append((init, EPS, visit(ps)))
    for ps in frontier:
        src = seen[ps]
        loc, slots, guesses = ps
        for label, dst in adb.edges_from(loc):
            if label is EPS or (label is TICK and m == 0):
                transitions.append((src, label, visit((dst, slots, guesses))))
            elif label is TICK:
                if slots[0] == guesses[0]:
                    for fresh in spec_states:
                        nxt = (dst, slots[1:] + (fresh,), guesses[1:] + (fresh,))
                        transitions.append((src, label, visit(nxt)))
            else:
                symbol, d = label
                for q in sorted(table.after((slots[d],), symbol)):
                    nxt = (dst, slots[:d] + (q,) + slots[d + 1:], guesses)
                    transitions.append((src, label, visit(nxt)))

    # keep $init and the locations on an accepting path; a transition into
    # one of those starts at one of them, as nothing enters $init
    live = _live(transitions, accepting)
    transitions = [t for t in transitions if t[2] in live]
    return validate_adb(live | {init}, adb.alphabet, init, accepting, transitions)
