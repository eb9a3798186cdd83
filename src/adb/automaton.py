"""The delay-block automaton data model: structural validation, runs,
acceptance, output semantics, and the stamped-alphabet regular view."""

from __future__ import annotations

import re
from functools import cached_property
from typing import FrozenSet, Iterable, NamedTuple, Tuple

from . import regular
from .errors import (
    InvalidStep,
    InvalidSymbol,
    MissingStart,
    ReservedSymbol,
    UnknownLocation,
)
from .words import (
    EPS,
    RESERVED,
    TICK,
    Label,
    Out,
    TimedWord,
    check_symbol,
    label_key,
    oword,
)

# Location names are free-form whitespace-delimited tokens; `$` is used by
# the language constructions to mint fresh names.
_LOCATION_RE = re.compile(r"\S+\Z")

Transition = Tuple[str, Label, str]


def _is_name(x) -> bool:
    """Whether ``x`` is a location name: one whitespace-free token."""
    return isinstance(x, str) and _LOCATION_RE.match(x) is not None


def check_location(name: str) -> str:
    if not _is_name(name):
        raise UnknownLocation(name)
    return name


class Adb(NamedTuple("Adb", [
    ("locations", FrozenSet[str]),
    ("alphabet", FrozenSet[str]),
    ("start", str),
    ("accepting", FrozenSet[str]),
    ("transitions", FrozenSet[Transition]),
])):
    """An automaton with per-transition output delays.

    Instances are immutable; build them through :func:`validate_adb` (or the
    text-format parser) so the structural invariants hold.  The class keeps
    an instance ``__dict__`` (no ``__slots__``) for its cached indexes.
    """

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to Adb.%s" % name)

    @cached_property
    def max_delay(self) -> int:
        """Largest delay on any output transition (0 when there is none)."""
        return max(
            (lab.delay for _, lab, _ in self.transitions if isinstance(lab, Out)),
            default=0,
        )

    @cached_property
    def _edges_by_src(self):
        index = {loc: [] for loc in self.locations}
        for src, lab, dst in sorted(
            self.transitions, key=lambda t: (t[0], label_key(t[1]), t[2])
        ):
            index[src].append((lab, dst))
        return {src: tuple(edges) for src, edges in index.items()}

    def edges_from(self, loc: str) -> Tuple[Tuple[Label, str], ...]:
        try:
            return self._edges_by_src[loc]
        except KeyError:
            raise UnknownLocation(loc) from None


def validate_adb(
    locations: Iterable[str],
    alphabet: Iterable[str],
    start: str,
    accepting: Iterable[str],
    transitions: Iterable[Transition],
) -> Adb:
    """Check every structural invariant and return the immutable automaton.

    ``locations`` may contain duplicates only by mistake; they are rejected
    rather than collapsed so that text-format typos surface early.
    """
    loc_set = regular._distinct(map(check_location, locations))

    alpha = set()
    for sym in alphabet:
        if sym in RESERVED:
            raise ReservedSymbol(sym)
        alpha.add(check_symbol(sym))

    if not start:
        raise MissingStart()
    acc = regular._known(loc_set, start, accepting)

    trans = set()
    for i, (src, lab, dst) in enumerate(transitions):
        if src not in loc_set:
            raise UnknownLocation(src)
        if dst not in loc_set:
            raise UnknownLocation(dst)
        if isinstance(lab, Out):
            if lab.symbol not in alpha:
                raise InvalidSymbol(lab.symbol)
        elif lab is not EPS and lab is not TICK:
            raise InvalidStep(i)
        trans.add((src, lab, dst))

    return Adb(frozenset(loc_set), frozenset(alpha), start, acc, frozenset(trans))


class Run:
    """A path ``l0 --a0--> l1 --a1--> ... ln`` through an automaton.

    Not a tuple: its length is the number of steps."""

    __slots__ = ("start", "steps")

    def __init__(self, start: str, steps: Tuple[Tuple[Label, str], ...] = ()):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "steps", steps)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to Run.%s" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete Run.%s" % name)

    def __reduce__(self):  # __setattr__ blocks the default slot restore
        return Run, (self.start, self.steps)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.start, self.steps) == (other.start, other.steps)

    def __hash__(self):
        return hash((self.start, self.steps))

    def __repr__(self):
        return "Run(start=%r, steps=%r)" % (self.start, self.steps)

    def __len__(self):
        return len(self.steps)

    @property
    def end(self) -> str:
        return self.steps[-1][1] if self.steps else self.start

    def labels(self) -> Tuple[Label, ...]:
        return tuple(lab for lab, _ in self.steps)

    def locations(self) -> Tuple[str, ...]:
        return (self.start,) + tuple(loc for _, loc in self.steps)


def check_run(adb: Adb, run: Run) -> None:
    """Raise ``InvalidStep`` unless every step of ``run`` is a transition."""
    here = run.start
    if here not in adb.locations:
        raise UnknownLocation(here)
    for i, (lab, nxt) in enumerate(run.steps):
        if (here, lab, nxt) not in adb.transitions:
            raise InvalidStep(i)
        here = nxt


def is_accepting_run(adb: Adb, run: Run) -> bool:
    """True iff ``run`` is step-valid, starts at the start location, and ends
    in an accepting location."""
    check_run(adb, run)
    return run.start == adb.start and run.end in adb.accepting


def run_output(adb: Adb, run: Run) -> TimedWord:
    """The timed word generated by a step-valid run."""
    check_run(adb, run)
    return oword(run.labels())


def reg_view(adb: Adb) -> "regular.Nfa":
    """Reinterpret the automaton as an NFA over delay-stamped letters.

    Output transitions become letters ``(symbol, delay)``, ticks become the
    letter ``"tick"``, and eps transitions stay epsilon.  Timed-language
    equality ``lan(A) = oword(rlan(A))`` holds by construction.
    """
    m = adb.max_delay
    letters = {(sym, t) for sym in adb.alphabet for t in range(m + 1)}
    letters.add("tick")
    transitions = set()
    for src, lab, dst in adb.transitions:
        if isinstance(lab, Out):
            transitions.add((src, (lab.symbol, lab.delay), dst))
        elif lab is TICK:
            transitions.add((src, "tick", dst))
        else:
            transitions.add((src, None, dst))
    return regular.Nfa(
        states=adb.locations,
        alphabet=frozenset(letters),
        start=adb.start,
        accepting=adb.accepting,
        transitions=frozenset(transitions),
    )
