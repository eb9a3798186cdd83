"""Timed and untimed word algebra, transition labels, and the output-word
evaluation that turns a label sequence into a timed word.

Conventions used throughout the package:

* a symbol is a plain ``str`` drawn from a restricted character set
  (``tick`` and ``eps`` are reserved and never valid symbols);
* a timed word is a tuple of ``(symbol, timestamp)`` pairs with
  non-decreasing timestamps;
* an untimed word is a tuple of symbols;
* a transition label is :class:`Out`, :data:`EPS` or :data:`TICK`.

Text forms: timed words are whitespace-separated ``sym@t`` tokens, untimed
words whitespace-separated symbols, and label sequences ``sym/d`` / ``tick``
/ ``eps`` tokens.  The empty string denotes the empty word everywhere.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DecreasingTimestamp, InvalidSymbol, ParseError

TimedLetter = Tuple[str, int]
TimedWord = Tuple[TimedLetter, ...]
UntimedWord = Tuple[str, ...]

RESERVED = frozenset({"tick", "eps"})
_SYMBOL_RE = re.compile(r"[A-Za-z0-9_#\-]+\Z")


def check_symbol(name: str) -> str:
    """Validate a symbol name, returning it unchanged."""
    if not isinstance(name, str) or not _SYMBOL_RE.match(name):
        raise InvalidSymbol(name)
    if name in RESERVED:
        raise InvalidSymbol(name)
    return name


class Out(NamedTuple("Out", [("symbol", str), ("delay", int)])):
    """Output label: emit ``symbol`` after ``delay`` time units."""

    __slots__ = ()

    def __new__(cls, symbol: str, delay: int):
        check_symbol(symbol)
        if not isinstance(delay, int):
            raise TypeError("delay must be an int, got %r" % (delay,))
        if delay < 0:
            raise ValueError("delay must be nonnegative")
        return super().__new__(cls, symbol, delay)

    def __repr__(self):
        return "Out(%s/%d)" % (self.symbol, self.delay)


class _Marker:
    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name

    def __reduce__(self):  # copy and pickle resolve the module-level singleton
        return self._name


EPS = _Marker("EPS")
TICK = _Marker("TICK")

Label = Union[Out, _Marker]
LabelSequence = Tuple[Label, ...]


def label_key(label: Label):
    """Deterministic sort key over labels (outputs, then eps, then tick)."""
    if isinstance(label, Out):
        return (0, label.symbol, label.delay)
    if label is EPS:
        return (1, "", 0)
    return (2, "", 0)


def untime(w: Sequence[TimedLetter]) -> UntimedWord:
    """Project a timed word onto its symbol sequence."""
    return tuple(sym for sym, _ in w)


def shift(w: Sequence[TimedLetter], delta: int) -> TimedWord:
    """Advance every timestamp of ``w`` by ``delta`` time units."""
    if delta < 0:
        raise ValueError("shift must be nonnegative")
    return tuple((sym, t + delta) for sym, t in w)


def kappa(u: Sequence[str], t: int) -> TimedWord:
    """Stamp every symbol of the untimed word ``u`` with time ``t``."""
    if t < 0:
        raise ValueError("timestamp must be nonnegative")
    return tuple((sym, t) for sym in u)


def rep(w: Sequence, i: int) -> tuple:
    """``w`` repeated ``i`` times (the empty sequence for ``i == 0``)."""
    if i < 0:
        raise ValueError("repetition count must be nonnegative")
    return tuple(w) * i


def oword(labels: Iterable[Label]) -> TimedWord:
    """Evaluate a transition-label sequence to its timed output word.

    A running clock starts at 0; eps labels are skipped, each tick advances
    the clock, and an output label stamps its symbol with clock + delay.
    The stamped letters are then stable-sorted by timestamp, so letters that
    surface at the same time keep their generation order.
    """
    stamped = []
    now = 0
    for label in labels:
        if label is EPS:
            continue
        if label is TICK:
            now += 1
        else:
            stamped.append((label.symbol, now + label.delay))
    stamped.sort(key=lambda letter: letter[1])  # list.sort is stable
    return tuple(stamped)


def validate_timed_word(letters: Sequence[TimedLetter]) -> TimedWord:
    """Check letter validity and non-decreasing int timestamps.  Each
    distinct symbol is checked once, at its first occurrence."""
    prev, known = 0, set()
    for i, (sym, t) in enumerate(letters):
        if type(sym) is not str or sym not in known:  # a list does not hash
            known.add(check_symbol(sym))
        if not isinstance(t, int):
            raise TypeError("timestamp must be an int, got %r" % (t,))
        if t < prev:
            raise DecreasingTimestamp(i)
        prev = t
    return tuple(letters)


# ---------------------------------------------------------------------------
# text forms


def _decimal(text: str) -> Optional[int]:
    """A number token's value: one or more ASCII digits.  ``-`` then digits
    (``-0`` too) gives -1, for the caller to report as negative; any other
    text gives None."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return -1 if text[0] == "-" else int(text)
    except ValueError:  # more digits than ``int`` converts
        return None


def _pair(token: str, sep: str, expected: str, noun: str) -> Tuple[str, int]:
    """Read a ``sym<sep>n`` token as ``(sym, n)``.  The number is checked
    before the symbol; ``expected`` and ``noun`` word the errors."""
    sym, found, number = token.partition(sep)
    if not found or not number:
        raise ParseError("expected %s, got %r" % (expected, token))
    n = _decimal(number)
    if n is None:
        raise ParseError("bad %s in %r" % (noun, token))
    if n < 0:
        raise ParseError("negative %s in %r" % (noun, token))
    try:
        return check_symbol(sym), n
    except InvalidSymbol:
        raise ParseError("bad symbol in %r" % token) from None


def parse_timed_word(text: str) -> TimedWord:
    """Parse ``sym@t`` tokens.  A malformed token is reported before an
    earlier decreasing timestamp."""
    letters = [_pair(token, "@", "sym@t token", "timestamp") for token in text.split()]
    try:
        return validate_timed_word(letters)
    except DecreasingTimestamp as exc:
        raise ParseError("timestamps decrease at letter %d" % exc.index) from None


def format_timed_word(w: Sequence[TimedLetter]) -> str:
    return " ".join("%s@%d" % (sym, t) for sym, t in w)


def parse_untimed_word(text: str) -> UntimedWord:
    symbols = []
    for token in text.split():
        try:
            check_symbol(token)
        except InvalidSymbol:
            raise ParseError("bad symbol %r" % token) from None
        symbols.append(token)
    return tuple(symbols)


def format_untimed_word(u: Sequence[str]) -> str:
    return " ".join(u)


def parse_labels(text: str) -> LabelSequence:
    labels = []
    for token in text.split():
        if token == "tick":
            labels.append(TICK)
        elif token == "eps":
            labels.append(EPS)
        else:
            labels.append(Out(*_pair(token, "/", "sym/d, tick or eps", "delay")))
    return tuple(labels)


def format_label(label: Label) -> str:
    if label is EPS:
        return "eps"
    if label is TICK:
        return "tick"
    return "%s/%d" % (label.symbol, label.delay)


def format_labels(labels: Iterable[Label]) -> str:
    return " ".join(format_label(label) for label in labels)
