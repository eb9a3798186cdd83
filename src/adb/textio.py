"""Line-oriented text formats for delay automata and NFAs.

Automaton files carry fixed-order sections::

    alphabet <sym> ...
    locations <name> ...          (``states`` for NFA files)
    start <name>
    accept <name> ...             (possibly empty)
    trans <src> <dst> out <sym> <delay>   |   trans <src> <dst> eps
    trans <src> <dst> tick                |   trans <src> <dst> on <sym>

Blank lines are skipped and a line whose first token starts the line with
``#`` is a comment (``#`` elsewhere is an ordinary symbol character).
Printing is deterministic and ``parse(print(a))`` is structurally equal to
``a``.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Tuple

from .automaton import Adb, validate_adb
from .errors import AdbError, ParseError
from .regular import Nfa, validate_nfa
from .words import EPS, TICK, Out, _decimal, label_key


def _out_label(tokens, lineno) -> Out:
    delay = _decimal(tokens[5])
    if delay is None:
        raise ParseError("bad delay %r" % tokens[5], lineno)
    if delay < 0:
        raise ParseError("negative delay", lineno)
    try:
        return Out(tokens[4], delay)
    except AdbError as exc:
        raise ParseError(str(exc), lineno) from None


def _adb_text(label) -> str:
    if isinstance(label, Out):
        return "out %s %d" % (label.symbol, label.delay)
    return "eps" if label is EPS else "tick"


class _Format(NamedTuple):
    header: str  # second section's keyword, also the attribute it lists
    noun: str  # one item of that section, for messages
    build: Callable  # validating constructor
    # transition keyword -> (token count, label from tokens and line number,
    # message when the count is wrong)
    forms: dict
    label_key: Callable  # print order of labels
    label_text: Callable  # a label's tokens after ``trans <src> <dst>``


# The builders look ``validate_adb``/``validate_nfa`` up when called, so a
# wrapper later bound to those module names (a tracer, a mock) sees the call.
_MALFORMED = "malformed transition"
_ADB = _Format(
    "locations", "location", lambda *fields: validate_adb(*fields),
    {
        "out": (6, _out_label, "out transition needs symbol and delay"),
        "eps": (4, lambda tokens, lineno: EPS, _MALFORMED),
        "tick": (4, lambda tokens, lineno: TICK, _MALFORMED),
    },
    label_key, _adb_text,
)
_NFA = _Format(
    "states", "state", lambda *fields: validate_nfa(*fields),
    {
        "on": (5, lambda tokens, lineno: tokens[4], _MALFORMED),
        "eps": (4, lambda tokens, lineno: None, _MALFORMED),
    },
    lambda letter: (letter is None, letter or ""),
    lambda letter: "eps" if letter is None else "on %s" % (letter,),
)
_FORMATS = {fmt.header: fmt for fmt in (_ADB, _NFA)}


def _sections(text: str) -> List[Tuple[int, List[str]]]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped.split()))
    return rows


def _header(rows, index, keyword):
    if index >= len(rows):
        raise ParseError("missing %r section" % keyword)
    lineno, tokens = rows[index]
    if tokens[0] != keyword:
        raise ParseError("expected %r section" % keyword, lineno)
    return tokens[1:]


def _parse(rows, fmt: _Format):
    alphabet = _header(rows, 0, "alphabet")
    names = _header(rows, 1, fmt.header)
    start = _header(rows, 2, "start")
    accepting = _header(rows, 3, "accept")
    if len(start) != 1:
        raise ParseError(
            "start section needs exactly one %s" % fmt.noun, rows[2][0]
        )

    transitions = []
    forms = fmt.forms
    for lineno, tokens in rows[4:]:
        if tokens[0] != "trans":
            raise ParseError("expected trans line, got %r" % tokens[0], lineno)
        form = forms.get(tokens[3]) if len(tokens) >= 4 else None
        if form is None:
            raise ParseError(_MALFORMED, lineno)
        count, make_label, message = form
        if len(tokens) != count:
            raise ParseError(message, lineno)
        transitions.append((tokens[1], make_label(tokens, lineno), tokens[2]))

    try:
        return fmt.build(names, alphabet, start[0], accepting, transitions)
    except AdbError as exc:
        raise ParseError(str(exc)) from None


def _print(auto, fmt: _Format) -> str:
    lines = [
        "alphabet " + " ".join(sorted(auto.alphabet)),
        fmt.header + " " + " ".join(sorted(getattr(auto, fmt.header))),
        "start " + auto.start,
        ("accept " + " ".join(sorted(auto.accepting))).rstrip(),
    ]
    key, text = fmt.label_key, fmt.label_text
    for src, label, dst in sorted(
        auto.transitions, key=lambda t: (t[0], key(t[1]), t[2])
    ):
        lines.append("trans %s %s %s" % (src, dst, text(label)))
    return "\n".join(lines) + "\n"


def parse_adb(text: str) -> Adb:
    return _parse(_sections(text), _ADB)


def print_adb(adb: Adb) -> str:
    return _print(adb, _ADB)


def parse_nfa(text: str) -> Nfa:
    return _parse(_sections(text), _NFA)


def print_nfa(nfa: Nfa) -> str:
    return _print(nfa, _NFA)


def parse_automaton(text: str):
    """Parse either file format, dispatching on the first ``locations`` or
    ``states`` section header."""
    rows = _sections(text)
    for _, tokens in rows:
        if tokens[0] in _FORMATS:
            return _parse(rows, _FORMATS[tokens[0]])
    raise ParseError("neither a locations nor a states section found")
