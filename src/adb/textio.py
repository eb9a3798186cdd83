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

from typing import List, Tuple

from .automaton import Adb, _is_name, check_location, validate_adb
from .errors import AdbError, InvalidSymbol, ParseError
from .regular import Nfa, validate_nfa
from .words import EPS, TICK, Out, _decimal, format_label, label_key


def _adb_label(tokens, lineno):
    """The label of an automaton file's ``trans`` line."""
    if tokens[3] == "out":
        if len(tokens) != 6:
            raise ParseError("out transition needs symbol and delay", lineno)
        delay = _decimal(tokens[5])
        if delay is None:
            raise ParseError("bad delay %r" % tokens[5], lineno)
        if delay < 0:
            raise ParseError("negative delay", lineno)
        try:
            return Out(tokens[4], delay)
        except AdbError as exc:
            raise ParseError(str(exc), lineno) from None
    if len(tokens) == 4 and tokens[3] in ("eps", "tick"):
        return EPS if tokens[3] == "eps" else TICK
    raise ParseError("malformed transition", lineno)


def _nfa_label(tokens, lineno):
    """The letter of an NFA file's ``trans`` line, None for eps."""
    if tokens[3] == "on" and len(tokens) == 5:
        return tokens[4]
    if tokens[3] == "eps" and len(tokens) == 4:
        return None
    raise ParseError("malformed transition", lineno)


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


def _parse(rows, header, noun, label, build):
    alphabet = _header(rows, 0, "alphabet")
    names = _header(rows, 1, header)
    start = _header(rows, 2, "start")
    accepting = _header(rows, 3, "accept")
    if len(start) != 1:
        raise ParseError("start section needs exactly one %s" % noun, rows[2][0])

    transitions = []
    for lineno, tokens in rows[4:]:
        if tokens[0] != "trans":
            raise ParseError("expected trans line, got %r" % tokens[0], lineno)
        if len(tokens) < 4:
            raise ParseError("malformed transition", lineno)
        transitions.append((tokens[1], label(tokens, lineno), tokens[2]))

    try:
        return build(names, alphabet, start[0], accepting, transitions)
    except AdbError as exc:
        raise ParseError(str(exc)) from None


# ``validate_adb``/``validate_nfa`` are looked up when called, so a wrapper
# later bound to those module names (a tracer, a mock) sees the call.
def _adb_rows(rows) -> Adb:
    return _parse(rows, "locations", "location", _adb_label, validate_adb)


def _nfa_rows(rows) -> Nfa:
    return _parse(rows, "states", "state", _nfa_label, validate_nfa)


def _print(auto, header, key, text) -> str:
    """``key`` orders the labels; ``text`` gives a label's last tokens."""
    lines = [
        ("alphabet " + " ".join(sorted(auto.alphabet))).rstrip(),
        header + " " + " ".join(sorted(getattr(auto, header))),
        "start " + auto.start,
        ("accept " + " ".join(sorted(auto.accepting))).rstrip(),
    ]
    for src, label, dst in sorted(
        auto.transitions, key=lambda t: (t[0], key(t[1]), t[2])
    ):
        lines.append("trans %s %s %s" % (src, dst, text(label)))
    return "\n".join(lines) + "\n"


def parse_adb(text: str) -> Adb:
    return _adb_rows(_sections(text))


def print_adb(adb: Adb) -> str:
    return _print(adb, "locations", label_key, lambda label: (
        "out %s %d" % label if isinstance(label, Out) else format_label(label)))


def parse_nfa(text: str) -> Nfa:
    return _nfa_rows(_sections(text))


def print_nfa(nfa: Nfa) -> str:
    """Raises ``UnknownLocation`` for a state and ``InvalidSymbol`` for a
    letter that is not one token, the first in ``repr`` order, since the
    text would not read back."""
    for state in sorted(nfa.states, key=repr):
        check_location(state)
    for letter in sorted(nfa.alphabet, key=repr):
        if not _is_name(letter):
            raise InvalidSymbol(letter)
    return _print(nfa, "states", lambda letter: (letter is None, letter or ""),
                  lambda letter: "eps" if letter is None else "on %s" % (letter,))


def parse_automaton(text: str):
    """Parse either file format, dispatching on the first ``locations`` or
    ``states`` section header."""
    rows = _sections(text)
    for _, tokens in rows:
        if tokens[0] == "locations":
            return _adb_rows(rows)
        if tokens[0] == "states":
            return _nfa_rows(rows)
    raise ParseError("neither a locations nor a states section found")
