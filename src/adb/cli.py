"""The ``adb`` command line front end.

Exit codes: 0 positive verdict, 1 negative verdict, 2 usage/parse error,
3 resource bound exceeded.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import analysis, constructions, oracle
from .automaton import Adb, run_output
from .errors import AdbError, BoundExceeded
from .textio import parse_adb, parse_automaton, parse_nfa, print_adb
from .words import (
    format_timed_word,
    format_untimed_word,
    oword,
    parse_labels,
    parse_timed_word,
    parse_untimed_word,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


class CliError(AdbError):
    """A bad command line or an unreadable input file (exit 2)."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc))


def _load(path: str, parse):
    """Parse a file, naming it in any error."""
    text = _read(path)
    try:
        return parse(text)
    except AdbError as exc:
        raise CliError("%s: %s" % (path, exc))


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative: %r" % text)
    return value


def cmd_validate(args) -> int:
    auto = _load(args.path, parse_automaton)
    if isinstance(auto, Adb):
        print(
            "%d locations, %d transitions, max delay %d"
            % (len(auto.locations), len(auto.transitions), auto.max_delay)
        )
    else:
        print(
            "%d states, %d transitions" % (len(auto.states), len(auto.transitions))
        )
    return EXIT_OK


def cmd_empty(args) -> int:
    auto = _load(args.path, parse_adb)
    run = analysis.shortest_accepting_run(auto)
    if run is None:
        print("EMPTY")
        return EXIT_NEGATIVE
    print("NONEMPTY")
    print("witness run: " + " ".join(run.locations()))
    print("witness word: " + format_timed_word(run_output(auto, run)))
    return EXIT_OK


def cmd_member(args) -> int:
    auto = _load(args.path, parse_adb)
    if args.timed is not None:
        verdict = analysis.member_timed(auto, parse_timed_word(args.timed))
    else:
        verdict = analysis.member_untimed(auto, parse_untimed_word(args.untimed))
    print("MEMBER" if verdict else "NOT MEMBER")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_modelcheck(args) -> int:
    auto = _load(args.path, parse_adb)
    verdict = analysis.model_check(auto, _load(args.spec, parse_nfa))
    if verdict.holds:
        print("HOLDS")
        return EXIT_OK
    print("FAILS")
    print(format_untimed_word(verdict.counterexample))
    return EXIT_NEGATIVE


def cmd_construct(args) -> int:
    wanted = 2 if args.op in ("union", "concat") else 1
    if len(args.inputs) != wanted:
        raise CliError(
            "construct %s needs %d input file(s), got %d"
            % (args.op, wanted, len(args.inputs))
        )
    if args.op == "lift":
        result = constructions.lift_regular(_load(args.inputs[0], parse_nfa))
    elif args.op == "star":
        result = constructions.star(_load(args.inputs[0], parse_adb))
    elif args.op == "intersect":
        if args.spec is None:
            raise CliError("construct intersect needs --spec")
        result = constructions.intersect_regular(
            _load(args.inputs[0], parse_adb), _load(args.spec, parse_nfa)
        )
    else:
        build = constructions.union if args.op == "union" else constructions.concat
        result = build(*(_load(path, parse_adb) for path in args.inputs))
    text = print_adb(result)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError("cannot write %s: %s" % (args.out, exc))
    else:
        sys.stdout.write(text)
    print(
        "%d locations, %d transitions" % (len(result.locations), len(result.transitions)),
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_enumerate(args) -> int:
    auto = _load(args.path, parse_adb)
    if args.untimed:
        words = oracle.untimed_sample(auto, args.max_transitions)
        lines = sorted(
            (format_untimed_word(w) for w in words),
            key=lambda s: (len(s.split()), s.split()),
        )
    else:
        words = oracle.language_sample(auto, args.max_transitions)
        lines = sorted(
            (format_timed_word(w) for w in words),
            key=lambda s: (len(s.split()), s.split()),
        )
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_oword(args) -> int:
    print(format_timed_word(oword(parse_labels(args.labels))))
    return EXIT_OK


def cmd_oracle_member(args) -> int:
    auto = _load(args.path, parse_adb)
    verdict = oracle.brute_member_timed(auto, parse_timed_word(args.timed))
    print("MEMBER" if verdict else "NOT MEMBER")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adb", description="delay automata toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a file and print a summary")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("empty", help="decide language emptiness")
    p.add_argument("path")
    p.set_defaults(func=cmd_empty)

    p = sub.add_parser("member", help="decide timed or untimed membership")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--timed", help='timed word, e.g. "a@0 b@1"')
    group.add_argument("--untimed", help='untimed word, e.g. "a b"')
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("modelcheck", help="check containment in an NFA spec")
    p.add_argument("path")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_modelcheck)

    p = sub.add_parser("construct", help="run a language construction")
    p.add_argument("op", choices=["union", "concat", "star", "lift", "intersect"])
    p.add_argument("inputs", nargs="+")
    p.add_argument("--spec")
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("enumerate", help="list bounded-run language samples")
    p.add_argument("path")
    p.add_argument("--max-transitions", type=_nonnegative_int, required=True)
    p.add_argument("--untimed", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oword", help="evaluate a label string to a timed word")
    p.add_argument("--labels", required=True)
    p.set_defaults(func=cmd_oword)

    p = sub.add_parser(
        "oracle-member", help="timed membership by brute-force run search"
    )
    p.add_argument("path")
    p.add_argument("--timed", required=True)
    p.set_defaults(func=cmd_oracle_member)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BoundExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BOUND
    except AdbError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """The process entry point: run :func:`main`, flush the output, then end
    the process without the interpreter's teardown, which would only free
    memory that the process is about to give back.  A flush that fails
    exits through ``sys.exit``, so the interpreter reports the error as
    usual; an exception out of ``main`` never gets here and keeps its
    traceback."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
