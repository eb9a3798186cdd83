"""The ``adb`` command line front end.

Exit codes: 0 positive verdict, 1 negative verdict, 2 usage/parse error or
unwritable output, 3 bound exceeded (the state cap or memory), 4 internal
error (a counterexample that fails its own re-verification).  Results go
to stdout, diagnostics to stderr.  Only :func:`_cap` reads the environment.

A canonical command line is parsed straight from :data:`COMMANDS`; any
other line, including ``--help`` and every malformed line, goes to the
argparse parser that :func:`build_parser` builds from the same table.
Both only split a line and check its shape; each command checks the values
it reads, and reports a bad one as a one-line ``error:``.  Each command
imports the modules it runs, so a process loads only those.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .errors import AdbError, BoundExceeded, InternalVerificationFailure

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_INTERNAL = 4
_EXIT_CODES = {BoundExceeded: EXIT_BOUND, InternalVerificationFailure: EXIT_INTERNAL}


class CliError(AdbError):
    """A bad command line or an unreadable input file (exit 2)."""


def _load(path: str, parse):
    """Read and parse a file, naming it in any error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError("cannot read %s: %s" % (path, exc))
    try:
        return parse(text)
    except AdbError as exc:
        raise CliError("%s: %s" % (path, exc))


def _cap() -> int:
    """Every search's state cap: ``ADB_MAX_STATES``, else the library's."""
    from .product import DEFAULT_STATE_CAP

    return int(os.environ.get("ADB_MAX_STATES", DEFAULT_STATE_CAP))


def cmd_validate(args) -> int:
    from .automaton import Adb
    from .textio import parse_automaton

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
    from . import analysis
    from .automaton import run_output
    from .textio import parse_adb
    from .words import format_timed_word

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
    from . import analysis
    from .textio import parse_adb
    from .words import parse_timed_word, parse_untimed_word

    auto = _load(args.path, parse_adb)
    if args.timed is not None:
        verdict = analysis.member_timed(auto, parse_timed_word(args.timed), _cap())
    else:
        verdict = analysis.member_untimed(
            auto, parse_untimed_word(args.untimed), _cap())
    print("MEMBER" if verdict else "NOT MEMBER")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_modelcheck(args) -> int:
    from . import analysis
    from .textio import parse_adb, parse_nfa
    from .words import format_untimed_word

    auto = _load(args.path, parse_adb)
    verdict = analysis.model_check(auto, _load(args.spec, parse_nfa), _cap())
    if verdict.holds:
        print("HOLDS")
        return EXIT_OK
    print("FAILS")
    print(format_untimed_word(verdict.counterexample))
    return EXIT_NEGATIVE


# Per ``construct`` operation: its function in ``adb.constructions``, named
# so that it is looked up when called, and its number of input files.
OPERATIONS = {"union": ("union", 2), "concat": ("concat", 2), "star": ("star", 1),
              "lift": ("lift_regular", 1), "intersect": ("intersect_regular", 1)}


def cmd_construct(args) -> int:
    from . import constructions
    from .textio import parse_adb, parse_nfa, print_adb

    name, wanted = OPERATIONS[args.op]
    if len(args.inputs) != wanted:
        raise CliError("construct %s needs %d input file(s), got %d"
                       % (args.op, wanted, len(args.inputs)))
    if args.op == "intersect" and args.spec is None:
        raise CliError("construct intersect needs --spec")
    if args.op != "intersect" and args.spec is not None:
        raise CliError("construct %s takes no --spec" % args.op)
    parse = parse_nfa if args.op == "lift" else parse_adb
    inputs = [_load(path, parse) for path in args.inputs]
    if args.op == "intersect":
        inputs += [_load(args.spec, parse_nfa), _cap()]
    result = getattr(constructions, name)(*inputs)
    text = print_adb(result)
    if args.out is not None:
        import stat

        # written in place, then cut: truncating to zero first can block on
        # ext4 until the old contents are written back (see README)
        try:
            fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
            with open(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    handle.truncate()
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
    from . import oracle
    from .textio import parse_adb
    from .words import _decimal, format_timed_word, format_untimed_word

    bound = _decimal(args.max_transitions)
    if bound is None or bound < 0:
        problem = "invalid int value" if bound is None else "must be nonnegative"
        raise CliError("argument --max-transitions: %s: %r"
                       % (problem, args.max_transitions))
    auto = _load(args.path, parse_adb)
    if args.untimed:
        sample, fmt = oracle.untimed_sample, format_untimed_word
    else:
        sample, fmt = oracle.language_sample, format_timed_word
    lines = map(fmt, sample(auto, bound, _cap()))
    for line in sorted(lines, key=lambda s: (len(s.split()), s.split())):
        print(line)
    return EXIT_OK


def cmd_oword(args) -> int:
    from .words import format_timed_word, oword, parse_labels

    print(format_timed_word(oword(parse_labels(args.labels))))
    return EXIT_OK


def cmd_oracle_member(args) -> int:
    from . import oracle
    from .textio import parse_adb
    from .words import parse_timed_word

    auto = _load(args.path, parse_adb)
    verdict = oracle.brute_member_timed(auto, parse_timed_word(args.timed), _cap())
    print("MEMBER" if verdict else "NOT MEMBER")
    return EXIT_OK if verdict else EXIT_NEGATIVE


# Per command: its handler, its help line and its arguments as (name,
# add_argument keywords) pairs, positionals first; a list of pairs is a
# required mutually exclusive group.
COMMANDS = {
    "validate": (cmd_validate, "parse a file and print a summary", [("path", {})]),
    "empty": (cmd_empty, "decide language emptiness", [("path", {})]),
    "member": (cmd_member, "decide timed or untimed membership", [
        ("path", {}),
        [("--timed", {"help": 'timed word, e.g. "a@0 b@1"'}),
         ("--untimed", {"help": 'untimed word, e.g. "a b"'})],
    ]),
    "modelcheck": (cmd_modelcheck, "check containment in an NFA spec", [
        ("path", {}),
        ("--spec", {"required": True}),
    ]),
    "construct": (cmd_construct, "run a language construction", [
        ("op", {"choices": list(OPERATIONS)}),
        ("inputs", {"nargs": "+"}),
        ("--spec", {}),
        ("--out", {}),
    ]),
    "enumerate": (cmd_enumerate, "list bounded-run language samples", [
        ("path", {}),
        ("--max-transitions", {"required": True}),
        ("--untimed", {"action": "store_true"}),
    ]),
    "oword": (cmd_oword, "evaluate a label string to a timed word", [
        ("--labels", {"required": True}),
    ]),
    "oracle-member": (
        cmd_oracle_member, "timed membership by brute-force run search", [
            ("path", {}),
            ("--timed", {"required": True}),
        ]),
}


def build_parser():
    """The argparse parser for :data:`COMMANDS`: the reference for every
    command line, and the parser of the lines :func:`quick_parse` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="adb", description="delay automata toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for argument in arguments:
            if isinstance(argument, list):
                group = p.add_mutually_exclusive_group(required=True)
                for flag, keywords in argument:
                    group.add_argument(flag, **keywords)
            else:
                flag, keywords = argument
                p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _value(token: str, keywords):
    """``token`` as argparse would read it, or ``None`` when argparse might
    read it otherwise (it starts with ``-``) or would reject it."""
    if token[:1] == "-" or token not in keywords.get("choices", (token,)):
        return None
    return token


def quick_parse(argv):
    """The fields ``build_parser().parse_args(argv)`` returns, for a
    canonical line: the command, its positionals in order, then exact long
    options, each at most once, as ``--name value`` or a bare flag, with
    every required option given.  ``None`` for any other line."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, arguments = COMMANDS[argv[0]]
    fields = {"command": argv[0], "func": func}
    positionals, options, needed = [], {}, []
    for argument in arguments:
        if isinstance(argument, list):
            needed.append({flag for flag, _ in argument})
        else:
            argument = [argument]
        for flag, keywords in argument:
            if flag[0] != "-":
                positionals.append((flag, keywords))
                continue
            dest = flag[2:].replace("-", "_")
            options[flag] = dest, keywords
            fields[dest] = False if keywords.get("action") == "store_true" else None
            if keywords.get("required"):
                needed.append({flag})
    i = 1
    for name, keywords in positionals:
        end = i + 1
        if keywords.get("nargs") == "+":
            while end < len(argv) and argv[end][:1] != "-":
                end += 1
        values = [_value(token, keywords) for token in argv[i:end]]
        if len(values) != end - i or None in values:
            return None
        fields[name] = values if "nargs" in keywords else values[0]
        i = end
    given = set()
    while i < len(argv):
        flag = argv[i]
        if flag not in options or flag in given:
            return None
        given.add(flag)
        dest, keywords = options[flag]
        if keywords.get("action") == "store_true":
            fields[dest] = True
            i += 1
            continue
        value = _value(argv[i + 1], keywords) if i + 1 < len(argv) else None
        if value is None:
            return None
        fields[dest] = value
        i += 2
    if any(len(flags & given) != 1 for flags in needed):
        return None
    return SimpleNamespace(**fields)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = quick_parse(list(argv))
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BOUND
    except AdbError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_USAGE)


def run() -> None:
    """The process entry point: run :func:`main` with the cyclic garbage
    collector off, flush the output, then end the process without the
    interpreter's teardown, which would only free memory that the process
    is about to give back.  The searches build no reference cycles, so
    collecting would only walk their states.  Unwritable or closed stdout
    is one ``error:`` line and exit 2; a closed stderr only drops the
    diagnostics.  Other exceptions keep their traceback."""
    gc.disable()
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w")
    try:
        if sys.stdout is None:
            raise OSError("standard output is closed")
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        code = EXIT_USAGE
        try:
            print("error: cannot write output: %s" % exc, file=sys.stderr)
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
