"""End-to-end benchmark of the ``adb`` command line tool.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-construct --seed 1 --seconds 55 --trace 0

One closed-loop client runs the workload's queries one after another, each
as its own ``adb`` process (``python -m adb.cli`` with ``src`` on the path),
and checks every verdict against ``reference``.  Passes over the seeded
query set repeat while another fits in ``--seconds``.  With ``--trace 1``
the same queries run in-process instead, once plain and once with spans
around every public function, and the per-layer metrics are printed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong verdict exits 1 without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
import workloads  # noqa: E402

QUERY_TIMEOUT_S = 60
SETUP_REPEATS = 15
WORK_DIR = ".bench_work"
ORACLE_CAP = 20_000  # adb.oracle enumerates; keep it to small inputs
ORACLE_QUERIES = 12

POSITIVE = {"member": "MEMBER", "modelcheck": "HOLDS", "empty": "NONEMPTY"}
NEGATIVE = {"member": "NOT MEMBER", "modelcheck": "FAILS", "empty": "EMPTY"}


class WrongVerdict(Exception):
    """``adb`` printed a verdict that disagrees with the reference."""


@dataclass
class Outcome:
    code: int  # exit code; None after a timeout
    stdout: str
    stderr: str
    seconds: float


# ---------------------------------------------------------------------------
# judging outcomes


def _summary(aut):
    return "%d locations, %d transitions" % (len(aut.locations), len(set(aut.edges)))


def _validate_line(path):
    if path.endswith(".nfa"):
        nfa = _read(path, ref.read_nfa)
        return "%d states, %d transitions" % (len(nfa.states), len(set(nfa.trans)))
    aut = _read(path)
    return "%s, max delay %d" % (_summary(aut), aut.max_delay)


def _read(path, reader=ref.read_adb):
    with open(path, encoding="utf-8") as handle:
        return reader(handle.read())


def _expected_locations(op, inputs):
    auts = [_read(path) for path in inputs]
    first = auts[0]
    if op == "union":
        return len(first.locations) + len(auts[1].locations) + 1, \
            ref.reachable_accept(first) or ref.reachable_accept(auts[1])
    if op == "concat":
        chain = len(first.accept) * first.max_delay
        return len(first.locations) + len(auts[1].locations) + chain, \
            ref.reachable_accept(first) and ref.reachable_accept(auts[1])
    chain = len(first.accept) * max(first.max_delay - 1, 0)
    return len(first.locations) + 1 + chain, True


def _check_construct(query, outcome):
    op, detail = query.expect
    path = query.argv[query.argv.index("--out") + 1]
    built = _read(path)
    if outcome.stderr.strip().splitlines()[-1] != _summary(built):
        raise WrongVerdict("summary %r does not match the written file"
                           % outcome.stderr.strip())
    nonempty = ref.reachable_accept(built)
    if op == "intersect":
        if nonempty != detail:
            raise WrongVerdict("intersection nonempty=%s, reference %s"
                               % (nonempty, detail))
        return
    locations, want_nonempty = _expected_locations(op, detail)
    if len(built.locations) != locations or nonempty != want_nonempty:
        raise WrongVerdict("%s built %d locations (nonempty=%s), expected %d (%s)"
                           % (op, len(built.locations), nonempty, locations,
                              want_nonempty))


def _check_verdict(query, positive, lines):
    if query.kind == "member":
        if positive != query.expect:
            raise WrongVerdict("member=%s, reference %s" % (positive, query.expect))
    elif query.kind == "modelcheck":
        holds, aut, nfa = query.expect
        if positive != holds:
            raise WrongVerdict("holds=%s, reference %s" % (positive, holds))
        if not positive:
            word = lines[1].split() if len(lines) > 1 else []
            if not ref.member_untimed(aut, word):
                raise WrongVerdict("counterexample %r is not generated" % word)
            if ref.Spec(nfa).accepts(word):
                raise WrongVerdict("counterexample %r is in the spec" % word)
    else:  # empty
        aut = _read(query.argv[1])
        if positive != ref.reachable_accept(aut):
            raise WrongVerdict("nonempty=%s disagrees with reachability" % positive)
        if positive:
            run = lines[1].split()[2:]
            if run[0] != aut.start or run[-1] not in aut.accept or \
                    not ref.is_path(aut, run):
                raise WrongVerdict("witness run %r is not an accepting path" % run)


def judge(query, outcome):
    """Classify one outcome as ``decided``, ``cap`` (exit 3: the state cap
    was hit) or ``failed`` (timeout, crash, or a usage error on valid
    input); raise ``WrongVerdict`` when a verdict disagrees with the
    reference.  The verdict token must agree with the exit code, because a
    crash exits 1 just as a negative verdict does."""
    if outcome.code == 3:
        return "cap"
    if outcome.code not in (0, 1):
        return "failed"
    lines = outcome.stdout.splitlines()
    first = lines[0] if lines else ""
    if query.kind in POSITIVE:
        token = POSITIVE if outcome.code == 0 else NEGATIVE
        if first != token[query.kind]:
            return "failed"
        _check_verdict(query, outcome.code == 0, lines)
    elif outcome.code != 0:
        return "failed"
    elif query.kind == "validate":
        want = _validate_line(query.argv[1])
        if first != want:
            raise WrongVerdict("validate printed %r, expected %r" % (first, want))
    else:
        _check_construct(query, outcome)
    return "decided"


class Judge:
    """Judges each query fully once per run; a repeat whose output and
    written file are byte-identical to the judged one gets the same class."""

    def __init__(self):
        self.seen = {}

    def __call__(self, index, query, outcome):
        key = (outcome.code, outcome.stdout, outcome.stderr, _written_digest(query))
        hit = self.seen.get(index)
        if hit is not None and hit[0] == key:
            return hit[1]
        try:
            verdict = judge(query, outcome)
        except WrongVerdict as exc:
            raise WrongVerdict("adb %s: %s" % (" ".join(query.argv)[:300], exc)) from None
        self.seen[index] = (key, verdict)
        return verdict


def _written_digest(query):
    if "--out" not in query.argv:
        return None
    path = query.argv[query.argv.index("--out") + 1]
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


def oracle_checks(queries, adb):
    """Check the reference itself against ``adb.oracle``'s brute force on
    small inputs taken from the first queries: short prefixes of timed
    words, and the untimed words of runs of at most six transitions."""
    for query in queries[:ORACLE_QUERIES]:
        if query.kind not in ("member", "modelcheck", "construct"):
            continue
        path = query.argv[2] if query.kind == "construct" else query.argv[1]
        aut = _read(path)
        with open(path, encoding="utf-8") as handle:
            auto = adb.parse_adb(handle.read())
        try:
            if query.argv[2:3] == ["--timed"]:
                prefix = [(sym, t) for sym, t in (
                    (tok.split("@")[0], int(tok.split("@")[1]))
                    for tok in query.argv[3].split()[:24]) if t <= 6]
                if adb.brute_member_timed(auto, tuple(prefix), cap=ORACLE_CAP) != \
                        ref.member_timed(aut, prefix):
                    raise WrongVerdict("oracle and reference disagree on %r" % prefix)
                continue
            sample = adb.untimed_sample(auto, 6, cap=ORACLE_CAP)
        except adb.BoundExceeded:
            continue
        for word in sample:
            if not ref.member_untimed(aut, list(word)):
                raise WrongVerdict("oracle word %r of %s is not a reference member"
                                   % (word, path))
        if query.kind == "modelcheck":
            spec = ref.Spec(query.expect[2])
            if query.expect[0] and not all(spec.accepts(w) for w in sample):
                raise WrongVerdict("oracle finds a word outside the spec of %s" % path)


# ---------------------------------------------------------------------------
# running processes


def child_env(root):
    """Environment of every ``adb`` process: the default state cap, stable
    set order (so repeated queries print the same), and cached bytecode
    kept under the work directory, as an installed package would have
    instead of compiling its sources in every process."""
    env = dict(os.environ)
    env.pop("ADB_MAX_STATES", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, WORK_DIR, "pycache")
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli(argv, env):
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "adb.cli"] + argv, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=QUERY_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    return Outcome(code, out, err, time.perf_counter() - start)


def setup_inputs(queries):
    """The workload's generated input files, in query order."""
    inputs = []
    for query in queries:
        for arg in query.argv:
            if arg.endswith((".adb", ".nfa")) and os.path.exists(arg) \
                    and arg not in inputs:
                inputs.append(arg)
    return inputs


def run_processes(queries, seconds, env):
    """Run passes over the queries while another pass fits in ``seconds``.

    During the first pass, ``adb validate`` on an input file runs before
    every ``len(queries) // SETUP_REPEATS``-th query.  Spread like this the
    set-up runs see the same machine as the queries; their time is left
    out of the passes' wall time, and their median is ``setup_s``."""
    check, setup_check = Judge(), Judge()
    inputs = setup_inputs(queries)
    stride = max(1, len(queries) // SETUP_REPEATS)
    times, classes, setup_times = [], [], []
    wall = 0.0
    while True:
        pass_start, pass_setup = time.perf_counter(), sum(setup_times)
        for index, query in enumerate(queries):
            if index % stride == 0 and len(setup_times) < SETUP_REPEATS:
                path = inputs[len(setup_times) % len(inputs)]
                probe = workloads.Query(["validate", path], "validate", None)
                outcome = run_cli(probe.argv, env)
                if setup_check(path, probe, outcome) != "decided":
                    raise WrongVerdict("validate failed on %s: %s" % (path, outcome.stderr))
                setup_times.append(outcome.seconds)
            outcome = run_cli(query.argv, env)
            if outcome.code is None:
                outcome.seconds = max(outcome.seconds, QUERY_TIMEOUT_S)
            times.append(outcome.seconds)
            classes.append(check(index, query, outcome))
        pass_s = time.perf_counter() - pass_start - (sum(setup_times) - pass_setup)
        wall += pass_s
        if wall + pass_s > seconds:
            break
    return times, classes, wall, statistics.median(setup_times)


def end_to_end(times, classes, wall, setup_s):
    decided = classes.count("decided")
    return {
        "query_s_p50": (statistics.median(times), "s"),
        "query_s_p90": (statistics.quantiles(times, n=10)[-1], "s"),
        "queries_per_s": (len(times) / wall, "1/s"),
        "decided_ratio": (decided / len(classes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                        "MB"),
        "setup_s": (setup_s, "s"),
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def describe(queries):
    """Ranges of the input properties the workload varies."""
    ranges = {}
    for query in queries:
        for key, value in query.props.items():
            if isinstance(value, (int, float)):
                lo, hi = ranges.get(key, (value, value))
                ranges[key] = (min(lo, value), max(hi, value))
    kinds = {}
    for query in queries:
        kinds[query.kind] = kinds.get(query.kind, 0) + 1
    return {"queries": len(queries), "kinds": kinds, "ranges": ranges}


def main(argv=None, generate=workloads.generate):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "adb", "cli.py")):
        print("error: run from the root of an adb checkout (no src/adb here)",
              file=sys.stderr)
        return 2
    os.environ.pop("ADB_MAX_STATES", None)
    work = os.path.join(WORK_DIR, "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    queries = generate(args.workload, args.seed, work)
    with open(os.path.join(work, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump([{"argv": q.argv[:2], "kind": q.kind, "props": q.props}
                   for q in queries], handle, indent=0)
    print("python %s (%s)" % (platform.python_version(), sys.executable))
    print("inputs %s" % json.dumps(describe(queries)))
    env = child_env(root)
    try:
        if args.trace:
            import trace_layers
            sys.path.insert(0, os.path.join(root, "src"))
            classes, metrics = trace_layers.run(queries, env, Judge, Outcome,
                                                oracle_checks)
        else:
            times, classes, wall, setup_s = run_processes(queries, args.seconds, env)
            metrics = end_to_end(times, classes, wall, setup_s)
            sys.path.insert(0, os.path.join(root, "src"))
            import adb
            oracle_checks(queries, adb)
            print("samples %d over %.2f s; p90 has %d beyond it"
                  % (len(times), wall, len(times) // 10))
    except WrongVerdict as exc:
        print("error: wrong verdict: %s" % exc, file=sys.stderr)
        return 1
    result = {
        "correct": True,
        "attempted": len(classes),
        "failed": classes.count("failed"),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
