"""Per-layer metrics from an in-process run of a workload's queries.

The queries run through ``adb.cli.main(argv)`` twice: once plain, for the
tracing overhead, and once with a span around every call into a public
function of each ``adb`` module.  The wrappers live here, not in ``src``:
each one replaces every module binding of the function, so names copied by
``from .product import search_accepting`` are traced in ``adb.analysis``
too.  ``Adb.edges_from`` is counted, not timed, because it runs once per
expanded state.  Spans stay in memory until the run ends; a layer's self
time is its spans' time minus the time of the spans they called.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import statistics
import subprocess
import sys
import time
from collections import Counter

MODULES = ("words", "automaton", "regular", "product", "analysis",
           "constructions", "oracle", "textio", "cli")
# Called once per symbol, location or transition; their time counts in the
# caller, which keeps the span count per query small.
UNTRACED = {"check_symbol", "check_location", "label_key", "format_label"}
STARTUP_REPEATS = 5


class Tracer:
    def __init__(self, adb_modules):
        self.modules = adb_modules
        self.spans = []  # [name, start, end, parent, info]
        self.stack = []
        self.expansions = Counter()  # edges_from calls by innermost span
        self.undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = exc
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name in PROBES:
                span[4] = PROBES[name](args, result)
            return result

        return traced

    def install(self):
        for short in MODULES:
            module = self.modules[short]
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in UNTRACED):
                    self._rebind(fn, self._wrap("%s.%s" % (short, attr), fn))
        adb_class = self.modules["automaton"].Adb
        edges_from = adb_class.edges_from
        spans, stack, counts = self.spans, self.stack, self.expansions

        def counted(adb, loc):
            counts[spans[stack[-1]][0] if stack else None] += 1
            return edges_from(adb, loc)

        adb_class.edges_from = counted
        self.undo.append((adb_class, "edges_from", edges_from))

    def _rebind(self, fn, wrapper):
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self.undo.append((module, attr, fn))

    def uninstall(self):
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()


PROBES = {
    "product.search_accepting": lambda args, result: result[1],
    "regular.eliminate_eps": lambda args, result: len(args[0].states),
    "regular.determinize": lambda args, result: len(result.states),
    "textio.parse_adb": lambda args, result: len(args[0]),
    "textio.parse_nfa": lambda args, result: len(args[0]),
    "textio.print_adb": lambda args, result: len(result),
    "textio.print_nfa": lambda args, result: len(result),
    "constructions.intersect_regular": lambda args, result: len(result.locations),
    "constructions.union": lambda args, result: len(result.locations),
    "constructions.concat": lambda args, result: len(result.locations),
    "constructions.star": lambda args, result: len(result.locations),
    "constructions.lift_regular": lambda args, result: len(result.locations),
}


def self_times(spans):
    """Self time per span name: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] += end - start - child[i]
    return totals


def _run_in_process(cli, queries, judge_fn, outcome_type):
    classes = []
    start = time.perf_counter()
    for index, query in enumerate(queries):
        out, err = io.StringIO(), io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(query.argv))
            except Exception as exc:  # a crash: the process would exit 1
                print("%s: %s" % (type(exc).__name__, exc), file=err)
                code = 1
        outcome = outcome_type(code, out.getvalue(), err.getvalue(),
                               time.perf_counter() - began)
        classes.append(judge_fn(index, query, outcome))
    return classes, time.perf_counter() - start


def startup_seconds(env):
    """Median wall time of a process that only starts and imports adb.cli."""
    times = []
    for _ in range(STARTUP_REPEATS):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import adb.cli"], env=env, check=True)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def run(queries, env, make_judge, outcome_type, oracle_checks):
    """Run the queries in-process plain and traced; return the traced
    pass's outcome classes and the per-layer metrics."""
    modules = {short: importlib.import_module("adb." + short) for short in MODULES}
    modules["adb"] = importlib.import_module("adb")
    cli = modules["cli"]
    _, plain_s = _run_in_process(cli, queries, make_judge(), outcome_type)
    tracer = Tracer(modules)
    tracer.install()
    try:
        classes, traced_s = _run_in_process(cli, queries, make_judge(), outcome_type)
        query_spans = len(tracer.spans)
        oracle_checks(queries, modules["adb"])
    finally:
        tracer.uninstall()
    bound_exceeded = modules["adb"].BoundExceeded
    for query, states in zip(queries, product_states(tracer.spans[:query_spans],
                                                     bound_exceeded)):
        if "ladder" in query.props:
            print("ladder %s: %s product states" % (query.props["ladder"], states))
    metrics = derive(tracer, query_spans, bound_exceeded)
    metrics["cli.startup_s"] = (startup_seconds(env), "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    return classes, metrics


def product_states(spans, bound_exceeded):
    """Product states searched per query, in query order; a search stopped
    by the cap reads ``>cap``.  Each query is one top-level ``cli.main``."""
    per_query = []
    for name, _, _, parent, info in spans:
        if parent < 0:
            per_query.append(0)
        elif name == "product.search_accepting":
            if isinstance(info, bound_exceeded):
                per_query[-1] = ">%d" % info.cap
            elif isinstance(info, int) and isinstance(per_query[-1], int):
                per_query[-1] += info
    return per_query


def derive(tracer, query_spans, bound_exceeded):
    """Metrics from the spans of the traced queries; the spans after
    ``query_spans`` belong to the oracle cross-checks."""
    spans = tracer.spans[:query_spans]
    selfs = self_times(spans)

    def self_s(*names):
        return sum(selfs[name] for name in names)

    def info(*names):
        return sum(s[4] for s in spans if s[0] in names and isinstance(s[4], int))

    def inclusive(predicate):
        return sum(s[2] - s[1] for s in spans if predicate(s))

    cap_hits = sum(1 for s in spans if isinstance(s[4], bound_exceeded)
                   and s[0] in ("product.search_accepting",
                                "constructions.intersect_regular"))
    states = info("product.search_accepting") + sum(
        s[4].cap for s in spans
        if s[0] == "product.search_accepting" and isinstance(s[4], bound_exceeded))
    search_s = self_s("product.search_accepting")
    timed_s = self_s("analysis.member_timed")
    timed_expansions = tracer.expansions["analysis.member_timed"]
    model_checks = {i for i, s in enumerate(spans) if s[0] == "analysis.model_check"}
    ops = ("constructions.union", "constructions.concat", "constructions.star",
           "constructions.lift_regular")
    by_layer = Counter()
    for name, seconds in selfs.items():
        by_layer[name.split(".")[0]] += seconds
    total = sum(by_layer.values()) or 1.0
    metrics = {
        "cli.self_s": (by_layer["cli"], "s"),
        "textio.parse_s": (self_s("textio.parse_adb", "textio.parse_nfa",
                                  "textio.parse_automaton"), "s"),
        "textio.print_s": (self_s("textio.print_adb", "textio.print_nfa"), "s"),
        "textio.bytes": (info("textio.parse_adb", "textio.parse_nfa",
                              "textio.print_adb", "textio.print_nfa"), "bytes"),
        "words.parse_s": (self_s("words.parse_timed_word", "words.parse_untimed_word",
                                 "words.parse_labels"), "s"),
        "words.oword_s": (self_s("words.oword"), "s"),
        "automaton.validate_s": (self_s("automaton.validate_adb"), "s"),
        "automaton.expansions": (sum(tracer.expansions.values()), "count"),
        "regular.eliminate_eps_s": (self_s("regular.eliminate_eps"), "s"),
        "regular.eliminate_eps_states": (info("regular.eliminate_eps"), "count"),
        "regular.determinize_s": (self_s("regular.determinize"), "s"),
        "regular.dfa_states": (info("regular.determinize"), "count"),
        "regular.nfa_member_s": (self_s("regular.nfa_member"), "s"),
        "product.search_s": (search_s, "s"),
        "product.states": (states, "count"),
        "product.us_per_state": (search_s / states * 1e6 if states else 0.0, "us"),
        "product.cap_hits": (cap_hits, "count"),
        "analysis.member_timed_s": (timed_s, "s"),
        "analysis.timed_expansions": (timed_expansions, "count"),
        "analysis.us_per_expansion": (
            timed_s / timed_expansions * 1e6 if timed_expansions else 0.0, "us"),
        "analysis.verify_s": (inclusive(lambda s: s[3] in model_checks and s[0] in (
            "analysis.member_untimed", "regular.nfa_member")), "s"),
        "analysis.empty_s": (self_s("analysis.shortest_accepting_run",
                                    "analysis.is_empty"), "s"),
        "constructions.intersect_s": (self_s("constructions.intersect_regular"), "s"),
        "constructions.locations_out": (info("constructions.intersect_regular", *ops),
                                        "count"),
        "constructions.ops_s": (self_s(*ops), "s"),
        "oracle.check_s": (sum(s[2] - s[1] for s in tracer.spans[query_spans:]
                               if s[3] < 0), "s"),
    }
    print("self-time shares: " + ", ".join(
        "%s %.3f" % (layer, by_layer[layer] / total) for layer in MODULES))
    return metrics
