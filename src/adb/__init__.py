"""Automata with delay blocks: timed-output semantics, language
constructions, and decision procedures with brute-force oracles.

The public names below are resolved on first access (PEP 562), so
importing the package, or one module of it, loads only what is used.  A
resolved name is not cached here: it is read from its module each time.
"""

_EXPORTS = {
    "analysis": (
        "IntersectionWitness", "Verdict", "intersect_regular_empty", "is_empty",
        "member_timed", "member_untimed", "model_check",
        "shortest_accepting_run",
    ),
    "automaton": (
        "Adb", "Run", "check_run", "is_accepting_run", "reg_view", "run_output",
        "validate_adb",
    ),
    "constructions": ("concat", "intersect_regular", "lift_regular", "star", "union"),
    "errors": (
        "AdbError", "BoundExceeded", "DecreasingTimestamp", "DuplicateLocation",
        "IncompatibleAlphabet", "InternalVerificationFailure", "InvalidStep",
        "InvalidSymbol", "MissingStart", "ParseError", "ReservedSymbol",
        "UnknownLocation", "UnknownSymbol", "WindowTooShort",
    ),
    "oracle": (
        "PumpDecomposition", "brute_member_timed", "enumerate_accepting_runs",
        "language_sample", "pump", "pump_decompose", "random_mutations",
        "untimed_sample",
    ),
    "regular": (
        "Nfa", "eps_closure", "nfa_member", "single_word_nfa", "validate_nfa",
    ),
    "textio": ("parse_adb", "parse_automaton", "parse_nfa", "print_adb", "print_nfa"),
    "words": (
        "EPS", "TICK", "Out", "format_labels", "format_timed_word",
        "format_untimed_word", "kappa", "oword", "parse_labels",
        "parse_timed_word", "parse_untimed_word", "rep", "shift", "untime",
        "validate_timed_word",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    return getattr(import_module("." + module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
