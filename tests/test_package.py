import importlib
import subprocess
import sys

import pytest

import adb
from conftest import EXAMPLES

# every name the package exported when it imported each module eagerly
EXPORTED = {
    "analysis": [
        "IntersectionWitness", "Verdict", "intersect_regular_empty", "is_empty",
        "member_timed", "member_untimed", "model_check", "shortest_accepting_run",
    ],
    "automaton": [
        "Adb", "Run", "check_run", "is_accepting_run", "reg_view", "run_output",
        "validate_adb",
    ],
    "constructions": ["concat", "intersect_regular", "lift_regular", "star", "union"],
    "errors": [
        "AdbError", "BoundExceeded", "DecreasingTimestamp", "DuplicateLocation",
        "IncompatibleAlphabet", "InternalVerificationFailure", "InvalidStep",
        "InvalidSymbol", "MissingStart", "ParseError", "ReservedSymbol",
        "UnknownLocation", "UnknownSymbol", "WindowTooShort",
    ],
    "oracle": [
        "PumpDecomposition", "brute_member_timed", "enumerate_accepting_runs",
        "language_sample", "pump", "pump_decompose", "random_mutations",
        "untimed_sample",
    ],
    "regular": [
        "Nfa", "eps_closure", "nfa_member", "single_word_nfa", "validate_nfa",
    ],
    "textio": ["parse_adb", "parse_automaton", "parse_nfa", "print_adb", "print_nfa"],
    "words": [
        "EPS", "TICK", "Out", "format_labels", "format_timed_word",
        "format_untimed_word", "kappa", "oword", "parse_labels", "parse_timed_word",
        "parse_untimed_word", "rep", "shift", "untime", "validate_timed_word",
    ],
}
NAMES = [name for names in EXPORTED.values() for name in names]


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_exported_names_resolve_to_their_module(module):
    source = importlib.import_module("adb." + module)
    for name in EXPORTED[module]:
        assert getattr(adb, name) is getattr(source, name)


def test_listing_and_star_import():
    assert sorted(adb.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(adb))
    assert adb.__version__ == "0.1.0"
    namespace = {}
    exec("from adb import *", namespace)
    for name in NAMES:
        assert namespace[name] is getattr(adb, name)


def test_unknown_name():
    with pytest.raises(AttributeError):
        adb.no_such_name
    with pytest.raises(ImportError):
        exec("from adb import no_such_name", {})


def test_resolved_names_are_not_cached(monkeypatch):
    # a rebinding in the module shows through the package, and so does
    # its restore
    from adb import analysis

    original = analysis.member_timed
    monkeypatch.setattr(analysis, "member_timed", len)
    assert adb.member_timed is len
    monkeypatch.undo()
    assert adb.member_timed is original


def test_package_import_loads_no_module():
    src = str(EXAMPLES.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, %r); import adb; "
         "print(sorted(m for m in sys.modules if m.startswith('adb')))" % src],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "['adb']"
