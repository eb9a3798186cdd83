import pytest

import adb
from adb.cli import CliError
from adb.errors import (
    AdbError,
    BoundExceeded,
    DecreasingTimestamp,
    DuplicateLocation,
    IncompatibleAlphabet,
    InternalVerificationFailure,
    InvalidStep,
    InvalidSymbol,
    MissingStart,
    ParseError,
    ReservedSymbol,
    UnknownLocation,
    UnknownSymbol,
    WindowTooShort,
)
from conftest import round_trips

# every error that carries one value: its class, a sample value, the exact
# message and the attribute that keeps the value
ONE_VALUE = [
    (InvalidSymbol, "a b", "invalid symbol: 'a b'", "name"),
    (ReservedSymbol, "eps", "reserved symbol used as output symbol: 'eps'", "name"),
    (DecreasingTimestamp, 3, "timestamp decreases at letter 3", "index"),
    (UnknownLocation, "l9", "unknown location: 'l9'", "name"),
    (DuplicateLocation, "l0", "duplicate location: 'l0'", "name"),
    (InvalidStep, 2, "run step 2 is not a transition of the automaton", "index"),
    (UnknownSymbol, "z", "symbol not in alphabet: 'z'", "name"),
    (BoundExceeded, 1000, "exceeded cap of 1000", "cap"),
]


@pytest.mark.parametrize("cls, value, text, field", ONE_VALUE,
                         ids=[row[0].__name__ for row in ONE_VALUE])
def test_one_value_errors(cls, value, text, field):
    exc = cls(value)
    assert str(exc) == text
    assert exc.args == (text,)
    assert getattr(exc, field) == value
    assert isinstance(exc, AdbError)
    assert_round_trips(exc)


def test_missing_start_message():
    assert str(MissingStart()) == "no start location declared"
    assert MissingStart().args == ("no start location declared",)
    assert_round_trips(MissingStart())


# every other error: an instance, its exact message and the attributes it keeps
OTHERS = [
    (WindowTooShort(3, 1), "pumping window spans 1 transitions, need at least 3",
     {"needed": 3, "got": 1}),
    (IncompatibleAlphabet(["b", "c"]), "spec alphabet is missing ['b', 'c']",
     {"missing": ["b", "c"]}),
    (InternalVerificationFailure("counterexample ('a',) failed verification"),
     "counterexample ('a',) failed verification", {}),
    (ParseError("bad token", 4), "line 4: bad token", {"line": 4}),
    (ParseError("bad token"), "bad token", {"line": None}),
    (AdbError("any text"), "any text", {}),
    (CliError("cannot read x.adb: gone"), "cannot read x.adb: gone", {}),
]


def assert_round_trips(exc):
    """Every copy of ``exc`` has its type, message, ``.args`` and attributes."""
    for twin in round_trips(exc):
        assert type(twin) is type(exc)
        assert str(twin) == str(exc)
        assert twin.args == exc.args
        assert vars(twin) == vars(exc)


@pytest.mark.parametrize("exc, text, attributes", OTHERS,
                         ids=[type(row[0]).__name__ for row in OTHERS])
def test_other_errors(exc, text, attributes):
    assert str(exc) == text
    assert exc.args == (text,)
    assert vars(exc) == attributes
    assert_round_trips(exc)


def test_tables_cover_every_exported_error():
    covered = {row[0] for row in ONE_VALUE} | {type(row[0]) for row in OTHERS}
    covered.add(MissingStart)
    assert {getattr(adb, name) for name in adb._EXPORTS["errors"]} <= covered


def test_valued_errors_reject_a_wrong_number_of_values():
    for make in (InvalidSymbol, lambda: InvalidSymbol("a", "b"),
                 lambda: MissingStart("x"), lambda: WindowTooShort(3)):
        with pytest.raises(TypeError):
            make()


def test_a_round_trip_keeps_added_notes():
    exc = BoundExceeded(5)
    exc.__notes__ = ["while deciding membership"]  # as add_note does from 3.11 on
    for twin in round_trips(exc):
        assert twin.__notes__ == ["while deciding membership"]
