import pytest

from adb.errors import (
    AdbError,
    BoundExceeded,
    DecreasingTimestamp,
    DuplicateLocation,
    InvalidStep,
    InvalidSymbol,
    MissingStart,
    ReservedSymbol,
    UnknownLocation,
    UnknownSymbol,
)

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


def test_missing_start_message():
    assert str(MissingStart()) == "no start location declared"
    assert MissingStart().args == ("no start location declared",)
