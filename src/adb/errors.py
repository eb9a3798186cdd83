"""Exception hierarchy shared by the whole package."""


class AdbError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AdbError):
    """Malformed text input (automaton file or word syntax)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class _OneValueError(AdbError):
    """An error about one value: its message is ``template % (value,)``, and
    the value is kept in the attribute named by ``field``."""

    field = "name"

    def __init__(self, value):
        super().__init__(self.template % (value,))
        setattr(self, self.field, value)


class InvalidSymbol(_OneValueError):
    template = "invalid symbol: %r"


class ReservedSymbol(_OneValueError):
    template = "reserved symbol used as output symbol: %r"


class DecreasingTimestamp(_OneValueError):
    template, field = "timestamp decreases at letter %d", "index"


class UnknownLocation(_OneValueError):
    template = "unknown location: %r"


class DuplicateLocation(_OneValueError):
    template = "duplicate location: %r"


class MissingStart(AdbError):
    def __init__(self):
        super().__init__("no start location declared")


class InvalidStep(_OneValueError):
    template, field = "run step %d is not a transition of the automaton", "index"


class UnknownSymbol(_OneValueError):
    template = "symbol not in alphabet: %r"


class IncompatibleAlphabet(AdbError):
    pass


class BoundExceeded(_OneValueError):
    """A search or enumeration hit the configured state/run cap."""

    template, field = "exceeded cap of %d", "cap"


class WindowTooShort(AdbError):
    def __init__(self, needed, got):
        super().__init__(
            "pumping window spans %d transitions, need at least %d" % (got, needed)
        )
        self.needed = needed
        self.got = got


class InternalVerificationFailure(AdbError):
    """A produced counterexample failed its own sanity check; implementation bug."""
