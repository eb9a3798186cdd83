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


class _ValuedError(AdbError):
    """An error kept as the values named in ``fields``, one attribute each, from
    which copy and pickle rebuild it; its message is ``template % {field: value}``."""

    fields = ("name",)

    def __init__(self, *values):
        if len(values) != len(self.fields):
            raise TypeError("%s takes %r" % (type(self).__name__, self.fields))
        named = dict(zip(self.fields, values))
        super().__init__(self.template % named)
        self.__dict__.update(named)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.fields), self.__dict__


class InvalidSymbol(_ValuedError):
    template = "invalid symbol: %(name)r"


class ReservedSymbol(_ValuedError):
    template = "reserved symbol used as output symbol: %(name)r"


class DecreasingTimestamp(_ValuedError):
    template, fields = "timestamp decreases at letter %(index)d", ("index",)


class UnknownLocation(_ValuedError):
    template = "unknown location: %(name)r"


class DuplicateLocation(_ValuedError):
    template = "duplicate location: %(name)r"


class MissingStart(_ValuedError):
    template, fields = "no start location declared", ()


class InvalidStep(_ValuedError):
    template = "run step %(index)d is not a transition of the automaton"
    fields = ("index",)


class UnknownSymbol(_ValuedError):
    template = "symbol not in alphabet: %(name)r"


class IncompatibleAlphabet(_ValuedError):
    template, fields = "spec alphabet is missing %(missing)s", ("missing",)


class BoundExceeded(_ValuedError):
    """A search or enumeration hit the configured state/run cap."""

    template, fields = "exceeded cap of %(cap)d", ("cap",)


class WindowTooShort(_ValuedError):
    template = "pumping window spans %(got)d transitions, need at least %(needed)d"
    fields = ("needed", "got")


class InternalVerificationFailure(AdbError):
    """A produced counterexample failed its own sanity check; implementation bug."""
