"""Automata with delay blocks: timed-output semantics, language
constructions, and decision procedures with brute-force oracles."""

from .analysis import (
    IntersectionWitness,
    Verdict,
    intersect_regular_empty,
    is_empty,
    member_timed,
    member_untimed,
    model_check,
    shortest_accepting_run,
)
from .automaton import (
    Adb,
    Run,
    check_run,
    is_accepting_run,
    reg_view,
    run_output,
    validate_adb,
)
from .constructions import concat, intersect_regular, lift_regular, star, union
from .errors import (
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
from .oracle import (
    PumpDecomposition,
    brute_member_timed,
    enumerate_accepting_runs,
    language_sample,
    pump,
    pump_decompose,
    random_mutations,
    untimed_sample,
)
from .regular import (
    Nfa,
    eliminate_eps,
    eps_closure,
    nfa_member,
    single_word_nfa,
    validate_nfa,
)
from .textio import parse_adb, parse_automaton, parse_nfa, print_adb, print_nfa
from .words import (
    EPS,
    TICK,
    Out,
    format_labels,
    format_timed_word,
    format_untimed_word,
    kappa,
    oword,
    parse_labels,
    parse_timed_word,
    parse_untimed_word,
    rep,
    shift,
    untime,
    validate_timed_word,
)

__version__ = "0.1.0"
