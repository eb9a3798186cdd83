import pytest
from hypothesis import given
from hypothesis import strategies as st

from adb import (
    EPS,
    TICK,
    Adb,
    InvalidSymbol,
    Nfa,
    Out,
    ParseError,
    UnknownLocation,
    parse_adb,
    parse_automaton,
    parse_nfa,
    print_adb,
    print_nfa,
    single_word_nfa,
    validate_adb,
    validate_nfa,
)
from conftest import EXAMPLES, adbs, nfas


def test_parse_adb_basics(a1):
    assert a1.locations == frozenset({"l0", "l1", "l2"})
    assert a1.alphabet == frozenset({"a", "b", "c"})
    assert a1.start == "l0"
    assert a1.accepting == frozenset({"l0"})
    assert ("l1", Out("b", 1), "l2") in a1.transitions


def test_parse_adb_eps_and_tick(a2):
    assert ("l0", TICK, "l3") in a2.transitions
    union_like = parse_adb(
        "alphabet a\nlocations p q\nstart p\naccept q\ntrans p q eps\n"
    )
    assert ("p", EPS, "q") in union_like.transitions


def test_comment_and_blank_handling():
    text = (
        "# leading comment\n"
        "alphabet # a\n"
        "\n"
        "locations l0 l1\n"
        "start l0\n"
        "accept l0\n"
        "   # indented comment\n"
        "trans l0 l1 out # 0\n"
        "trans l1 l0 out a 1\n"
    )
    auto = parse_adb(text)
    assert "#" in auto.alphabet
    assert ("l0", Out("#", 0), "l1") in auto.transitions


def test_empty_accept_section():
    auto = parse_adb("alphabet a\nlocations l0\nstart l0\naccept\n")
    assert auto.accepting == frozenset()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError):
        parse_adb("locations l0\nstart l0\naccept\n")
    with pytest.raises(ParseError) as info:
        parse_adb(
            "alphabet a\nlocations l0\nstart l0\naccept\ntrans l0 l0 out a x\n"
        )
    assert info.value.line == 5
    with pytest.raises(ParseError):
        parse_adb("alphabet a\nlocations l0\nstart l0 l1\naccept\n")
    with pytest.raises(ParseError):
        parse_adb("alphabet a\nlocations l0\nstart l0\naccept\nbogus line\n")
    for delay, message in (("-1", "negative delay"), ("-0", "negative delay"),
                           ("+1", "bad delay"), ("1_0", "bad delay"),
                           ("\u0661", "bad delay")):
        with pytest.raises(ParseError, match=message) as info:
            parse_adb("alphabet a\nlocations l0\nstart l0\naccept\n"
                      "trans l0 l0 out a %s\n" % delay)
        assert info.value.line == 5


ADB_HEAD = "alphabet a\nlocations l0\nstart l0\naccept\n"
NFA_HEAD = "alphabet a\nstates s0\nstart s0\naccept\n"
NEEDS_DELAY = "out transition needs symbol and delay"
MALFORMED = "malformed transition"
TRANSITION_ERRORS = [
    (parse_adb, ADB_HEAD + "trans l0 l0 out a", NEEDS_DELAY),
    (parse_adb, ADB_HEAD + "trans l0 l0 out a 1 2", NEEDS_DELAY),
    (parse_adb, ADB_HEAD + "trans l0 l0 eps x", MALFORMED),
    (parse_adb, ADB_HEAD + "trans l0 l0 tick x", MALFORMED),
    (parse_adb, ADB_HEAD + "trans l0 l0 on a", MALFORMED),
    (parse_adb, ADB_HEAD + "trans l0 l0", MALFORMED),
    (parse_adb, ADB_HEAD + "trans l0 l0 out a% 1", "invalid symbol: 'a%'"),
    (parse_adb, ADB_HEAD + "trans l0 l0 out a x", "bad delay 'x'"),
    (parse_adb, ADB_HEAD + "trans l0 l0 out a -1", "negative delay"),
    (parse_adb, ADB_HEAD + "bogus l0 l0 eps", "expected trans line, got 'bogus'"),
    (parse_nfa, NFA_HEAD + "trans s0 s0 out a 0", MALFORMED),
    (parse_nfa, NFA_HEAD + "trans s0 s0 tick", MALFORMED),
    (parse_nfa, NFA_HEAD + "trans s0 s0 on", MALFORMED),
    (parse_nfa, NFA_HEAD + "trans s0 s0 on a b", MALFORMED),
    (parse_nfa, NFA_HEAD + "trans s0 s0 eps x", MALFORMED),
    (parse_nfa, NFA_HEAD + "trans s0", MALFORMED),
]


@pytest.mark.parametrize("parse, text, message", TRANSITION_ERRORS)
def test_transition_errors_carry_line_numbers(parse, text, message):
    for reader in (parse, parse_automaton):
        with pytest.raises(ParseError) as info:
            reader(text)
        assert str(info.value) == "line 5: " + message
        assert info.value.line == 5


@pytest.mark.parametrize("build, show, parse", [
    (validate_adb, print_adb, parse_adb),
    (validate_nfa, print_nfa, parse_nfa),
])
def test_printed_lines_end_without_whitespace(build, show, parse):
    for auto in (build(["q"], [], "q", ["q"], []), build(["q"], [], "q", [], [])):
        text = show(auto)
        assert all(line == line.rstrip() for line in text.splitlines())
        assert parse(text) == auto
        assert parse_automaton(text) == auto


def test_adb_round_trip_on_corpus(corpus_adbs):
    for name, auto in corpus_adbs.items():
        assert parse_adb(print_adb(auto)) == auto
    # printing is deterministic
    a1 = corpus_adbs["a1"]
    assert print_adb(a1) == print_adb(parse_adb(print_adb(a1)))


def test_nfa_round_trip_on_corpus(corpus_nfas):
    for name, nfa in corpus_nfas.items():
        assert parse_nfa(print_nfa(nfa)) == nfa


@pytest.mark.parametrize("nfa, error", [
    (single_word_nfa(("a", "b"), {"a", "b"}), UnknownLocation),  # int states
    (validate_nfa(["q", "x y"], ["a"], "x y", [], []), UnknownLocation),
    (validate_nfa(["q"], ["a", "b c"], "q", [], []), InvalidSymbol),
])
def test_print_nfa_refuses_what_would_not_read_back(nfa, error):
    with pytest.raises(error):
        print_nfa(nfa)


def test_nfa_examples_round_trip():
    for path in sorted(EXAMPLES.glob("*.nfa")):
        nfa = parse_nfa(path.read_text())
        text = print_nfa(nfa)
        assert parse_nfa(text) == nfa
        assert print_nfa(parse_nfa(text)) == text


def test_parse_nfa_eps():
    nfa = parse_nfa(
        "alphabet a\nstates p q\nstart p\naccept q\ntrans p q eps\ntrans p p on a\n"
    )
    assert ("p", None, "q") in nfa.transitions
    assert ("p", "a", "p") in nfa.transitions


NO_HEADER = "neither a locations nor a states section found"


def test_parse_automaton_dispatch():
    adb_file = (EXAMPLES / "a1.adb").read_text()
    nfa_file = (EXAMPLES / "astar-b.nfa").read_text()
    assert isinstance(parse_automaton(adb_file), Adb)
    assert isinstance(parse_automaton(nfa_file), Nfa)
    with pytest.raises(ParseError):
        parse_automaton("alphabet a\nstart x\n")
    # the header may follow comments and blank lines, and be indented
    for lead in ("# comment\n", "\n \n\t\n", "# a\n\n# states s0\n#locations\n"):
        assert parse_automaton(lead + adb_file) == parse_adb(adb_file)
        assert parse_automaton(lead + nfa_file) == parse_nfa(nfa_file)
    indented = "".join("  \t" + line for line in adb_file.splitlines(True))
    assert parse_automaton(indented) == parse_adb(adb_file)
    # a ``#`` token is a comment, with or without a space after it
    for text in ("#locations l0\n", "# states s0\n", "alphabet a\nstart x\n"):
        with pytest.raises(ParseError) as info:
            parse_automaton(text)
        assert str(info.value) == NO_HEADER


@given(adbs())
def test_adb_round_trip_random(auto):
    text = print_adb(auto)
    assert parse_adb(text) == auto
    assert parse_automaton(text) == auto


@given(nfas())
def test_nfa_round_trip_random(nfa):
    text = print_nfa(nfa)
    assert parse_nfa(text) == nfa
    assert parse_automaton(text) == nfa


KEYWORDS = ["alphabet", "locations", "states", "start", "accept", "trans",
            "out", "on", "eps", "tick", "a", "b", "#", "l0", "l1", "0", "1", "-1",
            "x"]
PREFIXES = ["", "alphabet a b\nlocations l0 l1\nstart l0\naccept l1\n",
            "alphabet a b\nstates l0 l1\nstart l0\naccept l1\n"]


@given(
    st.sampled_from(PREFIXES),
    st.lists(st.lists(st.sampled_from(KEYWORDS), max_size=7), max_size=8),
)
def test_random_text_raises_only_parse_error(prefix, lines):
    text = prefix + "\n".join(" ".join(line) for line in lines)
    for parse in (parse_automaton, parse_adb, parse_nfa):
        try:
            parse(text)
        except ParseError:
            pass


def reference_dispatch(text):
    """The parser that the first non-blank, non-``#`` row whose first token
    is ``locations`` or ``states`` names, as ``str.splitlines`` breaks rows."""
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "locations":
            return parse_adb
        if tokens[0] == "states":
            return parse_nfa
    return None


def outcome(parse, text):
    if parse is None:
        return ("error", NO_HEADER, None)
    try:
        return ("ok", parse(text))
    except ParseError as exc:
        return ("error", str(exc), exc.line)


@given(
    st.sampled_from(["", "# comment\n", "\n \n", "  \t", "#locations l0\n",
                     "# states s0\n"]),
    st.sampled_from(PREFIXES),
    st.lists(st.tuples(st.sampled_from(["", "  ", "\t"]),
                       st.lists(st.sampled_from(KEYWORDS), max_size=7),
                       st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"])),
             max_size=8),
)
def test_parse_automaton_agrees_with_reference_dispatch(lead, prefix, lines):
    text = lead + prefix + "".join(
        indent + " ".join(line) + end for indent, line, end in lines)
    assert outcome(parse_automaton, text) == outcome(reference_dispatch(text), text)
