import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adb import (
    EPS,
    TICK,
    DecreasingTimestamp,
    InvalidSymbol,
    Out,
    ParseError,
    format_labels,
    format_timed_word,
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
from adb.words import check_symbol


def test_out_label_validation():
    Out("a", 0)
    Out("no-dash_problem#", 3)
    with pytest.raises(InvalidSymbol):
        Out("tick", 0)
    with pytest.raises(InvalidSymbol):
        Out("eps", 1)
    with pytest.raises(InvalidSymbol):
        Out("white space", 0)
    with pytest.raises(ValueError):
        Out("a", -1)


def test_oword_basic_cycle():
    labels = parse_labels("a/0 b/1 c/2")
    assert oword(labels) == (("a", 0), ("b", 1), ("c", 2))


def test_oword_eps_ignored_tick_advances():
    labels = (Out("a", 0), EPS, TICK, Out("b", 0), EPS)
    assert oword(labels) == (("a", 0), ("b", 1))


def test_oword_interleaves_delayed_output():
    # the delay-2 output from time 0 lands between later letters
    labels = parse_labels("a/2 tick b/0 tick c/0")
    assert oword(labels) == (("b", 1), ("a", 2), ("c", 2))


def test_oword_stability_at_equal_timestamps():
    # both surface at time 1; generation order is kept
    labels = parse_labels("x/1 tick y/0")
    assert oword(labels) == (("x", 1), ("y", 1))


def test_oword_survey_vehicle_run():
    labels = parse_labels(
        "point/0 yes/0 yes/1 #/0 tick point/0 yes/0 no/1 point/0 may/0 no/1 #/0 tick"
    )
    assert format_timed_word(oword(labels)) == (
        "point@0 yes@0 #@0 yes@1 point@1 yes@1 point@1 may@1 #@1 no@2 no@2"
    )


def test_oword_cycle_with_idle_ticks():
    labels = parse_labels(
        "a/0 b/1 c/2 a/0 b/1 c/2 tick tick a/0 b/1 c/2 "
        "tick tick tick tick a/0 b/1 c/2"
    )
    assert format_timed_word(oword(labels)) == (
        "a@0 a@0 b@1 b@1 c@2 c@2 a@2 b@3 c@4 a@6 b@7 c@8"
    )


def test_oword_two_loop_interleaving():
    labels = parse_labels("a/0 c/1 a/0 c/1 b/0 d/2 a/0 c/1 b/0 d/2")
    assert format_timed_word(oword(labels)) == (
        "a@0 a@0 b@0 a@0 b@0 c@1 c@1 c@1 d@2 d@2"
    )


def test_word_helpers():
    w = (("a", 0), ("b", 2))
    assert untime(w) == ("a", "b")
    assert shift(w, 3) == (("a", 3), ("b", 5))
    assert kappa(("a", "b"), 2) == (("a", 2), ("b", 2))
    assert rep(("x",), 3) == ("x", "x", "x")
    assert rep(("x", "y"), 0) == ()
    for helper, arg in ((shift, w), (kappa, ("a",)), (rep, ("x",))):
        with pytest.raises(ValueError, match="nonnegative"):
            helper(arg, -1)


def test_validate_timed_word_rejects_decrease():
    with pytest.raises(DecreasingTimestamp):
        validate_timed_word((("a", 2), ("b", 1)))
    with pytest.raises(DecreasingTimestamp):
        validate_timed_word((("a", -1),))


def test_validate_timed_word_rejects_the_first_bad_symbol():
    # each distinct symbol is checked once, so repeats of good symbols come
    # first; the bad symbol raises at its first occurrence, before the
    # decreasing stamp after it, with the error check_symbol raises
    good = (("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 1))
    for bad in ("a b", "tick", "", ["a"]):
        word = good + ((bad, 2), ("a", 3), (bad, 1))
        with pytest.raises(InvalidSymbol) as exc:
            validate_timed_word(word)
        with pytest.raises(InvalidSymbol) as want:
            check_symbol(bad)
        assert str(exc.value) == str(want.value)
        assert exc.value.args == want.value.args
    repeated = good + tuple((sym, 2) for sym, _ in good)
    assert validate_timed_word(repeated) == repeated


def test_validate_timed_word_rejects_non_int_stamp():
    for stamp in (1.5, 1.0, "1", None):
        with pytest.raises(TypeError):
            validate_timed_word((("a", 0), ("b", stamp)))
    assert validate_timed_word((("a", False), ("b", True))) == (("a", 0), ("b", 1))


def test_parse_format_round_trips():
    assert parse_timed_word("a@0 b@1") == (("a", 0), ("b", 1))
    assert parse_timed_word("") == ()
    assert format_timed_word(()) == ""
    assert parse_untimed_word("a b c") == ("a", "b", "c")
    assert parse_untimed_word("") == ()
    labels = parse_labels("a/0 tick eps b/2")
    assert format_labels(labels) == "a/0 tick eps b/2"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_timed_word("a@")
    with pytest.raises(ParseError):
        parse_timed_word("a@x")
    with pytest.raises(ParseError):
        parse_timed_word("b@1 a@0")
    with pytest.raises(ParseError):
        parse_untimed_word("a@0")
    with pytest.raises(ParseError):
        parse_labels("a/")
    with pytest.raises(ParseError):
        parse_labels("a/-1")
    # a number is one or more ASCII digits; "-" then digits is negative
    for token in ("+1", "1_0", "\u0663", "1.0"):
        with pytest.raises(ParseError, match="bad timestamp"):
            parse_timed_word("a@0 b@%s" % token)
        with pytest.raises(ParseError, match="bad delay"):
            parse_labels("a/%s" % token)
    for token in ("-0", "-1"):
        with pytest.raises(ParseError, match="negative timestamp"):
            parse_timed_word("a@%s" % token)
        with pytest.raises(ParseError, match="negative delay"):
            parse_labels("a/%s" % token)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="int() converts any number of digits")
def test_number_past_int_digit_limit_is_bad():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ParseError, match="bad timestamp"):
            parse_timed_word("a@" + "1" * 1000)
        with pytest.raises(ParseError, match="bad delay"):
            parse_labels("a/" + "1" * 1000)
    finally:
        sys.set_int_max_str_digits(old)


symbols = st.sampled_from(["a", "b", "c", "d"])
label_st = st.one_of(
    st.just(EPS),
    st.just(TICK),
    st.builds(Out, symbols, st.integers(min_value=0, max_value=4)),
)


@given(st.lists(label_st, max_size=30))
def test_oword_is_sorted_and_complete(labels):
    w = oword(labels)
    stamps = [t for _, t in w]
    assert stamps == sorted(stamps)
    outs = [l for l in labels if isinstance(l, Out)]
    assert len(w) == len(outs)
    assert sorted(sym for sym, _ in w) == sorted(l.symbol for l in outs)


@given(st.lists(label_st, max_size=30))
def test_oword_is_a_valid_timed_word(labels):
    w = oword(labels)
    assert validate_timed_word(w) == w


@given(st.lists(label_st, max_size=30))
def test_oword_stable_under_tagging(labels):
    # tag each output with its generation index via a unique delay-preserving
    # rename, then check equal-stamp letters keep generation order
    tagged = []
    n = 0
    for l in labels:
        if isinstance(l, Out):
            tagged.append(Out("%s_%d" % (l.symbol, n), l.delay))
            n += 1
        else:
            tagged.append(l)
    w = oword(tagged)
    for (s1, t1), (s2, t2) in zip(w, w[1:]):
        if t1 == t2:
            assert int(s1.rsplit("_", 1)[1]) < int(s2.rsplit("_", 1)[1])


@given(st.lists(symbols, max_size=10), st.integers(min_value=0, max_value=5))
def test_kappa_untime_inverse(u, t):
    assert untime(kappa(tuple(u), t)) == tuple(u)


@given(st.lists(label_st, max_size=20))
def test_labels_text_round_trip(labels):
    assert parse_labels(format_labels(labels)) == tuple(labels)


def parse_timed_word_in_two_passes(text):
    """The parser as it was before it checked timestamp order in its own
    loop: tokens first, then ``validate_timed_word`` over the letters."""
    from adb.words import check_symbol

    letters = []
    for token in text.split():
        sym, sep, stamp = token.partition("@")
        if not sep or not stamp:
            raise ParseError("expected sym@t token, got %r" % token)
        number = re.fullmatch(r"(-?)([0-9]+)", stamp)
        if number is None:
            raise ParseError("bad timestamp in %r" % token)
        if number[1]:
            raise ParseError("negative timestamp in %r" % token)
        t = int(stamp)
        try:
            check_symbol(sym)
        except InvalidSymbol:
            raise ParseError("bad symbol in %r" % token) from None
        letters.append((sym, t))
    try:
        return validate_timed_word(letters)
    except DecreasingTimestamp as exc:
        raise ParseError("timestamps decrease at letter %d" % exc.index) from None


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


timed_tokens = st.one_of(
    st.builds("{}@{}".format, st.sampled_from(["a", "b", "#", "x-1", "tick", "",
                                               "a b", "é"]),
              st.sampled_from(["0", "1", "2", "5", "-1", "-0", "+3", "1_0",
                               "\u0663", "x", "", "1@2"])),
    st.sampled_from(["a", "a@", "@0", "@", "a@0@", "eps@1"]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(timed_tokens, max_size=8), st.sampled_from([" ", "  ", "\t", "\n"]))
def test_parse_timed_word_matches_two_pass_parser(tokens, sep):
    text = sep.join(tokens)
    want = outcome(parse_timed_word_in_two_passes, text)
    assert outcome(parse_timed_word, text) == want


def test_parse_timed_word_reports_bad_token_before_earlier_decrease():
    with pytest.raises(ParseError, match="bad symbol"):
        parse_timed_word("a@2 b@1 z!@3")
    with pytest.raises(ParseError, match="at letter 1"):
        parse_timed_word("a@2 b@1 c@0")


@pytest.mark.parametrize("parse, text, message", [
    # a token without its separator or its number
    (parse_timed_word, "a", "expected sym@t token, got 'a'"),
    (parse_timed_word, "a@", "expected sym@t token, got 'a@'"),
    (parse_labels, "a", "expected sym/d, tick or eps, got 'a'"),
    (parse_labels, "a/", "expected sym/d, tick or eps, got 'a/'"),
    (parse_labels, "a@0", "expected sym/d, tick or eps, got 'a@0'"),
    # the number is read before the symbol
    (parse_timed_word, "a@x", "bad timestamp in 'a@x'"),
    (parse_timed_word, "a@1@2", "bad timestamp in 'a@1@2'"),
    (parse_timed_word, "%@x", "bad timestamp in '%@x'"),
    (parse_timed_word, "%@-1", "negative timestamp in '%@-1'"),
    (parse_timed_word, "%@0", "bad symbol in '%@0'"),
    (parse_timed_word, "@0", "bad symbol in '@0'"),
    (parse_timed_word, "tick@0", "bad symbol in 'tick@0'"),
    (parse_labels, "a/x", "bad delay in 'a/x'"),
    (parse_labels, "%/x", "bad delay in '%/x'"),
    (parse_labels, "%/-1", "negative delay in '%/-1'"),
    (parse_labels, "%/0", "bad symbol in '%/0'"),
    (parse_labels, "tick/3", "bad symbol in 'tick/3'"),
    (parse_labels, "eps/0", "bad symbol in 'eps/0'"),
    # a bad token wins over an earlier decrease
    (parse_timed_word, "a@2 b@1", "timestamps decrease at letter 1"),
    (parse_timed_word, "a@2 b@1 c", "expected sym@t token, got 'c'"),
    (parse_timed_word, "a@2 b@1 c@x", "bad timestamp in 'c@x'"),
    (parse_timed_word, "a@2 b@1 %@3", "bad symbol in '%@3'"),
    (parse_labels, "a/0 tick b", "expected sym/d, tick or eps, got 'b'"),
])
def test_word_parser_messages(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message
