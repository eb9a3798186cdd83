import pytest

from adb import (
    BoundExceeded,
    WindowTooShort,
    brute_member_timed,
    enumerate_accepting_runs,
    is_accepting_run,
    language_sample,
    member_timed,
    parse_timed_word,
    pump,
    pump_decompose,
    random_mutations,
    run_output,
    untimed_sample,
    validate_timed_word,
)


def test_enumerate_runs_are_accepting(a1, a2, a3):
    for auto in (a1, a2, a3):
        runs = list(enumerate_accepting_runs(auto, 8))
        assert runs
        for run in runs:
            assert is_accepting_run(auto, run)
            assert len(run) <= 8


def test_enumerate_runs_deterministic(a3):
    first = list(enumerate_accepting_runs(a3, 6))
    second = list(enumerate_accepting_runs(a3, 6))
    assert first == second
    assert len(first) == len(set(first))


def test_enumerate_respects_cap(a2):
    with pytest.raises(BoundExceeded):
        list(enumerate_accepting_runs(a2, 30, cap=10))


def test_language_sample_known_words(a1):
    words = language_sample(a1, 6)
    assert () in words
    assert parse_timed_word("a@0 b@1 c@2") in words
    assert parse_timed_word("a@0 a@0 b@1 b@1 c@2 c@2") in words
    assert untimed_sample(a1, 6) == {
        (),
        ("a", "b", "c"),
        ("a", "a", "b", "b", "c", "c"),
    }


def test_brute_member_agrees_on_basics(a1, a2):
    for text, want in [
        ("", True),
        ("a@0 b@1 c@2", True),
        ("a@0 a@0 b@1 b@1 c@2 c@2", True),
        ("a@0", False),
        ("a@1 b@2 c@3", False),
    ]:
        assert brute_member_timed(a1, parse_timed_word(text)) is want
    # a2's idle detour advances time by two ticks, so only even shifts work
    assert not brute_member_timed(a2, parse_timed_word("a@1 b@2 c@3"))
    assert brute_member_timed(a2, parse_timed_word("a@2 b@3 c@4"))
    assert not brute_member_timed(a2, parse_timed_word("a@1 b@1 c@1"))


def test_brute_member_terminates_on_tick_cycles(a2):
    # idle tick loops must not blow up the search
    assert brute_member_timed(a2, ()) is True
    assert brute_member_timed(a2, parse_timed_word("a@0 b@1 c@2")) is True


def test_differential_membership_on_samples(corpus_adbs):
    for auto in corpus_adbs.values():
        for w in language_sample(auto, 8):
            assert brute_member_timed(auto, w)
            assert member_timed(auto, w)


def test_differential_membership_on_mutations(corpus_adbs):
    cases = 0
    for auto in corpus_adbs.values():
        for w in sorted(language_sample(auto, 8)):
            for mutant in random_mutations(w, auto.alphabet, 20, seed=1):
                assert member_timed(auto, mutant) == brute_member_timed(auto, mutant)
                cases += 1
    assert cases > 100


def test_pump_decompose_and_pump(a1):
    run = next(r for r in enumerate_accepting_runs(a1, 6) if len(r) == 6)
    dec = pump_decompose(a1, run, (0, 6))
    assert 1 <= len(dec.pump) <= len(a1.locations)
    for i in (0, 1, 2, 5):
        pumped = pump(a1, dec, i)
        assert is_accepting_run(a1, pumped)
    assert pump(a1, dec, 1).steps == run.steps


def test_pump_window_placement(a2):
    runs = [r for r in enumerate_accepting_runs(a2, 10) if len(r) >= 8]
    assert runs
    run = runs[0]
    dec = pump_decompose(a2, run, (2, 2 + len(a2.locations)))
    assert len(dec.prefix) == 2
    assert is_accepting_run(a2, pump(a2, dec, 3))


def test_pump_window_too_short(a1):
    run = next(r for r in enumerate_accepting_runs(a1, 6) if len(r) == 6)
    with pytest.raises(WindowTooShort):
        pump_decompose(a1, run, (0, 2))
    for window in ((-1, 5), (2, 1), (0, 7)):
        with pytest.raises(ValueError, match="window out of range"):
            pump_decompose(a1, run, window)


def test_pump_rejects_non_accepting_run(a1):
    from adb import Out, Run

    partial = Run("l0", ((Out("a", 0), "l1"),))
    with pytest.raises(ValueError):
        pump_decompose(a1, partial, (0, 1))


def test_pumped_words_stay_in_language(a1):
    run = next(r for r in enumerate_accepting_runs(a1, 6) if len(r) == 6)
    dec = pump_decompose(a1, run, (0, 6))
    for i in (0, 1, 3):
        w = run_output(a1, pump(a1, dec, i))
        assert brute_member_timed(a1, w)


def is_single_mutation(w, mutant):
    """True when ``mutant`` is ``w`` with one symbol swapped (possibly for
    the same symbol), one timestamp moved by one unit, or one letter deleted."""
    if len(mutant) == len(w) - 1:
        return any(mutant == w[:i] + w[i + 1:] for i in range(len(w)))
    if len(mutant) != len(w):
        return False
    changed = [i for i in range(len(w)) if mutant[i] != w[i]]
    if len(changed) != 1:
        return not changed
    (sym, t), (new_sym, new_t) = w[changed[0]], mutant[changed[0]]
    return new_t == t or (new_sym == sym and abs(new_t - t) == 1)


def test_random_mutations_are_valid_and_deterministic(a1):
    w = parse_timed_word("a@0 a@0 b@1 b@1 c@2 c@2")
    first = list(random_mutations(w, a1.alphabet, 50, seed=0))
    second = list(random_mutations(w, a1.alphabet, 50, seed=0))
    assert first == second
    assert first
    for mutant in first:
        assert validate_timed_word(mutant) == mutant
        assert is_single_mutation(w, mutant)
    assert list(random_mutations((), a1.alphabet, 5)) == []
