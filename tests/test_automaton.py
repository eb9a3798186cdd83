import pytest

from adb import (
    EPS,
    TICK,
    Adb,
    DuplicateLocation,
    IntersectionWitness,
    InvalidStep,
    InvalidSymbol,
    MissingStart,
    Nfa,
    Out,
    PumpDecomposition,
    ReservedSymbol,
    Run,
    UnknownLocation,
    Verdict,
    check_run,
    is_accepting_run,
    nfa_member,
    reg_view,
    run_output,
    validate_adb,
)


def simple():
    return validate_adb(
        ["l0", "l1"],
        ["a", "b"],
        "l0",
        ["l0"],
        [("l0", Out("a", 1), "l1"), ("l1", Out("b", 0), "l0"), ("l0", TICK, "l0")],
    )


def test_validate_adb_invariants():
    auto = simple()
    assert auto.max_delay == 1
    assert auto.start == "l0"
    assert len(auto.transitions) == 3

    with pytest.raises(DuplicateLocation):
        validate_adb(["l0", "l0"], ["a"], "l0", [], [])
    with pytest.raises(UnknownLocation):
        validate_adb(["l 0"], ["a"], "l 0", [], [])
    with pytest.raises(MissingStart):
        validate_adb(["l0"], ["a"], "", [], [])
    with pytest.raises(ReservedSymbol):
        validate_adb(["l0"], ["tick"], "l0", [], [])
    with pytest.raises(ReservedSymbol):
        validate_adb(["l0"], ["eps"], "l0", [], [])
    with pytest.raises(UnknownLocation):
        validate_adb(["l0"], ["a"], "lx", [], [])
    with pytest.raises(UnknownLocation):
        validate_adb(["l0"], ["a"], "l0", ["lx"], [])
    with pytest.raises(UnknownLocation):
        validate_adb(["l0"], ["a"], "l0", [], [("l0", EPS, "lx")])
    with pytest.raises(UnknownLocation):
        validate_adb(["l0"], ["a"], "l0", [], [("lx", EPS, "l0")])
    with pytest.raises(InvalidSymbol):
        validate_adb(["l0"], ["a"], "l0", [], [("l0", Out("z", 0), "l0")])
    with pytest.raises(InvalidStep):
        validate_adb(["l0"], ["a"], "l0", [], [("l0", "tick", "l0")])


def test_validate_names_a_bad_label_by_its_input_position():
    step = ("l0", Out("a", 0), "l1")
    with pytest.raises(InvalidStep) as info:
        validate_adb(["l0", "l1"], ["a"], "l0", [], [step, step, ("l1", "tick", "l0")])
    assert info.value.index == 2


def test_max_delay_defaults_to_zero():
    auto = validate_adb(["l0"], ["a"], "l0", ["l0"], [("l0", EPS, "l0")])
    assert auto.max_delay == 0


def test_edges_are_deterministically_ordered():
    auto = simple()
    assert auto.edges_from("l0") == ((Out("a", 1), "l1"), (TICK, "l0"))
    with pytest.raises(UnknownLocation):
        auto.edges_from("nope")


def test_run_accessors():
    run = Run("l0", ((Out("a", 1), "l1"), (Out("b", 0), "l0")))
    assert len(run) == 2
    assert run.end == "l0"
    assert run.locations() == ("l0", "l1", "l0")
    assert run.labels() == (Out("a", 1), Out("b", 0))
    assert Run("l0").end == "l0"


def test_check_run_rejects_bad_steps():
    auto = simple()
    good = Run("l0", ((Out("a", 1), "l1"), (Out("b", 0), "l0")))
    check_run(auto, good)
    assert is_accepting_run(auto, good)
    assert not is_accepting_run(auto, Run("l0", ((Out("a", 1), "l1"),)))
    with pytest.raises(InvalidStep) as info:
        check_run(auto, Run("l0", ((Out("b", 0), "l1"),)))
    assert info.value.index == 0
    with pytest.raises(InvalidStep):
        check_run(auto, Run("l0", ((Out("a", 1), "l1"), (TICK, "l0"))))
    with pytest.raises(UnknownLocation):
        check_run(auto, Run("lx"))


def test_run_output_goes_through_oword(a1):
    run = Run("l0", ((Out("a", 0), "l1"), (Out("b", 1), "l2"), (Out("c", 2), "l0")))
    assert run_output(a1, run) == (("a", 0), ("b", 1), ("c", 2))


def test_reg_view_language(a1):
    view = reg_view(a1)
    assert "tick" in view.alphabet
    assert ("a", 0) in view.alphabet
    assert nfa_member(view, [("a", 0), ("b", 1), ("c", 2)])
    assert not nfa_member(view, [("a", 0)])
    assert nfa_member(view, [])


def test_reg_view_keeps_eps_and_tick(a2):
    view = reg_view(a2)
    assert nfa_member(view, ["tick", "tick"])
    assert not nfa_member(view, ["tick"])
    view = reg_view(validate_adb(["l0", "l1"], ["a"], "l0", ["l1"], [("l0", EPS, "l1")]))
    assert ("l0", None, "l1") in view.transitions
    assert nfa_member(view, [])


STEP = (Out("a", 1), "l0")
RECORDS = [
    (Out, dict(symbol="a", delay=1)),
    (Adb, dict(locations=frozenset({"l0"}), alphabet=frozenset({"a"}), start="l0",
               accepting=frozenset({"l0"}), transitions=frozenset({("l0",) + STEP}))),
    (Run, dict(start="l0", steps=(STEP,))),
    (Nfa, dict(states=frozenset({0, 1}), alphabet=frozenset({"a"}), start=0,
               accepting=frozenset({1}), transitions=frozenset({(0, "a", 1)}))),
    (Verdict, dict(holds=False, counterexample=("a",), witness_run=Run("l0", (STEP,)))),
    (IntersectionWitness, dict(word=("a",), run=Run("l0", (STEP,)), states_explored=3)),
    (PumpDecomposition, dict(start="l0", prefix=(), side0=(), pump=(STEP,),
                             side1=(), suffix=())),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_value_semantics(cls, fields):
    record, twin = cls(**fields), cls(**fields)
    assert record == twin and hash(record) == hash(twin)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    if cls is not Out:
        assert repr(record) == "%s(%s)" % (
            cls.__name__, ", ".join("%s=%r" % item for item in fields.items()))
    for name in list(fields) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == twin


def test_record_defaults_and_checks():
    assert Run("l0").steps == () and Run(start="l0") == Run("l0", ())
    verdict = Verdict(holds=True)
    assert verdict.counterexample is None and verdict.witness_run is None
    assert Run("l0", (STEP,)) != ("l0", (STEP,))  # not a tuple
    assert repr(Out("a", 2)) == "Out(a/2)"
    assert repr(EPS) == "EPS" and repr(TICK) == "TICK"
    with pytest.raises(InvalidSymbol):
        Out("tick", 0)
    with pytest.raises(ValueError):
        Out("a", -1)
    for delay in (1.5, 2.0, "2", None):
        with pytest.raises(TypeError):
            Out("a", delay)
    assert Out("a", True).delay == 1  # a bool is an int


def test_adb_cached_indexes(a3):
    twin = validate_adb(a3.locations, a3.alphabet, a3.start, a3.accepting,
                        a3.transitions)
    assert a3.max_delay == 2
    assert [(loc,) + edge for loc in ("l0", "l1", "l2")
            for edge in a3.edges_from(loc)] == [
        ("l0", Out("a", 0), "l1"),
        ("l0", Out("b", 0), "l2"),
        ("l1", Out("c", 1), "l0"),
        ("l2", Out("d", 2), "l0"),
    ]
    assert a3 == twin and hash(a3) == hash(twin)
