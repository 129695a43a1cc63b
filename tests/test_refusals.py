"""Each value type refuses, with SketchError, what no input file may hold.

One parametrized test per type feeds its slots a float, a bool, a str,
None, a nested list or a dict, wherever such a value is not one the
slot takes; the functions that take a roster refuse a string or a
mapping as one.  The file readers in ``persist`` rely on these checks, so a
file holding such a value is a FormatError (``tests/test_cli_fuzz.py``).
"""

from fractions import Fraction

import pytest

from crosscheck import (
    AlarmTrace,
    EvaluationPoint,
    EvaluationSketch,
    IndependentParams,
    Marginals,
    OverallSpec,
    PerLabelSpec,
    SketchError,
    SummaryClaims,
    generate_decisions,
    run_alarm,
    sketch_from_decisions,
)
from crosscheck.alarm import count_safe_hypotheses
from crosscheck.cli import EXIT_ERROR, EXIT_TRIGGERED, main

HALF = Fraction(1, 2)


def cases(**slots):
    """(slot, value) pairs, one per value of each slot's list."""
    return [(slot, value) for slot, values in slots.items() for value in values]


def sketch(**fields):
    return EvaluationSketch(**{
        "classifiers": ("u",), "q": 2, "counts": {"a": 1, "b": 1},
        "truth_split": {"a": (1, 0), "b": (0, 1)}, **fields,
    })


@pytest.mark.parametrize("slot, value", cases(
    classifiers=[1.0, True, "u", None, {"u": 0}],
    counts=[1.0, True, "ab", None],
    truth_split=[1.0, True, "ab"],
))
def test_sketch_refuses(slot, value):
    with pytest.raises(SketchError):
        sketch(**{slot: value})


def point(**fields):
    return EvaluationPoint(**{
        "q_a": 1, "correct_a": (1, 0), "correct_b": (1, 1),
        "pair_correct": {(0, 1): (0, 1)}, **fields,
    })


# a nested list and a dict of two entries, the roster's length, where a
# count list goes
NESTED, TABLE = [[1], [0]], {0: 1, 1: 0}
ANY = [1.0, True, "1", None, [[1, 0]], {"1": 0}]


@pytest.mark.parametrize("slot, value", cases(
    q_a=ANY,
    correct_a=[1.0, True, "10", None, NESTED, TABLE],
    correct_b=[1.0, True, "11", None, NESTED, TABLE],
    count=ANY,
    pair_correct=[1.0, True, "ab"],
    pair_entry=ANY,
    pair_key=[1.0, True, "01", None, ((0,), (1,)), (False, True)],
))
def test_point_refuses(slot, value):
    if slot == "count":
        slot, value = "correct_a", (value, 0)
    elif slot == "pair_entry":
        slot, value = "pair_correct", {(0, 1): value}
    elif slot == "pair_key":
        slot, value = "pair_correct", {value: (0, 1)}
    with pytest.raises(SketchError):
        point(**{slot: value})


@pytest.mark.parametrize("slot, value", cases(marginals=ANY, entry=ANY, total=ANY))
def test_claims_refuse(slot, value):
    if slot == "entry":
        value = {"u": value}
    elif slot == "total":
        value = {"u": (value, 1)}
    with pytest.raises(SketchError):
        SummaryClaims(value)


@pytest.mark.parametrize("slot, value", cases(
    p_a=[0.5, "x", None, [[HALF]], {HALF: 0}],
    accuracy_a=[0.5, True, "3/4", None, [[HALF], [HALF]], {"1/2": 0, "3/4": 0}],
    accuracy_b=[0.5, True, "3/4", None, [[HALF], [HALF]], {"1/2": 0, "3/4": 0}],
    accuracy=[0.5, "x", None, [[HALF]], {HALF: 0}],
))
def test_params_refuse(slot, value):
    fields = dict(p_a=HALF, accuracy_a=(HALF, HALF), accuracy_b=(HALF, HALF))
    if slot == "accuracy":
        slot, value = "accuracy_a", (value, HALF)
    with pytest.raises(SketchError):
        IndependentParams(**{**fields, slot: value})


TWO = IndependentParams(HALF, (HALF, HALF), (HALF, HALF))


@pytest.mark.parametrize("slot, value", cases(
    ids=[1.0, True, "uv", None, [["u"], ["v"]], {"u": 0, "v": 1}, ("u", "u")],
    id=[1.0, True, "", None, [["v"]], {"v": 0}],
))
def test_generate_refuses(slot, value):
    ids = ("u", value) if slot == "id" else value
    with pytest.raises(SketchError):
        generate_decisions(ids, TWO, 3, 0)


def trace(classifiers=("u",), q=1, totals=Marginals(1, 0)):
    """A one-item trace, safe at q_a = 1 only."""
    return AlarmTrace(
        q, PerLabelSpec(HALF, HALF), "ensemble", classifiers, (totals,), (False, True), False
    )


@pytest.mark.parametrize("slot, value", cases(
    classifiers=[1.0, True, "u", [["u"]], {"u": 0}],
    id=[1.0, True, None, [["u"]], {"u": 0}],
    # a bool q would be written as "q": true, which parse_trace refuses
    q=[True, 1.0, "1"],
    totals=[Marginals(True, False), Marginals(1.0, 0), Marginals("1", 0)],
))
def test_trace_refuses(slot, value):
    with pytest.raises(SketchError):
        trace(**({"classifiers": (value,)} if slot == "id" else {slot: value}))


def spec(slot, value):
    if slot.startswith("overall_"):
        return OverallSpec(**{"threshold": HALF, "strict": True, slot[8:]: value})
    return PerLabelSpec(**{"threshold_a": HALF, "threshold_b": HALF, "strict": True, slot: value})


@pytest.mark.parametrize("slot, value", cases(
    threshold_a=[0.5, True, "x", "1/0", None, [HALF], "5e-1", "1E0"],
    threshold_b=[0.5, False, None],
    strict=["no", 1, None],
    overall_threshold=[0.1, True, "x", None],
    overall_strict=["no", 0],
))
def test_specs_refuse(slot, value):
    with pytest.raises(SketchError):
        spec(slot, value)


UV = EvaluationSketch(("u", "v"), 2, {"aa": 1, "bb": 1})


@pytest.mark.parametrize("ids", ["uv", "vu", {"u": 0, "v": 1}])
@pytest.mark.parametrize("call", [
    lambda ids: run_alarm(UV, PerLabelSpec(HALF, HALF), pair=ids),
    lambda ids: count_safe_hypotheses(UV, PerLabelSpec(HALF, HALF), pair=ids),
    lambda ids: sketch_from_decisions({"i1": {"u": "a", "v": "b"}}, ids),
], ids=["run_alarm", "count_safe_hypotheses", "sketch_from_decisions"])
def test_rosters_refuse(call, ids):
    """A string or a mapping is not a roster, even when its characters
    or keys name classifiers."""
    with pytest.raises(SketchError):
        call(ids)


def test_a_pair_that_names_one_id_twice_is_refused_by_that_id(capsys, fixtures_dir):
    message = "pair mode needs two distinct classifier ids, got 'u' twice"
    for call in (run_alarm, count_safe_hypotheses):
        with pytest.raises(SketchError, match=message):
            call(UV, PerLabelSpec(HALF, HALF), pair=("u", "u"))
    sketch = str(fixtures_dir / "llm_grading.json")
    assert main(["alarm", sketch, "--pair", "claude", "claude"]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: pair mode needs two distinct classifier ids, got 'claude' twice\n"
    )


@pytest.mark.parametrize("value", [None, "x", HALF, {"threshold": HALF}])
@pytest.mark.parametrize("call", [run_alarm, count_safe_hypotheses])
def test_runs_refuse_a_spec_of_another_type(call, value):
    with pytest.raises(SketchError, match="spec must be a PerLabelSpec or OverallSpec"):
        call(UV, value)


def test_what_the_benchmark_passes_is_accepted():
    """Tuples of Fractions and of distinct ids, and the lists a file holds."""
    thirds = (Fraction(1, 3), Fraction(2, 3))
    params = IndependentParams(Fraction(2, 5), thirds, thirds)
    assert params.accuracy_a == thirds
    assert IndependentParams("2/5", ["1/3", "2/3"], [1, 0]).accuracy_b == (1, 0)
    decisions, truth = generate_decisions(("c1", "c2"), params, 4, 1)
    assert generate_decisions(["c1", "c2"], params, 4, 1) == (decisions, truth)
    assert all(tuple(row) == ("c1", "c2") for row in decisions.values())
    assert sketch(classifiers=["u"], truth_split={"a": [1, 0]}).truth_split == {"a": (1, 0)}
    listed = point(correct_a=[1, 0], correct_b=[1, 1], pair_correct={(0, 1): [0, 1]})
    assert listed == point() and listed.pair_correct[(0, 1)] == (0, 1)
    claims = SummaryClaims({"u": [1, 1]}, listed)
    assert claims.marginals == {"u": Marginals(1, 1)}
    assert trace(("u",)).classifiers == ("u",)
    assert PerLabelSpec("3/5", 1, False) == PerLabelSpec(Fraction(3, 5), Fraction(1), False)
    assert OverallSpec(HALF).threshold == HALF
    assert run_alarm(UV, OverallSpec(0), pair=["v", "u"]).classifiers == ("v", "u")


# each spells a number of 10**8 digits, which Fraction would build in full
EXPONENTS = ["1e100000000", "1E100000000", "5e-100000000"]


@pytest.mark.parametrize("text", EXPONENTS)
def test_rationals_refuse_an_exponent(text):
    with pytest.raises(SketchError, match="no exponent"):
        OverallSpec(text)
    with pytest.raises(SketchError, match="no exponent"):
        IndependentParams(text, (HALF,), (HALF,))


def test_rationals_take_fractions_and_plain_decimals():
    assert PerLabelSpec("0.75", "3/4") == PerLabelSpec(Fraction(3, 4), Fraction(3, 4))
    assert IndependentParams("0.5", ["0.25"], [1]).accuracy_a == (Fraction(1, 4),)


def test_an_out_of_range_threshold_is_named_without_its_digits():
    # 4 001 digits: under the 4 300 that int() reads, so the value parses,
    # and its digits are never printed
    with pytest.raises(SketchError) as refused:
        OverallSpec("1" + "0" * 4000)
    assert str(refused.value) == "threshold outside [0, 1]"


@pytest.mark.parametrize("text, code", [
    *((text, EXIT_ERROR) for text in EXPONENTS),
    ("1e5000", EXIT_ERROR),
    ("1" + "0" * 4000, EXIT_ERROR),
    ("0.75", EXIT_TRIGGERED),
])
def test_cli_thresholds(capsys, fixtures_dir, text, code):
    assert main(["alarm", str(fixtures_dir / "llm_grading.json"), "--spec-overall", text]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Exceeds" not in err
    if code == EXIT_ERROR:
        assert "no exponent" in err or "threshold outside [0, 1]" in err


def test_cli_params_refuse_an_exponent(capsys, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(
        '{"p_a": "1e100000000", "accuracy_a": ["3/4"], "accuracy_b": ["3/4"]}'
    )
    out = tmp_path / "generated.csv"
    argv = ["generate", "--params", str(params), "--q", "5", "--seed", "1", "--out", str(out)]
    assert main(argv) == EXIT_ERROR
    assert "no exponent" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("maps", [
    ["yes=a", "yes=b"],
    ["yes=a", "yes=a"],
    ["yes=a", "no=b", "yes=b"],
])
def test_a_label_map_that_gives_one_source_twice_is_refused(capsys, tmp_path, maps):
    # no input names one key twice, --map included: the later entry is not
    # taken over the earlier one
    table = tmp_path / "table.csv"
    table.write_text("item_id,u\nx1,yes\nx2,no\n")
    out = tmp_path / "sketch.json"
    argv = ["ingest", str(table), "--format", "csv", "--out", str(out)]
    for entry in maps:
        argv += ["--map", entry]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr() == ("", "error: --map gives source 'yes' twice\n")
    assert not out.exists()
