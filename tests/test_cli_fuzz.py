"""Malformed input through every subcommand, in process.

Whatever a sketch, claims, params or decision-table file holds, ``main``
must return 0, 1 or 2 and never raise, and an exit 1 must say why:
``error:`` on stderr or ``violation:`` on stdout.  A file that holds a
float, a bool, a str, None, a nested list or a dict where a count goes,
or a string where a roster goes, must be refused (exit 1, ``error:``)
before any of it is used.  Sizes stay small so every run is quick: q is
capped for ``generate`` and drawn sketches hold a few items.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crosscheck import EvaluationSketch, save_sketch, sketch_to_text
from crosscheck.cli import main

from ._strategies import sketches

NAMES = ("c1", "c2", "c3")
WORDS = ("a", "b", "", "c1", "c2", "x", "1/2", "3/4", "0", "aa", "ab", "aab", "item")

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(WORDS)
    | st.text(max_size=4)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)

# each file is taken as is, as deeply nested, as truncated, or as raw text
NESTING = st.sampled_from((0, 0, 0, 0, 1, 3, 5000))


def objects(fields):
    """A JSON object: every named field drawn from its strategy; or each
    field left out or drawn from any JSON value, and an unknown field
    added at times; or any JSON value at all."""
    complete = st.fixed_dictionaries(fields)
    partial = st.fixed_dictionaries({}, optional={k: v | JSON for k, v in fields.items()})
    junk = st.dictionaries(st.sampled_from(("extra", "")), JSON, max_size=1)
    return complete | st.builds(lambda obj, more: {**obj, **more}, partial, junk) | JSON


@st.composite
def documents(draw, values):
    text = json.dumps(draw(values))
    depth = draw(NESTING)
    text = "[" * depth + text + "]" * draw(st.sampled_from((0, depth)))
    form = draw(st.sampled_from(("whole", "whole", "whole", "cut", "raw")))
    if form == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    elif form == "raw":
        text = draw(st.text(max_size=20))
    return text


# what no count slot takes, one of each kind
NOT_COUNT = st.sampled_from((1.0, 0.5, True, False, "1", None, [[1]], {"a": 1}))
SMALL = st.integers(-1, 4) | NOT_COUNT
PATTERN = st.sampled_from(("a", "b", "aa", "ab", "ba", "bb", "aab", "abc", ""))
# a string where a roster or a list of counts goes
WORD = st.sampled_from(("c1", "c1c2", "ab", "12"))
# sound sketches too, so the runs also get past the loaders
SOUND = sketches(max_count=3, with_truth=True).map(lambda s: json.loads(sketch_to_text(s)))
SKETCH = SOUND | objects({
    "classifiers": st.lists(st.sampled_from(NAMES), max_size=3) | WORD,
    "q": st.integers(-1, 12) | NOT_COUNT,
    "counts": st.dictionaries(PATTERN, SMALL, max_size=4),
    "truth_split": st.dictionaries(
        PATTERN, st.lists(SMALL, min_size=2, max_size=2) | NOT_COUNT
    ),
})
PAIR_KEY = st.sampled_from(("c1,c2", "c2,c1", "c1,c1", "c1", "c1,c9", "0,1"))
COUNTS = st.lists(SMALL, max_size=3) | WORD
CLAIMS = objects({
    "marginals": st.dictionaries(
        st.sampled_from(NAMES + ("c9",)), st.lists(SMALL, min_size=2, max_size=2) | WORD
    ),
    "point": objects({
        "q_a": SMALL,
        "correct_a": COUNTS,
        "correct_b": COUNTS,
        "pair_correct": st.dictionaries(PAIR_KEY, st.lists(SMALL, max_size=2) | WORD),
    }),
})
RATIONAL = st.sampled_from(
    ("1/2", "3/4", "0", "1", "2", "1/0", "x", 0.5, 2, -1, float("inf"), float("nan"))
)
PARAMS = objects({
    "p_a": RATIONAL | NOT_COUNT,
    "accuracy_a": st.lists(RATIONAL | NOT_COUNT, max_size=3) | WORD,
    "accuracy_b": st.lists(RATIONAL, max_size=3) | WORD,
    "classifiers": st.lists(st.sampled_from(NAMES + ("",)), max_size=3) | WORD,
})
CELL = st.sampled_from(WORDS + ("truth", "item_id", "yes", "no")) | st.text(max_size=3)
HEADER = st.sampled_from((
    ["item_id", "c1", "c2"], ["item_id", "c1", "truth"], ["item_id", "c1", "c1"],
    ["item_id", "truth"], ["c1", "c2"],
)) | st.lists(CELL, max_size=4)
RECORD = objects({
    "item_id": st.sampled_from(("i1", "i2", "")),
    "responses": st.dictionaries(st.sampled_from(NAMES), st.sampled_from(WORDS) | JSON),
    "truth": st.sampled_from(WORDS),
})
LABEL_MAP = st.lists(
    st.sampled_from(("yes=a", "no=b", "x=a", "a=a", "b=c", "=a", "yes")), max_size=2
)


def is_count(value):
    return type(value) is int


def are_counts(value, length=None):
    return (
        isinstance(value, list)
        and length in (None, len(value))
        and all(map(is_count, value))
    )


def values_of(obj, key):
    """The values of the JSON object at ``obj[key]``, if there is one."""
    inner = obj.get(key) if isinstance(obj, dict) else None
    return list(inner.values()) if isinstance(inner, dict) else []


def sketch_holds_junk(obj):
    """A non-int where the sketch file's q or a count goes, or a string
    where its roster goes."""
    return isinstance(obj, dict) and (
        ("q" in obj and not is_count(obj["q"]))
        or isinstance(obj.get("classifiers"), str)
        or not all(map(is_count, values_of(obj, "counts")))
        or not all(are_counts(v, 2) for v in values_of(obj, "truth_split"))
    )


def claims_hold_junk(obj):
    """A non-int where a claimed count goes."""
    if not isinstance(obj, dict):
        return False
    point = obj.get("point")
    return not all(are_counts(v, 2) for v in values_of(obj, "marginals")) or (
        isinstance(point, dict) and (
            ("q_a" in point and not is_count(point["q_a"]))
            or any(k in point and not are_counts(point[k]) for k in ("correct_a", "correct_b"))
            or not all(are_counts(v, 2) for v in values_of(point, "pair_correct"))
        )
    )


def params_hold_junk(obj):
    """A string where the roster or an accuracy list goes, or a float or a
    bool where a rational goes."""
    if not isinstance(obj, dict):
        return False
    rationals = [obj.get("p_a")]
    for key in ("accuracy_a", "accuracy_b"):
        if isinstance(obj.get(key), list):
            rationals += obj[key]
    return (
        any(isinstance(obj.get(k), str) for k in ("classifiers", "accuracy_a", "accuracy_b"))
        or any(isinstance(x, (float, bool)) for x in rationals)
    )


def check(argv, refused=False):
    """Run ``argv``; with ``refused`` set it must exit 1 on an ``error:``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert "error:" in err.getvalue() or "violation:" in out.getvalue(), argv
    if refused:
        assert code == 1 and err.getvalue().startswith("error:"), (argv, out.getvalue())


def junk(text, holds_junk):
    """Whether the file ``text`` is a JSON document that ``holds_junk``."""
    try:
        return holds_junk(json.loads(text))
    except (ValueError, RecursionError):
        return False


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    # a small sound sketch, so a claimed point that passes the axioms is
    # searched for exactly and quickly
    save_sketch(
        EvaluationSketch(("c1", "c2"), 5, {"aa": 2, "ab": 1, "bb": 2}),
        str(path / "sound.json"),
    )
    return path


def fuzz(examples):
    return settings(
        max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )


@fuzz(40)
@given(documents(SKETCH), st.data())
def test_sketch_files(workdir, text, data):
    path = workdir / "sketch.json"
    path.write_text(text)
    sketch, out = str(path), str(workdir / "out.json")
    alarm = ["alarm", sketch] + data.draw(st.sampled_from((
        [], ["--pair", "c1", "c2"], ["--qa-range", "1", "3"], ["--refine-pairs"],
        ["--spec-overall", "1/2", "--no-strict"],
        ["--trace", str(workdir / "t.json"), "--plot", str(workdir / "t.svg")],
        ["--trace", str(workdir / "t.csv")],
    )))
    refused = junk(text, sketch_holds_junk)
    check(["sketch", sketch], refused)
    check(alarm, refused)
    check(["verify", sketch], refused)
    check(["solve-independent", sketch], refused)
    mode = data.draw(st.sampled_from(("global", "true-a", "true-b")))
    check(["flip", sketch, "--classifier", "c1", "--mode", mode, "--out", out], refused)


@fuzz(40)
@given(documents(CLAIMS), st.sampled_from(([], ["--budget", "0"])))
def test_claims_files(workdir, text, budget):
    path = workdir / "claims.json"
    path.write_text(text)
    argv = ["verify", str(workdir / "sound.json"), "--claims", str(path)] + budget
    check(argv, junk(text, claims_hold_junk))


@fuzz(30)
@given(documents(PARAMS), st.integers(-2, 20), st.integers(0, 3))
def test_params_files(workdir, text, q, seed):
    path = workdir / "params.json"
    path.write_text(text)
    argv = ["generate", "--seed", str(seed), "--q", str(q), "--params", str(path)]
    check(argv, junk(text, params_hold_junk))


@fuzz(30)
@given(
    st.tuples(HEADER, st.lists(st.lists(CELL, max_size=4), max_size=4)),
    st.lists(documents(RECORD), max_size=4),
    LABEL_MAP,
)
def test_decision_tables(workdir, rows, records, label_map):
    maps = [arg for entry in label_map for arg in ("--map", entry)]
    out = str(workdir / "ingested.json")
    table = workdir / "table.csv"
    header, body = rows
    table.write_text("".join(",".join(row) + "\n" for row in [header, *body]))
    check(["ingest", str(table), "--format", "csv", "--out", out] + maps)
    lines = workdir / "table.jsonl"
    lines.write_text("\n".join(records))
    check(["ingest", str(lines), "--format", "jsonl", "--out", out] + maps)
