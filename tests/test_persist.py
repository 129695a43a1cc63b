import csv
import io
import json
import os
import re
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crosscheck.svg as svg_module
import crosscheck.tables as tables
from crosscheck import (
    AlarmTrace,
    DecisionRecord,
    EvaluationSketch,
    FormatError,
    IndependentParams,
    IngestError,
    Marginals,
    OverallSpec,
    PerLabelSpec,
    QaSlice,
    SafetySpec,
    SketchError,
    Verdict,
    atomic_write_text,
    decisions_to_csv_text,
    emit_trace,
    generate_decisions,
    ingest,
    load_sketch,
    parse_claims,
    parse_params,
    parse_sketch,
    parse_trace,
    records_to_decisions,
    render_traces,
    run_alarm,
    save_sketch,
    sketch_from_decisions,
    sketch_to_text,
    trace_to_csv_text,
    trace_to_json_text,
)
from crosscheck.alarm import _safe_qa_bounds
from crosscheck.persist import _WRITE_SLICE

from ._referees import (
    referee_ingest,
    referee_records_to_decisions,
    referee_sketch_from_decisions,
)
from ._strategies import sketches

DEFAULT = PerLabelSpec(Fraction(1, 2), Fraction(1, 2))


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "one\n")
        atomic_write_text(str(path), "two\n")
        assert path.read_text() == "two\n"
        assert list(tmp_path.glob(".tmp-*")) == []

    def test_ordinary_permissions(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "x")
        mask = os.umask(0)
        os.umask(mask)
        assert (path.stat().st_mode & 0o777) == (0o666 & ~mask)

    def test_errors_name_the_target_not_the_temp_file(self, tmp_path):
        missing = str(tmp_path / "nodir" / "out.txt")
        with pytest.raises(FileNotFoundError) as info:
            atomic_write_text(missing, "x")
        assert info.value.filename == missing
        # a failed rename: the temp file existed, and is gone again
        taken = tmp_path / "taken"
        taken.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            atomic_write_text(str(taken), "x")
        assert info.value.filename == str(taken)
        assert list(tmp_path.glob(".tmp-*")) == []

    def test_text_longer_than_a_slice(self, tmp_path):
        # multi-byte characters straddle the slice boundaries
        text = "é" * (3 * _WRITE_SLICE + 7) + "€😀\n"
        path = tmp_path / "big.txt"
        atomic_write_text(str(path), text)
        assert path.read_bytes() == text.encode("utf-8")

    def test_unencodable_character_placed_in_the_whole_text(self, tmp_path):
        text = "x" * (_WRITE_SLICE + 5) + "\ud800"
        with pytest.raises(UnicodeEncodeError) as caught:
            atomic_write_text(str(tmp_path / "bad.txt"), text)
        assert "position 65541" in str(caught.value)
        assert caught.value.start == _WRITE_SLICE + 5
        assert os.listdir(tmp_path) == []


class TestDuplicateKeys:
    """A JSON object that names a key twice is an error in every file;
    ``json.loads`` alone would keep the last value."""

    def test_claims_pair_named_twice_in_the_same_order(self, grading_sketch):
        text = (
            '{"point": {"q_a": 237, "correct_a": [136, 26, 211], '
            '"correct_b": [34, 43, 21], "pair_correct": '
            '{"claude,mistral": [99, 33], "claude,mistral": [12, 33]}}}'
        )
        with pytest.raises(FormatError, match="duplicate key 'claude,mistral'"):
            parse_claims(text, grading_sketch)

    def test_sketch_params_and_trace_files(self):
        with pytest.raises(FormatError, match="duplicate key 'q'"):
            parse_sketch('{"classifiers": ["u"], "q": 1, "q": 2, "counts": {"a": 1}}')
        with pytest.raises(FormatError, match="duplicate key 'a'"):
            parse_sketch('{"classifiers": ["u"], "q": 2, "counts": {"a": 1, "a": 1}}')
        with pytest.raises(FormatError, match="duplicate key 'p_a'"):
            parse_params('{"p_a": "1/2", "p_a": "1/3", "accuracy_a": [], "accuracy_b": []}')
        text = json.dumps(GOOD_TRACE).replace('"q_a": 0', '"q_a": 0, "q_a": 0')
        with pytest.raises(FormatError, match="duplicate key 'q_a'"):
            parse_trace(text)

    def test_jsonl_record(self, tmp_path):
        path = tmp_path / "table.jsonl"
        path.write_text(
            '{"item_id": "x0", "responses": {"u": "a"}}\n'
            '{"item_id": "x1", "item_id": "x2", "responses": {"u": "a", "u": "b"}}\n'
        )
        # the inner object is read first
        with pytest.raises(IngestError, match="^line 2: duplicate key 'u'$"):
            ingest(str(path), "jsonl")
        path.write_text('{"item_id": "x1", "item_id": "x2", "responses": {"u": "a"}}\n')
        with pytest.raises(IngestError, match="^line 1: duplicate key 'item_id'$"):
            ingest(str(path), "jsonl")

    # each line names a key twice and holds ':' in its ids: a count that
    # took one ':' too many off would let it through
    @pytest.mark.parametrize("line, key", [
        ('{"item_id": "urn:x", "responses": {"openai:m": "a", "v": "b"}, '
         '"truth": "a", "truth": "b"}', "truth"),
        ('{"item_id": "urn:x", "responses": {"openai:m": "a", "v": "b", "v": "a"}}', "v"),
        ('{"item_id": "urn:x", "item_id": "urn:y", "responses": {"openai:m": "a", "v": "b"}}',
         "item_id"),
        ('{"item_id": "urn:x", "responses": {"openai:m": "a", "v": "b"}, '
         '"truth": {"k:": "a", "k:": "b"}}', "k:"),
    ])
    def test_jsonl_record_with_colon_ids(self, tmp_path, line, key):
        path = tmp_path / "table.jsonl"
        path.write_text('{"item_id": "urn:w", "responses": {"openai:m": "a", "v": "b"}}\n'
                        + line + "\n")
        with pytest.raises(IngestError, match=f"^line 2: duplicate key '{key}'$"):
            ingest(str(path), "jsonl")

    # a \u003a escape decodes to a ':' that the line does not spell: taking
    # the decoded ids' ':' off the count would let each of these through
    @pytest.mark.parametrize("line, key", [
        ('{"item_id": "x2", "responses": {"u\\u003av": "a"}, "truth": "a", "truth": "b"}',
         "truth"),
        ('{"item_id": "x2", "responses": {"u\\u003Av": "a"}, "truth": "a", "truth": "b"}',
         "truth"),
        ('{"item_id": "x2", "responses": {"u\\u003av": "a", "u\\u003av": "b"}}', "u:v"),
        ('{"item_id": "urn\\u003ax", "responses": {"u:v": "a"}, "truth": "a", "truth": "b"}',
         "truth"),
        ('{"item_id": "x", "item_id": "urn\\u003ay", "responses": {"u:v": "a"}}', "item_id"),
    ])
    def test_jsonl_record_with_colon_escapes(self, tmp_path, line, key):
        path = tmp_path / "table.jsonl"
        path.write_text('{"item_id": "x1", "responses": {"u:v": "a"}}\n' + line + "\n")
        with pytest.raises(IngestError, match=f"^line 2: duplicate key '{key}'$"):
            ingest(str(path), "jsonl")

    @pytest.mark.parametrize("item, cid", product(("item-", "urn:item:"), ("c", "openai:c")))
    def test_jsonl_records_of_the_benchmark_shape_skip_the_hooked_decoder(
        self, tmp_path, monkeypatch, item, cid
    ):
        """The plain decoder's count of ':' certifies every well-formed
        record of the shape the benchmark writes, ':' in its ids or not."""
        path = tmp_path / "table.jsonl"
        path.write_text("".join(
            json.dumps({"item_id": f"{item}{k}",
                        "responses": {f"{cid}{n}": "ab"[k >> n & 1] for n in range(3)},
                        "truth": "ab"[k % 2]}) + "\n"
            for k in range(16)
        ))

        def hooked(line, where=None):
            raise AssertionError(f"{where} reached the hooked decoder")

        scanned = []

        def plain(line, start):
            scanned.append(line)
            return scan(line, start)

        scan = tables._scan
        monkeypatch.setattr(tables, "_load_json", hooked)
        monkeypatch.setattr(tables, "_scan", plain)
        assert len(ingest(str(path), "jsonl").records) == 16
        # 8 distinct remainders after the id, each decoded once (the file's
        # last line is the empty one after its final "\n")
        assert scanned[:-1] == [line for line in path.read_text().split("\n")[:8]]
        assert scanned[-1] == ""

    def test_jsonl_remainder_read_by_the_hooked_decoder_is_remembered(
        self, tmp_path, monkeypatch
    ):
        """A ':' in a label sends a line to the hooked decoder; a later line
        with that line's remainder takes the record read there."""
        path = tmp_path / "table.jsonl"
        path.write_text("".join(
            json.dumps({"item_id": f"x{k}", "responses": {"u": ["is:a", "no"][k % 2]}}) + "\n"
            for k in range(6)
        ))
        hooked = []

        def counted(line, where=None):
            hooked.append(where)
            return load(line, where)

        load = tables._load_json
        monkeypatch.setattr(tables, "_load_json", counted)
        label_map = {"is:a": "a", "no": "b"}
        assert ingest(str(path), "jsonl", label_map) == referee_ingest(str(path), "jsonl", label_map)
        assert hooked == ["line 1"]

    @pytest.mark.parametrize("restated", [
        '{"item_id": "x3", "responses": {"u": "a"}, "item_id": "x3"}',
        '{"item_id":"x3","responses":{"u":"a"},"item_id":"x2"}',
        '{"item_id": "x3", "item_id": "x3", "responses": {"u": "a"}}',
    ])
    def test_jsonl_remainder_that_restates_the_id_is_refused_after_a_hit(
        self, tmp_path, restated
    ):
        path = tmp_path / "table.jsonl"
        path.write_text('{"item_id": "x1", "responses": {"u": "a"}}\n'
                        '{"item_id": "x2", "responses": {"u": "a"}}\n' + restated + "\n")
        with pytest.raises(IngestError, match="^line 3: duplicate key 'item_id'$"):
            ingest(str(path), "jsonl")

    @pytest.mark.parametrize("separators", [(", ", ": "), (",", ":"), (",\t", "\t:\t")],
                             ids=["dumps", "compact", "tabs"])
    @pytest.mark.parametrize("item, cid", [("item-", "c"), ("urn:item:", "openai:c")])
    def test_jsonl_lines_that_share_a_remainder_decode_once(
        self, tmp_path, monkeypatch, separators, item, cid
    ):
        """Whatever blanks or tabs stand around the opening's ':', each
        remainder after the id is decoded once, and the records are the
        referee's; an id spelled with an escape is decoded on every line."""
        lines = [
            json.dumps({"item_id": f"{item}{k}",
                        "responses": {f"{cid}{n}": "ab"[k >> n & 1] for n in range(2)},
                        "truth": "ab"[k >> 1 & 1]}, separators=separators)
            for k in range(12)
        ]
        if separators[1] == "\t:\t":
            lines = [line.replace("{", "{\t", 1) for line in lines]
        # ids holding '"', a backslash or an escaped ':' are not plain ids
        escaped = ['say \\"hi\\"', "back\\\\slash", "urn\\u003ay"]
        lines += [lines[k].replace(f"{item}{k}", f"{spelled}{k}", 1)
                  for k, spelled in enumerate(escaped)]
        path = tmp_path / "table.jsonl"
        path.write_text("\n".join(lines) + "\n")
        scanned = []

        def plain(line, start):
            scanned.append(line)
            return scan(line, start)

        scan = tables._scan
        monkeypatch.setattr(tables, "_scan", plain)
        got = ingest(str(path), "jsonl")
        assert got == referee_ingest(str(path), "jsonl")
        assert {'say "hi"0', "back\\slash1", "urn:y2"} <= {rec.item_id for rec in got.records}
        assert scanned == [*lines[:4], *lines[12:], ""]


class TestSketchFormat:
    def test_fixture_round_trip_is_byte_identical(self, fixtures_dir):
        text = (fixtures_dir / "llm_grading.json").read_text()
        assert sketch_to_text(parse_sketch(text)) == text

    def test_save_load(self, tmp_path, grading_sketch):
        path = tmp_path / "sketch.json"
        save_sketch(grading_sketch, str(path))
        assert load_sketch(str(path)) == grading_sketch

    def test_non_canonical_input_normalizes(self):
        messy = json.dumps(
            {"q": 2, "counts": {"b": 1, "a": 1}, "classifiers": ["u"]}
        )
        sketch = parse_sketch(messy)
        canonical = sketch_to_text(sketch)
        assert canonical.startswith('{\n  "classifiers": [\n    "u"\n  ],\n  "q": 2,')
        assert sketch_to_text(parse_sketch(canonical)) == canonical

    def test_truth_split_serialized_sorted(self):
        sketch = EvaluationSketch(
            ("u",), 3, {"b": 2, "a": 1}, {"b": (1, 1), "a": (1, 0)}
        )
        obj = json.loads(sketch_to_text(sketch))
        assert list(obj["counts"]) == ["a", "b"]
        assert obj["truth_split"] == {"a": [1, 0], "b": [1, 1]}

    def test_rejections(self):
        with pytest.raises(FormatError):
            parse_sketch("not json")
        with pytest.raises(FormatError):
            parse_sketch(json.dumps({"q": 1, "counts": {}}))
        with pytest.raises(FormatError):
            parse_sketch(
                json.dumps(
                    {"classifiers": ["u"], "q": 1, "counts": {}, "extra": 1}
                )
            )
        with pytest.raises(FormatError):
            parse_sketch(
                json.dumps({"classifiers": ["u"], "q": 1, "counts": {"a": 1},
                            "truth_split": {"a": [1]}})
            )
        with pytest.raises(FormatError):
            parse_sketch(json.dumps({"classifiers": "u", "q": 1, "counts": {}}))
        for split in (None, [], {"a": 1}, {"a": None}, {"a": [1, 0, 0]}, {"a": {"x": 1, "y": 0}}):
            with pytest.raises(FormatError):
                parse_sketch(json.dumps({"classifiers": ["u"], "q": 1, "counts": {"a": 1},
                                         "truth_split": split}))
        # structural sketch errors surface as format errors
        with pytest.raises(FormatError):
            parse_sketch(json.dumps({"classifiers": ["u"], "q": 0, "counts": {}}))


def laid_out(obj) -> str:
    """``obj`` as JSON in the trace writer's layout, so that a trace made
    from it is refused for what it holds, not for how it is laid out."""
    return json.dumps(obj, indent=2) + "\n"


# the trace of `alarm --pair u v --refine-pairs --spec-per-label ...` on
# the one-item sketch where u says a and v says b
GOOD_TRACE = {
    "q": 1,
    "spec": {"kind": "per-label", "threshold_a": "1/2", "threshold_b": "2/3",
             "strict": True},
    "mode": "pair",
    "classifiers": ["u", "v"],
    "verdict": "triggered",
    "slices": [
        {"q_a": 0, "intervals_a": [[0, 0], [0, 0]],
         "intervals_b": [[0, 0], [1, 1]], "safe_exists": False,
         "refined": True},
        {"q_a": 1, "intervals_a": [[1, 1], [0, 0]],
         "intervals_b": [[0, 0], [0, 0]], "safe_exists": False,
         "refined": True},
    ],
}


def slice_with(**fields):
    first, *rest = GOOD_TRACE["slices"]
    return dict(GOOD_TRACE, slices=[dict(first, **fields), *rest])


def spec_with(**fields):
    return dict(GOOD_TRACE, spec=dict(GOOD_TRACE["spec"], **fields))


class TestTraceFormats:
    def test_json_round_trip_is_byte_identical(self, grading_sketch):
        trace = run_alarm(grading_sketch, DEFAULT, pair=("claude", "mistral"))
        text = trace_to_json_text(trace)
        assert trace_to_json_text(parse_trace(text)) == text

    def test_parse_recovers_everything(self, grading_sketch):
        spec = OverallSpec(Fraction(2, 3), strict=False)
        trace = run_alarm(grading_sketch, spec)
        parsed = parse_trace(trace_to_json_text(trace))
        assert parsed == trace
        assert parsed.spec == spec
        assert parsed.verdict is trace.verdict

    def test_csv_shape_single_item(self):
        sketch = EvaluationSketch(("u",), 1, {"a": 1})
        trace = run_alarm(sketch, DEFAULT)
        lines = trace_to_csv_text(trace).splitlines()
        assert lines[0] == "q_a,u_lo_a,u_hi_a,u_lo_b,u_hi_b,safe_exists"
        assert len(lines) == 3
        assert lines[2] == "1,1,1,0,0,1"

    def test_csv_column_count(self, grading_sketch):
        trace = run_alarm(grading_sketch, DEFAULT)
        lines = trace_to_csv_text(trace).splitlines()
        assert len(lines) == 283
        assert all(line.count(",") == 13 for line in lines)

    def test_parse_rejects_incomplete(self, grading_sketch):
        obj = json.loads(trace_to_json_text(run_alarm(grading_sketch, DEFAULT)))
        for kept in (obj["slices"][:101], obj["slices"][237:238], []):
            with pytest.raises(FormatError, match="slices, not 282"):
                parse_trace(laid_out(dict(obj, slices=kept)))

    def test_only_the_written_bytes_are_read(self):
        """The trace a run writes, laid out or spelled any other way, is
        refused: compact, key-sorted, a spec threshold as "2/4" or "0.5",
        an id unescaped, or 1.0 for an interval end."""
        sketch = EvaluationSketch(("é", "v"), 2, {"ab": 1, "ba": 1})
        text = trace_to_json_text(run_alarm(sketch, DEFAULT))
        assert '"\\u00e9"' in text
        obj = json.loads(text)
        spec = dict(obj["spec"], threshold_a="2/4", threshold_b="0.5")
        ends = json.loads(text)
        ends["slices"][2]["intervals_a"][0] = [1.0, 1]
        # the same JSON value as the written text, in another layout
        relaid = [
            json.dumps(obj),
            json.dumps(obj, indent=2, sort_keys=True) + "\n",
            json.dumps(obj, indent=2, ensure_ascii=False) + "\n",
        ]
        assert all(json.loads(variant) == obj for variant in relaid)
        for variant in (*relaid, laid_out(dict(obj, spec=spec)), laid_out(ends)):
            with pytest.raises(FormatError, match="not the text a run writes"):
                parse_trace(variant)

    def test_totals_outside_the_test_size_are_refused(self):
        """No sketch of q items has totals outside [0, q], so no trace
        holds them: the constructor refuses them, and no writer sees one."""
        for totals in (Marginals(-1, 2), Marginals(3, -2)):
            with pytest.raises(SketchError):
                AlarmTrace(1, DEFAULT, "ensemble", ("u",), (totals,), (False, False), False)

    def test_flags_that_are_not_bools_are_refused(self):
        """The writers spell each flag by indexing with it, so the
        constructor takes bools only: the JSON writer once spelled "yes"
        as true, while the CSV writer raised on it."""
        for safe, refined in ((("yes", 1, 2.5), None), ((False, True, True), 1),
                              ((0, 1, 1), False)):
            with pytest.raises(SketchError, match="must be bools"):
                AlarmTrace(2, PerLabelSpec(0, 0, False), "ensemble", ("x",),
                           (Marginals(1, 1),), safe, refined)

    def test_emit_rejects_unknown_format(self, tmp_path, grading_sketch):
        trace = run_alarm(grading_sketch, DEFAULT)
        with pytest.raises(FormatError):
            emit_trace(trace, "pdf", str(tmp_path / "t.pdf"))

    def test_emit_all_formats(self, tmp_path, grading_sketch):
        trace = run_alarm(grading_sketch, DEFAULT, pair=("claude", "mistral"))
        for fmt in ("csv", "json", "svg"):
            path = tmp_path / f"t.{fmt}"
            emit_trace(trace, fmt, str(path))
            assert path.stat().st_size > 0

    def test_trace_rejections(self):
        with pytest.raises(FormatError):
            parse_trace("[]")
        with pytest.raises(FormatError):
            parse_trace(laid_out({"q": 1}))
        good = {
            "q": 1,
            "spec": {"kind": "overall", "threshold": "1/2", "strict": True},
            "mode": "ensemble",
            "classifiers": ["u"],
            "verdict": "not_triggered",
            "slices": [
                {"q_a": 0, "intervals_a": [[0, 0]], "intervals_b": [[0, 0]],
                 "safe_exists": False, "refined": False},
                {"q_a": 1, "intervals_a": [[1, 1]], "intervals_b": [[0, 0]],
                 "safe_exists": True, "refined": False},
            ],
        }
        parse_trace(laid_out(good))
        bad = dict(good, verdict="maybe")
        with pytest.raises(FormatError):
            parse_trace(laid_out(bad))
        bad = dict(good, spec={"kind": "sometimes"})
        with pytest.raises(FormatError):
            parse_trace(laid_out(bad))

    @pytest.mark.parametrize("obj", [
        dict(GOOD_TRACE, q="1"),
        dict(GOOD_TRACE, q=True),
        dict(GOOD_TRACE, q=1.0),
        dict(GOOD_TRACE, mode=None),
        dict(GOOD_TRACE, classifiers="uv"),
        dict(GOOD_TRACE, classifiers=["u", 5]),
        dict(GOOD_TRACE, slices=5),
        dict(GOOD_TRACE, slices={"0": {}}),
        dict(GOOD_TRACE, verdict=["triggered"]),
        slice_with(q_a="0"),
        slice_with(q_a=False),
        slice_with(intervals_a=[["x", "y"], [0, 0]]),
        slice_with(intervals_a=[[0], [0, 0]]),
        slice_with(intervals_a=[[0, 0, 0], [0, 0]]),
        slice_with(intervals_a=[[0, True], [0, 0]]),
        slice_with(intervals_a=[[0, 0.5], [0, 0]]),
        slice_with(intervals_a=[[0, 0]]),
        slice_with(intervals_b=[[0, 1], [1, 1], [0, 0]]),
        slice_with(intervals_b=[]),
        slice_with(intervals_b={"u": [0, 1]}),
        slice_with(intervals_b=[{"lo": 0, "hi": 1}, [1, 1]]),
        slice_with(safe_exists="yes"),
        slice_with(safe_exists=0),
        slice_with(refined=None),
        spec_with(strict="no"),
        spec_with(strict=1),
        spec_with(threshold_a="x"),
        spec_with(threshold_a="1/0"),
        spec_with(threshold_a="3/2"),
        spec_with(threshold_b=0.5),
        spec_with(threshold_b=True),
        dict(GOOD_TRACE, spec={"kind": "overall", "threshold": None, "strict": True}),
        # q - r_b cannot be taken: an int past the float range from a float
        dict(slice_with(intervals_b=[[10**400, 10**400], [1, 1]]), q=0.5),
        # no run names a classifier ""
        dict(GOOD_TRACE, classifiers=["", "v"]),
    ])
    def test_trace_schema_violations_are_format_errors(self, obj):
        with pytest.raises(FormatError):
            parse_trace(laid_out(obj))

    def test_trace_schema_accepts_the_good_case(self):
        text = laid_out(GOOD_TRACE)
        assert trace_to_json_text(parse_trace(text)) == text


class RefereeTrace(NamedTuple):
    """A trace as the referees read it: the header and a tuple of
    :class:`QaSlice` built on some other path than the trace's own."""

    q: int
    spec: SafetySpec
    mode: str
    classifiers: tuple[str, ...]
    slices: tuple[QaSlice, ...]

    @property
    def verdict(self) -> Verdict:
        safe = any(s.safe_exists for s in self.slices)
        return Verdict.NOT_TRIGGERED if safe else Verdict.TRIGGERED


def referee_of(trace: AlarmTrace) -> RefereeTrace:
    """A trace's header with the slices it builds through the interval
    functions (not :meth:`AlarmTrace.rows`, which the writers read)."""
    return RefereeTrace(trace.q, trace.spec, trace.mode, trace.classifiers, trace.slices)


def referee_json(trace: RefereeTrace) -> str:
    """The JSON trace writer as it was: the whole object through
    ``json.dumps(indent=2)``.  The real writer must match it byte for
    byte."""
    spec = trace.spec
    if isinstance(spec, PerLabelSpec):
        spec_obj = {
            "kind": "per-label",
            "threshold_a": str(spec.threshold_a),
            "threshold_b": str(spec.threshold_b),
            "strict": spec.strict,
        }
    else:
        spec_obj = {"kind": "overall", "threshold": str(spec.threshold),
                    "strict": spec.strict}
    obj = {
        "q": trace.q,
        "spec": spec_obj,
        "mode": trace.mode,
        "classifiers": list(trace.classifiers),
        "verdict": trace.verdict.value,
        "slices": [
            {
                "q_a": s.q_a,
                "intervals_a": [[iv.lo, iv.hi] for iv in s.intervals_a],
                "intervals_b": [[iv.lo, iv.hi] for iv in s.intervals_b],
                "safe_exists": s.safe_exists,
                "refined": s.refined,
            }
            for s in trace.slices
        ],
    }
    return laid_out(obj)


def referee_csv(trace: RefereeTrace) -> str:
    """The CSV trace writer as it was, one row per slice object, but for
    the header: a name is quoted, its quotes doubled, when it holds a
    comma, a quote or either line-end character."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["q_a"]
    for cid in trace.classifiers:
        header += [f"{cid}_lo_a", f"{cid}_hi_a", f"{cid}_lo_b", f"{cid}_hi_b"]
    header.append("safe_exists")
    buffer.write(",".join(
        '"%s"' % name.replace('"', '""') if {*name} & {",", '"', "\r", "\n"} else name
        for name in header
    ) + "\n")
    for s in trace.slices:
        row: list = [s.q_a]
        for iv_a, iv_b in zip(s.intervals_a, s.intervals_b):
            row += [iv_a.lo, iv_a.hi, iv_b.lo, iv_b.hi]
        row.append(int(s.safe_exists))
        writer.writerow(row)
    return buffer.getvalue()


def referee_runs(trace: RefereeTrace) -> list[tuple[int, int, bool]]:
    """The SVG band runs as they were read: one slice object at a time."""
    runs: list[tuple[int, int, bool]] = []
    for s in trace.slices:
        if runs and runs[-1][2] == s.safe_exists and runs[-1][1] == s.q_a - 1:
            runs[-1] = (runs[-1][0], s.q_a, s.safe_exists)
        else:
            runs.append((s.q_a, s.q_a, s.safe_exists))
    return runs


def referee_svg(trace: RefereeTrace) -> str:
    """``render_traces`` on one trace, with the bands taken by
    :func:`referee_runs`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(svg_module, "_runs", referee_runs)
        return render_traces([trace])


# non-empty ids with quotes, backslashes, control characters, non-ASCII
# and lone surrogates, all of which json.dumps escapes
IDS = st.text(
    st.sampled_from('a"\\\n\t\x00\x1f\x7fé€😀\ud800') | st.characters(),
    min_size=1,
    max_size=6,
)
THRESHOLDS = st.fractions(0, 1, max_denominator=12)
SPECS = st.one_of(
    st.builds(PerLabelSpec, THRESHOLDS, THRESHOLDS, st.booleans()),
    st.builds(OverallSpec, THRESHOLDS, st.booleans()),
)


@st.composite
def drawn_traces(draw):
    """Any trace a run could give, drawn without a sketch: q, each
    classifier's totals and ``refined`` drawn freely, distinct ids that
    json must escape, "pair" only for two.  The safe flags fill the
    window of :func:`_safe_qa_bounds` unless the pairs were enforced on
    two or more classifiers; then they are any subset of it."""
    size = draw(st.integers(1, 4))
    q = draw(st.integers(1, 30) | st.sampled_from([1, 2]))
    spec = draw(SPECS)
    margs = [Marginals(r_a, q - r_a) for r_a in draw(
        st.lists(st.integers(0, q), min_size=size, max_size=size)
    )]
    bounds = [_safe_qa_bounds(q, m.r_a, spec) for m in margs]
    window = range(max(lo for lo, _ in bounds), min(hi for _, hi in bounds) + 1)
    refined = draw(st.booleans())
    subset = refined and size > 1
    return AlarmTrace(
        q,
        spec,
        draw(st.sampled_from(["ensemble", "pair"] if size == 2 else ["ensemble"])),
        tuple(draw(st.lists(IDS, min_size=size, max_size=size, unique=True))),
        tuple(margs),
        tuple(q_a in window and (not subset or draw(st.booleans())) for q_a in range(q + 1)),
        refined,
    )


class TestJsonWriterReferee:
    @given(drawn_traces())
    @settings(max_examples=200, deadline=None)
    def test_drawn_traces(self, trace):
        text = trace_to_json_text(trace)
        assert text == referee_json(referee_of(trace))
        assert parse_trace(text) == trace
        assert trace_to_csv_text(trace) == referee_csv(referee_of(trace))

    @given(
        sketches(max_size=3, max_count=5),
        SPECS,
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_alarm_traces(self, sketch, spec, pair, refine):
        roster = sketch.classifiers
        chosen = roster[:2] if pair and len(roster) >= 2 else None
        trace = run_alarm(sketch, spec, pair=chosen, refine=refine)
        text = trace_to_json_text(trace)
        assert text == referee_json(referee_of(trace))
        assert trace_to_json_text(parse_trace(text)) == text

    def test_fixture_traces(self, grading_sketch):
        for pair in (None, ("claude", "mistral")):
            for refine in (False, True):
                trace = run_alarm(grading_sketch, DEFAULT, pair=pair, refine=refine)
                assert trace_to_json_text(trace) == referee_json(referee_of(trace))

    def test_empty_lists(self):
        """No run writes a trace with no classifier or no slice, so
        neither parses."""
        for obj in (
            dict(GOOD_TRACE, classifiers=[], slices=[
                dict(s, intervals_a=[], intervals_b=[]) for s in GOOD_TRACE["slices"]
            ]),
            dict(GOOD_TRACE, slices=[]),
            dict(GOOD_TRACE, q=0, slices=GOOD_TRACE["slices"][:1]),
        ):
            with pytest.raises(FormatError):
                parse_trace(laid_out(obj))


def window_trace(q, totals, ids=None, refined=False, spec=DEFAULT, mode="ensemble"):
    """A trace of classifiers with these label-a totals whose safe flags
    fill the window of :func:`_safe_qa_bounds`, or, refined on two or
    more classifiers, every other hypothesis of it."""
    margs = tuple(Marginals(r_a, q - r_a) for r_a in totals)
    bounds = [_safe_qa_bounds(q, m.r_a, spec) for m in margs]
    step = 2 if refined and len(margs) > 1 else 1
    window = range(max(lo for lo, _ in bounds), min(hi for _, hi in bounds) + 1, step)
    ids = ids or tuple(f"x{i}" for i in range(len(margs)))
    safe = tuple(q_a in window for q_a in range(q + 1))
    return AlarmTrace(q, spec, mode, ids, margs, safe, refined)


def assert_written_as_referees(trace):
    """Both writers give the referees' bytes, the JSON reads back as the
    trace, and the columns are the slices' values column by column, each
    int spelled in decimal and the safe flags as bools."""
    ref = referee_of(trace)
    text = trace_to_json_text(trace)
    assert text == referee_json(ref)
    assert parse_trace(text) == trace
    assert trace_to_csv_text(trace) == referee_csv(ref)
    flat = [
        (str(s.q_a), *(str(end) for iv in s.intervals_a + s.intervals_b for end in iv),
         s.safe_exists)
        for s in ref.slices
    ]
    assert [list(column) for column in trace.columns()] == [list(c) for c in zip(*flat)]


class TestWritersAtTheEdges:
    """Deterministic referee cases beyond the drawn traces' reach (q <= 30,
    N <= 4): one item, totals of 0 or q, one and eight classifiers, the
    benchmark's size, and ids that CSV must quote and JSON escape."""

    SPECS = (DEFAULT, PerLabelSpec(0, 0, False), OverallSpec(1, True))

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_one_item(self, size):
        for totals, refined, spec in product(
            product((0, 1), repeat=size), (False, True), self.SPECS
        ):
            assert_written_as_referees(window_trace(1, totals, refined=refined, spec=spec))

    @pytest.mark.parametrize("q", [2, 5, 9])
    def test_totals_of_none_or_all(self, q):
        for totals in product((0, q), repeat=3):
            for spec in self.SPECS:
                assert_written_as_referees(window_trace(q, totals, spec=spec))
            assert_written_as_referees(window_trace(q, totals, refined=True))

    def test_one_classifier(self):
        for q in (1, 6, 30):
            for r_a, spec in product(range(q + 1), self.SPECS):
                assert_written_as_referees(window_trace(q, (r_a,), spec=spec))

    def test_eight_classifiers(self):
        q = 12
        for k in range(3):
            totals = tuple((3 * i + k) % (q + 1) for i in range(8))
            for refined in (False, True):
                assert_written_as_referees(window_trace(q, totals, refined=refined))
        assert_written_as_referees(window_trace(q, (0, q) * 4, refined=True))

    # the benchmark's trace shapes: N = 3 at q = 2 500 as in tall-audit,
    # and N = 8 at q = 1 200 as in wide-refine
    BENCHMARK_SHAPES = [
        (2500, (1250, 1400, 1100)),
        (1200, (600, 640, 560, 700, 520, 610, 590, 650)),
    ]

    def test_benchmark_size(self):
        for (q, totals), refined in product(self.BENCHMARK_SHAPES, (False, True)):
            trace = window_trace(q, totals, refined=refined)
            assert any(trace.safe)
            assert_written_as_referees(trace)

    def test_ids_that_need_quoting_and_escapes(self):
        ids = ("w,x", 'q"t', "n\nl", "é\\\x00\u2028", "c\r", " ")
        trace = window_trace(4, (1, 2, 3, 0, 4, 2), ids=ids, refined=True)
        assert_written_as_referees(trace)
        pair = window_trace(3, (1, 2), ids=ids[:2], mode="pair")
        assert_written_as_referees(pair)
        assert json.loads(trace_to_json_text(trace))["classifiers"] == list(ids)
        # every id reads back, a lone carriage return too
        header = next(csv.reader(io.StringIO(trace_to_csv_text(trace), newline="")))
        assert header == ["q_a", *(f"{cid}_{x}" for cid in ids for x in (
            "lo_a", "hi_a", "lo_b", "hi_b")), "safe_exists"]
        assert trace_to_csv_text(window_trace(1, (1,), ids=("c\r",))).startswith(
            'q_a,"c\r_lo_a","c\r_hi_a","c\r_lo_b","c\r_hi_b",safe_exists\n')

    @pytest.mark.parametrize("q, totals", BENCHMARK_SHAPES)
    @pytest.mark.parametrize("writer, bound", [
        # the former per-slice template writer peaked at 2.13 times its text
        (trace_to_json_text, 2),
        # the csv.writer row loop peaked at 4.13 times its text
        (trace_to_csv_text, 4),
    ])
    def test_peak_memory(self, writer, bound, q, totals):
        """Writing a benchmark-size trace holds little beyond the text: the
        JSON join holds two pointers a value and the shared digits, the CSV
        join one line a slice."""
        trace = window_trace(q, totals, refined=True)
        writer(trace)
        tracemalloc.start()
        try:
            text = writer(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * len(text)


class TestSvg:
    def test_band_structure(self, grading_sketch):
        traces = [
            run_alarm(grading_sketch, DEFAULT, pair=pair)
            for pair in (
                ("claude", "mistral"), ("claude", "gpt4"), ("mistral", "gpt4"),
            )
        ]
        svg = render_traces(traces)
        assert svg.startswith("<svg ")
        assert svg.count('class="band-safe"') == 2
        assert svg.count('class="band-unsafe"') == 4
        assert "assumed number of true-a items" in svg
        assert "pair: claude+mistral" in svg

    def test_row_label_names_mode_and_roster(self, grading_sketch):
        svg = render_traces([run_alarm(grading_sketch, DEFAULT)])
        assert ">ensemble: claude+mistral+gpt4</text>" in svg

    def test_row_label_escaped(self):
        sketch = EvaluationSketch(("a<b", "c&d"), 2, {"aa": 1, "bb": 1})
        svg = render_traces([run_alarm(sketch, DEFAULT)])
        assert ">ensemble: a&lt;b+c&amp;d</text>" in svg

    def test_row_label_parses_with_characters_xml_forbids(self):
        ids = ("u\x01v", "w\x1f\ufffe\uffff\tx")
        sketch = EvaluationSketch(ids, 4, {"aa": 2, "bb": 2})
        root = ET.fromstring(render_traces([run_alarm(sketch, DEFAULT)]))
        labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "ensemble: u\ufffdv+w\ufffd\ufffd\ufffd\tx" in labels

    def test_narrow_safe_run_is_drawn(self):
        """At q = 300 000 a hypothesis is 0.0024 units wide: a lone safe
        one is drawn 1 unit wide, after the band's other runs so that none
        paints over it."""
        q = 300_000
        trace = AlarmTrace(
            q, PerLabelSpec(0, 0, False), "ensemble", ("u", "v"),
            (Marginals(q // 2, q // 2),) * 2, tuple(q_a == 1 for q_a in range(q + 1)), True,
        )
        assert trace.verdict is Verdict.NOT_TRIGGERED
        assert svg_module._runs(trace) == [(0, 0, False), (1, 1, True), (2, q, False)]
        bands = self.bands(trace)
        assert [kind for kind, _, _ in bands] == ["band-unsafe", "band-unsafe", "band-safe"]
        assert bands[-1] == ("band-safe", "150", "1")

    def test_narrow_unsafe_run_is_drawn(self):
        """At q = 300 000 a lone unsafe hypothesis, 0.0024 units wide, is
        drawn 1 unit wide after the band's wide runs."""
        q, lone = 300_000, 150_000
        trace = AlarmTrace(
            q, PerLabelSpec(0, 0, False), "ensemble", ("u", "v"),
            (Marginals(lone, lone),) * 2, tuple(q_a != lone for q_a in range(q + 1)), True,
        )
        runs = [(0, lone - 1, True), (lone, lone, False), (lone + 1, q, True)]
        assert svg_module._runs(trace) == runs
        assert self.bands(trace) == [
            ("band-safe", "150", "360"), ("band-safe", "510", "360"), ("band-unsafe", "510", "1"),
        ]

    @staticmethod
    def bands(trace):
        """(class, x, width) of each band rect that ``render_traces`` draws."""
        root = ET.fromstring(render_traces([trace]))
        return [
            (rect.get("class"), rect.get("x"), rect.get("width"))
            for rect in root.iter("{http://www.w3.org/2000/svg}rect")
            if "swatch" not in rect.get("class")
        ]

    def test_no_trace_rejected(self):
        with pytest.raises(SketchError, match="nothing to render"):
            render_traces([])

    def test_mixed_q_rejected(self, grading_sketch):
        small = EvaluationSketch(("u",), 1, {"a": 1})
        with pytest.raises(Exception):
            render_traces([
                run_alarm(grading_sketch, DEFAULT),
                run_alarm(small, DEFAULT),
            ])


class TestClaimsFormat:
    def test_marginals_and_point(self, grading_sketch):
        text = json.dumps({
            "marginals": {"claude": [146, 135]},
            "point": {
                "q_a": 237,
                "correct_a": [136, 26, 211],
                "correct_b": [34, 43, 21],
                "pair_correct": {"mistral,claude": [25, 31]},
            },
        })
        claims = parse_claims(text, grading_sketch)
        assert claims.marginals == {"claude": Marginals(146, 135)}
        assert claims.point.q_a == 237
        # pair keys are normalized to roster index order
        assert set(claims.point.pair_correct) == {(0, 1)}
        assert claims.point.pair_correct[(0, 1)] == (25, 31)

    def test_empty_claims(self, grading_sketch):
        claims = parse_claims("{}", grading_sketch)
        assert claims.marginals == {}
        assert claims.point is None

    def test_rejections(self, grading_sketch):
        with pytest.raises(FormatError):
            parse_claims("[]", grading_sketch)
        with pytest.raises(FormatError):
            parse_claims(json.dumps({"surprise": 1}), grading_sketch)
        with pytest.raises(FormatError):
            parse_claims(json.dumps({"marginals": {"claude": [1]}}), grading_sketch)
        with pytest.raises(FormatError):
            parse_claims(
                json.dumps({"point": {"q_a": 1, "correct_a": [1, 1, 1]}}),
                grading_sketch,
            )
        with pytest.raises(FormatError):
            parse_claims(
                json.dumps({
                    "point": {"q_a": 1, "correct_a": [1, 1, 1],
                              "correct_b": [0, 0, 0],
                              "pair_correct": {"claude": [0, 0]}},
                }),
                grading_sketch,
            )

    POINT = {"q_a": 237, "correct_a": [136, 26, 211], "correct_b": [34, 43, 21]}

    @pytest.mark.parametrize(
        "claims",
        [
            {"marginals": {"claude": ["x", None]}},
            {"marginals": {"claude": [146.0, 135]}},
            {"marginals": {"claude": [True, 135]}},
            {"marginals": [146, 135]},
            {"point": dict(POINT, q_a="237")},
            {"point": dict(POINT, q_a=True)},
            {"point": dict(POINT, q_a=237.5)},
            {"point": dict(POINT, correct_a="abc")},
            {"point": dict(POINT, correct_b=[34, None, 21])},
            {"point": dict(POINT, pair_correct={"claude,mistral": [25, "31"]})},
            {"point": dict(POINT, pair_correct={"claude,mistral": [False, 31]})},
            {"point": dict(POINT, pair_correct=[[25, 31]])},
        ],
    )
    def test_non_integer_counts_rejected(self, grading_sketch, claims):
        with pytest.raises(FormatError):
            parse_claims(json.dumps(claims), grading_sketch)

    @staticmethod
    def pairs_named(roster, key):
        sketch = EvaluationSketch(roster, 1, {"a" * len(roster): 1})
        point = {"q_a": 1, "correct_a": [1] * len(roster), "correct_b": [0] * len(roster),
                 "pair_correct": {key: [1, 0]}}
        return set(parse_claims(json.dumps({"point": point}), sketch).point.pair_correct)

    @pytest.mark.parametrize("roster, key, pair", [
        # an id that holds a comma: the one cut whose sides are both ids
        (("a,b", "c", "d"), "a,b,c", (0, 1)),
        (("a,b", "c", "d"), "d,a,b", (0, 2)),
        (("a,b", "c,d"), "c,d,a,b", (0, 1)),
        (("a,b", "c"), "a,b , c", (0, 1)),
        # ids as written come first, so " c" can be named
        (("x", "c", " c"), "x, c", (0, 2)),
        (("x", "c", " c"), "x,c", (0, 1)),
        (("x", "c", " c"), " c,c", (1, 2)),
        # failing that, the sides with blanks stripped
        (("x", "c", " c"), "x, c ", (0, 1)),
        (("claude", "mistral"), " mistral , claude", (0, 1)),
    ])
    def test_pair_key_is_cut_at_the_comma_between_two_ids(self, roster, key, pair):
        assert self.pairs_named(roster, key) == {pair}

    @pytest.mark.parametrize("roster, key, message", [
        (("a,b", "c", "a", "b,c"), "a,b,c", "pair key 'a,b,c' is ambiguous: it names 2 pairs"),
        (("u", "v"), "u,w", "unknown classifier 'w'"),
        (("u", "v"), " w ,v", "unknown classifier 'w'"),
        (("u", "v"), "u", "pair key 'u' must be 'first,second' classifier ids"),
        (("u", "v"), "u,v,w", "must be 'first,second'"),
        (("a,b", "c"), "a,b,d", "must be 'first,second'"),
        (("u", "v"), "," * 100_000, "must be 'first,second'"),
        (("a,b", "c"), "c,c", "pair key 'c,c' names classifier 'c' twice"),
    ])
    def test_pair_key_that_names_no_one_pair(self, roster, key, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            self.pairs_named(roster, key)


class TestParamsFormat:
    def test_full_file(self, fixtures_dir):
        ids, params = parse_params(
            (fixtures_dir / "independent_demo.json").read_text()
        )
        assert ids == ("r1", "r2", "r3")
        assert params.p_a == Fraction(1, 2)
        assert params.accuracy_a == (Fraction(3, 4),) * 3

    def test_ids_optional(self):
        ids, params = parse_params(json.dumps({
            "p_a": "1/3", "accuracy_a": ["1/2"], "accuracy_b": ["2/3"],
        }))
        assert ids is None
        assert params.p_a == Fraction(1, 3)

    def test_rejections(self):
        with pytest.raises(FormatError):
            parse_params(json.dumps({"p_a": "1/2", "accuracy_a": ["1/2"]}))
        with pytest.raises(FormatError):
            parse_params(json.dumps({
                "p_a": "1/0", "accuracy_a": ["1/2"], "accuracy_b": ["1/2"],
            }))
        with pytest.raises(FormatError):
            parse_params(json.dumps({
                "p_a": "3/2", "accuracy_a": ["1/2"], "accuracy_b": ["1/2"],
            }))

    @pytest.mark.parametrize("key, value", [
        ("accuracy_a", 5),
        ("accuracy_b", "1/2"),
        ("classifiers", "u"),
        ("classifiers", {"u": 0}),
        ("accuracy_a", [None]),
        ("p_a", None),
        ("p_a", True),
        ("accuracy_a", [False]),
        ("accuracy_b", [True]),
        ("p_a", float("inf")),  # JSON Infinity and NaN, which json reads
        ("accuracy_b", [float("-inf")]),
        ("accuracy_a", [float("nan")]),
    ])
    def test_wrong_types_are_format_errors(self, key, value):
        obj = {
            "classifiers": ["u"], "p_a": "1/2",
            "accuracy_a": ["1/2"], "accuracy_b": ["1/2"],
        }
        obj[key] = value
        with pytest.raises(FormatError):
            parse_params(json.dumps(obj))


class TestCsvIngest:
    def write(self, tmp_path, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        return str(path)

    def test_one_line_with_mapping(self, tmp_path):
        path = self.write(tmp_path, "item_id,u\nx1,incorrect\n")
        result = ingest(path, "csv", {"incorrect": "a", "correct": "b"})
        assert result.roster == ("u",)
        decisions, truth = records_to_decisions(result)
        assert decisions == {"x1": {"u": "a"}}
        assert truth is None

    def test_truth_column(self, tmp_path):
        path = self.write(
            tmp_path, "item_id,u,v,truth\nx1,a,b,a\nx2,b,b,b\n"
        )
        result = ingest(path, "csv")
        decisions, truth = records_to_decisions(result)
        assert truth == {"x1": "a", "x2": "b"}
        sketch = sketch_from_decisions(decisions, result.roster, truth)
        assert dict(sketch.counts) == {"ab": 1, "bb": 1}

    def test_drops_reported(self, tmp_path):
        path = self.write(
            tmp_path,
            "item_id,u,truth\nx1,a,a\nx2,,a\nx3,b,\n",
        )
        result = ingest(path, "csv")
        assert [rec.item_id for rec in result.records] == ["x1"]
        assert result.dropped == (
            ("x2", "empty response for classifier u"),
            ("x3", "missing truth label"),
        )

    def test_rows_sorted_by_item_id(self, tmp_path):
        path = self.write(tmp_path, "item_id,u\nzz,a\naa,b\n")
        result = ingest(path, "csv")
        assert [rec.item_id for rec in result.records] == ["aa", "zz"]

    def test_errors(self, tmp_path):
        with pytest.raises(IngestError):
            ingest(self.write(tmp_path, ""), "csv")
        with pytest.raises(IngestError):
            ingest(self.write(tmp_path, "id,u\nx1,a\n"), "csv")
        with pytest.raises(IngestError):
            ingest(self.write(tmp_path, "item_id\nx1\n"), "csv")
        with pytest.raises(IngestError):
            ingest(self.write(tmp_path, "item_id,u,u\nx1,a,b\n"), "csv")
        with pytest.raises(IngestError) as exc:
            ingest(self.write(tmp_path, "item_id,u\nx1,a,b\n"), "csv")
        assert "row 2" in str(exc.value)
        with pytest.raises(IngestError):
            ingest(self.write(tmp_path, "item_id,u\nx1,maybe\n"), "csv")
        with pytest.raises(IngestError):
            ingest(self.write(tmp_path, "item_id,u\nx1,a\nx1,b\n"), "csv")
        with pytest.raises(IngestError):
            ingest(self.write(tmp_path, "item_id,u\n,a\n"), "csv")
        with pytest.raises(IngestError):
            ingest(
                self.write(tmp_path, "item_id,u\nx1,a\n"), "csv",
                {"a": "yes"},
            )

    def test_unknown_format(self, tmp_path):
        with pytest.raises(IngestError):
            ingest(self.write(tmp_path, "item_id,u\n"), "xml")

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_ends(self, tmp_path, end):
        path = tmp_path / "table.csv"
        path.write_bytes(end.join(["item_id,u,v,truth", "x1,a,b,a", "", "x2,b,b,b", ""]).encode())
        result = ingest(str(path), "csv")
        assert result.records == (
            DecisionRecord("x1", {"u": "a", "v": "b"}, "a"),
            DecisionRecord("x2", {"u": "b", "v": "b"}, "b"),
        )
        path.write_bytes(end.join(["item_id,u,truth", "x1,a,a", "", "x2,b"]).encode())
        with pytest.raises(IngestError, match="^row 4: expected 3 columns"):
            ingest(str(path), "csv")

    @pytest.mark.parametrize("inner", ["\r", "\r\n", "\n"])
    def test_quoted_line_end_in_a_cell_survives(self, tmp_path, inner):
        path = tmp_path / "table.csv"
        path.write_bytes(f'item_id,"c{inner}1",v\n"x{inner}",a,b\n'.encode())
        result = ingest(str(path), "csv")
        assert result.roster == (f"c{inner}1", "v")
        assert [rec.item_id for rec in result.records] == [f"x{inner}"]

    def test_oversized_cell_names_its_row(self, tmp_path):
        # past the csv module's field size limit, which ingest leaves as it is
        big = "x" * 200_000
        with pytest.raises(IngestError, match="^row 1: field larger than field limit"):
            ingest(self.write(tmp_path, f"item_id,{big}\nx1,a\n"), "csv")
        with pytest.raises(IngestError, match="^row 3: field larger than field limit"):
            ingest(self.write(tmp_path, f"item_id,u\nx1,a\n{big},b\nx3,a\n"), "csv")
        assert csv.field_size_limit() == 131072

    def test_nul_byte_reads_or_is_an_ingest_error(self, tmp_path):
        # the csv module reads a NUL from Python 3.11 on, and refuses it before
        try:
            result = ingest(self.write(tmp_path, "item_id,u\nx\x001,a\n"), "csv")
        except IngestError as exc:
            assert str(exc).startswith("row 2: ")
        else:
            assert [rec.item_id for rec in result.records] == ["x\x001"]

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("\ufeffitem_id,u,truth\nx1,a,b\n", encoding="utf-8")
        result = ingest(str(path), "csv")
        assert result.roster == ("u",)
        assert result.records[0].truth == "b"

    def test_same_answers_share_one_read_only_mapping(self, tmp_path):
        path = self.write(tmp_path, "item_id,u,v\nx1,yes,no\nx2,a,b\nx3,b,b\nx4,yes,no\n")
        result = ingest(path, "csv", {"yes": "a", "no": "b", "a": "a", "b": "b"})
        x1, x2, x3, x4 = result.records
        assert x1.responses is x2.responses is x4.responses
        assert x3.responses == {"u": "b", "v": "b"}
        with pytest.raises(TypeError):
            x1.responses["u"] = "b"
        decisions, _ = records_to_decisions(result)
        assert decisions["x1"] is x1.responses

    def test_records_are_named_tuples(self, tmp_path):
        path = self.write(tmp_path, "item_id,u,truth\nx1,a,b\n")
        (record,) = ingest(path, "csv").records
        assert record == DecisionRecord("x1", {"u": "a"}, "b")
        assert (record.item_id, record.truth) == ("x1", "b")
        assert DecisionRecord._fields == ("item_id", "responses", "truth")
        assert DecisionRecord("x2", {}).truth is None
        with pytest.raises(AttributeError):
            record.truth = "a"


class TestJsonlIngest:
    def write(self, tmp_path, lines):
        path = tmp_path / "table.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_basic(self, tmp_path):
        path = self.write(tmp_path, [
            json.dumps({"item_id": "x1", "responses": {"v": "a", "u": "b"}}),
            json.dumps({"item_id": "x2", "responses": {"v": "b", "u": "b"}}),
        ])
        result = ingest(path, "jsonl")
        # roster order comes from the first record
        assert result.roster == ("v", "u")
        assert len(result.records) == 2

    def test_partial_truth_drops(self, tmp_path):
        path = self.write(tmp_path, [
            json.dumps({"item_id": "x1", "responses": {"u": "a"}, "truth": "a"}),
            json.dumps({"item_id": "x2", "responses": {"u": "b"}, "truth": ""}),
        ])
        result = ingest(path, "jsonl")
        assert [rec.item_id for rec in result.records] == ["x1"]
        assert result.dropped == (("x2", "missing truth label"),)

    def test_null_response_drops(self, tmp_path):
        path = self.write(tmp_path, [
            json.dumps({"item_id": "x1", "responses": {"u": None}}),
            json.dumps({"item_id": "x2", "responses": {"u": "a"}}),
        ])
        result = ingest(path, "jsonl")
        assert [rec.item_id for rec in result.records] == ["x2"]
        assert result.dropped[0][0] == "x1"

    @pytest.mark.parametrize("field", ["responses", "truth"])
    @pytest.mark.parametrize("raw", [["yes"], {"k": "yes"}, 1])
    def test_non_string_label_with_map(self, tmp_path, field, raw):
        record = {"item_id": "x1", "responses": {"u": "yes"}, "truth": "yes"}
        if field == "responses":
            record["responses"] = {"u": raw}
        else:
            record["truth"] = raw
        path = self.write(tmp_path, [json.dumps(record)])
        with pytest.raises(IngestError, match="not in the label map"):
            ingest(path, "jsonl", {"yes": "a"})

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "table.jsonl"
        record = '{"item_id": "x1", "responses": {"u": "a"}}\n'
        path.write_text("\ufeff" + record, encoding="utf-8")
        result = ingest(str(path), "jsonl")
        assert result.roster == ("u",)
        # only a mark that starts the file is one
        path.write_text(record + "\ufeff{}\n", encoding="utf-8")
        bom_error = "line 2: not valid JSON .Unexpected UTF-8 BOM"
        with pytest.raises(IngestError, match=bom_error):
            ingest(str(path), "jsonl")

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_line_separators_inside_strings(self, tmp_path, char):
        # JSON strings may hold these raw; str.splitlines would break there
        item = f"x{char}y"
        decisions = {item: {"u": "a", "v": "b"}, "z": {"u": "b", "v": "b"}}
        truth = {item: "a", "z": "b"}
        path = self.write(tmp_path, [
            json.dumps({"item_id": i, "responses": decisions[i], "truth": truth[i]},
                       ensure_ascii=False)
            for i in decisions
        ])
        csv_path = tmp_path / "table.csv"
        csv_path.write_text(decisions_to_csv_text(decisions, ("u", "v"), truth))
        from_jsonl = ingest(path, "jsonl")
        assert from_jsonl == ingest(str(csv_path), "csv")
        assert [rec.item_id for rec in from_jsonl.records] == [item, "z"]
        got_decisions, got_truth = records_to_decisions(from_jsonl)
        assert sketch_from_decisions(got_decisions, from_jsonl.roster, got_truth) == (
            sketch_from_decisions(decisions, ("u", "v"), truth)
        )

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_carriage_return_line_ends(self, tmp_path, end):
        lines = [
            json.dumps({"item_id": "x1", "responses": {"u": "a"}}),
            json.dumps({"item_id": "x2", "responses": {"u": "b"}}),
        ]
        want = ingest(self.write(tmp_path, lines), "jsonl")
        path = tmp_path / "table.jsonl"
        path.write_bytes((end.join(lines) + end).encode())
        assert ingest(str(path), "jsonl") == want

    def test_errors(self, tmp_path):
        with pytest.raises(IngestError):
            ingest(self.write(tmp_path, ["{bad json"]), "jsonl")
        with pytest.raises(IngestError):
            ingest(self.write(tmp_path, [json.dumps({"item_id": "x1"})]), "jsonl")
        with pytest.raises(IngestError):
            ingest(
                self.write(tmp_path, [
                    json.dumps({"item_id": "x1", "responses": {"u": "a"},
                                "notes": "hm"}),
                ]),
                "jsonl",
            )
        with pytest.raises(IngestError):
            ingest(
                self.write(tmp_path, [
                    json.dumps({"item_id": "x1", "responses": {"u": "a"}}),
                    json.dumps({"item_id": "x2", "responses": {"w": "a"}}),
                ]),
                "jsonl",
            )
        with pytest.raises(IngestError):
            ingest(self.write(tmp_path, [""]), "jsonl")


class TestDecisionCsv:
    def test_golden(self):
        text = decisions_to_csv_text(
            {"x2": {"u": "b"}, "x1": {"u": "a"}}, ("u",), {"x1": "a", "x2": "b"}
        )
        assert text == "item_id,u,truth\nx1,a,a\nx2,b,b\n"

    def test_round_trip_through_ingest(self, tmp_path):
        decisions = {"x1": {"u": "a", "v": "b"}, "x2": {"u": "b", "v": "b"}}
        truth = {"x1": "b", "x2": "a"}
        path = tmp_path / "t.csv"
        path.write_text(decisions_to_csv_text(decisions, ("u", "v"), truth))
        result = ingest(str(path), "csv")
        assert records_to_decisions(result) == (decisions, truth)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.text(st.sampled_from('c\r\n,"'), min_size=1, max_size=4),
                 min_size=1, max_size=4, unique=True),
        st.text(st.sampled_from('x\r\n,"'), max_size=3),
        st.integers(1, 12),
        st.integers(0, 2**16),
    )
    def test_generated_tables_read_back(self, table_dir, ids, prefix, q, seed):
        # ids and item ids that hold "\r", "\n", "\r\n", "," or '"'
        half = Fraction(1, 2)
        params = IndependentParams(half, [half] * len(ids), [half] * len(ids))
        drawn, drawn_truth = generate_decisions(ids, params, q, seed)
        decisions = {prefix + item: row for item, row in drawn.items()}
        truth = {prefix + item: label for item, label in drawn_truth.items()}
        text = decisions_to_csv_text(decisions, ids, truth)
        path = table_dir / "generated.csv"
        path.write_bytes(text.encode())
        result = ingest(str(path), "csv")
        assert result.roster == tuple(ids)
        assert result.dropped == ()
        assert [rec.item_id for rec in result.records] == sorted(decisions)
        got_decisions, got_truth = records_to_decisions(result)
        assert sketch_from_decisions(got_decisions, result.roster, got_truth) == (
            sketch_from_decisions(decisions, ids, truth)
        )
        if "\r" not in prefix + "".join(ids):
            # the bytes a writer ending its rows in "\n" gives
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(["item_id", *ids, "truth"])
            for item in sorted(decisions):
                writer.writerow([item, *(decisions[item][cid] for cid in ids), truth[item]])
            assert text == buffer.getvalue()


# ----------------------------------------------- ingest against the referee

# item ids, some of which csv has to quote, and ids and labels with a ":";
# in jsonl, '"', "\n" and "\\" are spelled as escapes, and a tab raw or so
ITEM_IDS = ["x1", "x2", "x3", "x4", "a,b", 'say "hi"', "two\nlines", " s", "é", "urn:x",
            "back\\slash", "tab\there"]
CLASSIFIER_IDS = ["u", "v", "w,x", 'q"t', "z y", "openai:m"]
CSV_CELLS = ["a", "b", "", "yes", "no", "maybe", "A", "is:a"]
# what a jsonl response or truth may hold besides text: empties, and
# JSON values no label map takes, some of them unhashable
JSON_CELLS = CSV_CELLS + [None, 0, 1, True, 1.5, ["a"], {"k": "a"}, []]
LABEL_MAPS = [
    None,
    {"yes": "a", "no": "b"},
    {"yes": "a", "no": "b", "maybe": "c"},  # a label outside a/b
    {"a": "b", "b": "a", "yes": "a"},
    {"": "a", "yes": "b", "a": "a"},  # an empty cell stays empty
    {"is:a": "a", "no": "b"},
]


def sometimes(draw, percent: int) -> bool:
    # away from the ends of the range, which hypothesis favours
    return 40 <= draw(st.integers(0, 99)) < 40 + percent


def draw_cell(draw, label_map, pool):
    """Mostly a label the map takes, sometimes an empty cell, now and
    then anything in ``pool``."""
    if sometimes(draw, 2):
        return draw(st.sampled_from(pool))
    if sometimes(draw, 5):
        return draw(st.sampled_from(["", None] if None in pool else [""]))
    good = ["a", "b"] if label_map is None else [
        raw for raw, label in label_map.items() if raw and label in ("a", "b")
    ]
    return draw(st.sampled_from(good))


def draw_item(draw, k: int) -> str:
    """Row ``k``'s item id: unique but for one time in twenty."""
    item = draw(st.sampled_from(ITEM_IDS))
    return item if sometimes(draw, 5) else f"{item}{k}"


# (opening, colon, comma) of a jsonl record: json.dumps's, compact, and
# tabs or blanks on both sides of each ':'
LAYOUTS = [("{", ": ", ", "), ("{", ":", ","), ("{\t", "\t:\t", ",\t"), ("{ ", " : ", " ,  ")]


def json_object(pairs, layout=LAYOUTS[0]) -> str:
    """An object from key/value texts, repeated keys and all."""
    opening, colon, comma = layout
    return opening + comma.join(f"{k}{colon}{v}" for k, v in pairs) + "}"


def spell(draw, value) -> str:
    """``value`` as JSON; the ':' of a string, half of the time, spelled
    as the escape that decodes to it, and a tab, half of the time, raw,
    which JSON does not allow in a string."""
    text = json.dumps(value)
    if isinstance(value, str) and ":" in value and draw(st.booleans()):
        text = text.replace(":", draw(st.sampled_from(["\\u003a", "\\u003A"])))
    if isinstance(value, str) and "\t" in value and draw(st.booleans()):
        text = text.replace("\\t", "\t")
    return text


@st.composite
def csv_tables(draw):
    """(label map, table text) of a csv table."""
    label_map = draw(st.sampled_from(LABEL_MAPS))
    roster = draw(st.lists(st.sampled_from(CLASSIFIER_IDS), min_size=1, max_size=5,
                           unique=True))
    if sometimes(draw, 3):
        roster.append(roster[0])
    has_truth = draw(st.booleans())
    header = ["item_id", *roster] + (["truth"] if has_truth else [])
    if sometimes(draw, 3):
        header = draw(st.sampled_from([[], ["id", "u"], ["item_id"], ["item_id", "truth"]]))
    width = len(header)
    rows = [header]
    for k in range(0 if sometimes(draw, 3) else draw(st.sampled_from([4, 2, 3, 5, 6, 1]))):
        item = "" if sometimes(draw, 3) else draw_item(draw, k)
        row = [item, *(draw_cell(draw, label_map, CSV_CELLS) for _ in range(width - 1))]
        if sometimes(draw, 4):
            row = row[: draw(st.integers(0, width + 1))] + ["b"] * draw(st.integers(0, 2))
        rows.append(row)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    lines = buffer.getvalue().split("\n")
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " "])))
    return label_map, "\n".join(lines)


def draw_record(draw, label_map, roster, k: int) -> str:
    cids = list(roster)
    fault = draw(st.integers(0, 99)) - 40  # in 0..14 one time in seven
    if fault == 0:  # a missing or an extra classifier
        cids = cids[1:] if draw(st.booleans()) else cids + ["extra"]
    elif fault < 4:  # the same classifiers in another order
        cids = draw(st.permutations(cids))
    elif fault == 4 and cids:  # a classifier named twice
        cids.insert(draw(st.integers(0, len(cids))), cids[0])
    layout = draw(st.sampled_from(LAYOUTS))
    responses = json_object(
        [(spell(draw, cid), spell(draw, draw_cell(draw, label_map, JSON_CELLS))) for cid in cids],
        layout,
    )
    item = draw_item(draw, k)
    if fault == 5:
        item = draw(st.sampled_from(["", 7, None]))
    pairs = [('"item_id"', spell(draw, item)), ('"responses"', responses)]
    if draw(st.booleans()):
        truth = draw_cell(draw, label_map, JSON_CELLS)
        pairs.append(('"truth"', spell(draw, truth)))
    if fault == 6:
        pairs.append(('"notes"', '"x"'))
    elif fault == 7:  # item_id restated, after the first or last with the same id
        if draw(st.booleans()):
            pairs.insert(1, ('"item_id"', spell(draw, "urn:x3")))
        else:
            pairs.append(('"item_id"', spell(draw, item)))
    elif fault < 11:
        pairs = draw(st.permutations(pairs))
    elif fault == 11:
        pairs = [('"item_id"', spell(draw, item)), ('"responses"', '["a"]')]
    elif fault == 12:
        pairs = pairs[1:]
    text = json_object(pairs, layout)
    if fault == 13:
        return f"  {text} "
    if fault == 14:
        return draw(st.sampled_from(["[1]", '"x"', "null", "{bad", "{}", "\ufeff{}"]))
    return text


# a record's opening up to its first id literal, then that literal
ID_LITERAL = re.compile(r'(\{[ \t]*"item_id"[ \t]*:[ \t]*)("(?:[^"\\]|\\.)*")')
# openings for a line that takes an earlier line's remainder: some well
# formed, some with a character before the record or a space JSON does not
# allow, where the line must still be an error
OPENINGS = ['{"item_id":', '{\t"item_id" :\t', ' {"item_id": ', 'x{"item_id": ',
            '{\x0c"item_id": ', '{"item_id"\u2028: ', '{"item_id":\xa0']


@st.composite
def jsonl_tables(draw):
    """(label map, table text) of a jsonl table."""
    label_map = draw(st.sampled_from(LABEL_MAPS))
    roster = draw(st.lists(st.sampled_from(CLASSIFIER_IDS), min_size=0 if sometimes(draw, 3)
                           else 1, max_size=5, unique=True))
    count = 0 if sometimes(draw, 3) else draw(st.sampled_from([4, 2, 3, 5, 6, 1, 8, 12]))
    lines = [draw_record(draw, label_map, roster, k) for k in range(count)]
    for _ in range(draw(st.sampled_from([0, 1, 3, 6])) if lines else 0):
        # a later line with an earlier line's remainder under another id
        k = draw(st.integers(0, len(lines) - 1))
        opening = ID_LITERAL.match(lines[k])
        if opening:
            head = opening[1] if draw(st.booleans()) else draw(st.sampled_from(OPENINGS))
            item = draw(st.sampled_from([draw_item(draw, len(lines)), f"urn:y{len(lines)}", ""]))
            again = head + spell(draw, item) + lines[k][opening.end():]
            lines.insert(draw(st.integers(k + 1, len(lines))), again)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        k = draw(st.integers(0, len(lines)))
        extra = draw(st.sampled_from(["blank", "space", "two", "split"]))
        if extra == "blank":
            lines.insert(k, "")
        elif extra == "space":
            lines.insert(k, " \t")
        elif extra == "two" and k:  # a line holding two objects
            lines[k - 1] += draw(st.sampled_from([" ", ", "])) + lines[k - 1]
        elif extra == "split" and k:  # a record split across two lines
            half = len(lines[k - 1]) // 2
            lines[k - 1 : k] = [lines[k - 1][:half], lines[k - 1][half:]]
    return label_map, "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def ingest_outcome(read, to_decisions, build, path, fmt, label_map):
    """Records, drops and sketch text of one ingest, or the exception's
    type and message."""
    try:
        result = read(path, fmt, label_map)
        text = None
        if result.records:
            decisions, truth = to_decisions(result)
            text = sketch_to_text(build(decisions, result.roster, truth))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)
    return result.records, result.dropped, text


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


class TestIngestAgainstReferee:
    """One row loop and shared responses mappings give what one loop per
    format and a dict per item gave: the same records, drops in the same
    order, the same sketch bytes, or the same error."""

    def check(self, table_dir, fmt, label_map, text, bom):
        path = table_dir / f"table.{fmt}"
        path.write_text(("\ufeff" if bom else "") + text, encoding="utf-8")
        got = ingest_outcome(ingest, records_to_decisions, sketch_from_decisions,
                             str(path), fmt, label_map)
        want = ingest_outcome(referee_ingest, referee_records_to_decisions,
                              referee_sketch_from_decisions, str(path), fmt, label_map)
        assert got == want
        if isinstance(got[0], tuple):
            records = got[0]
            assert all(isinstance(rec.responses, MappingProxyType) for rec in records)
            distinct = {tuple(rec.responses.items()) for rec in records}
            assert len({id(rec.responses) for rec in records}) == len(distinct)

    @settings(max_examples=300, deadline=None)
    @given(csv_tables(), st.booleans())
    def test_csv(self, table_dir, table, bom):
        self.check(table_dir, "csv", *table, bom)

    @settings(max_examples=400, deadline=None)
    @given(jsonl_tables(), st.booleans())
    def test_jsonl(self, table_dir, table, bom):
        self.check(table_dir, "jsonl", *table, bom)


# rows drawn from a small pool of shared mappings, some of them bad
ROW_POOL = [
    MappingProxyType({"u": "a", "v": "b"}),
    MappingProxyType({"u": "b", "v": "b"}),
    MappingProxyType({"u": "a"}),
    MappingProxyType({"u": "a", "v": "c"}),
    {"u": "b", "v": ["a"]},
]


class TestSketchFromDecisionsAgainstReferee:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["i1", "i2", "i3", "i4", "i5"]),
                st.sampled_from(range(len(ROW_POOL))) | st.builds(
                    dict, st.fixed_dictionaries({"u": st.sampled_from("ab"),
                                                 "v": st.sampled_from("ab")})),
                st.sampled_from(["a", "b", "a", "b", "x", None, ["a"]]),
            ),
            max_size=6,
        ),
        st.booleans(),
    )
    def test_first_bad_item(self, items, with_truth):
        decisions = {
            item: ROW_POOL[row] if isinstance(row, int) else row for item, row, _ in items
        }
        truth = None
        if with_truth:
            truth = {item: t for item, _, t in items if t is not None}

        def outcome(build):
            try:
                return sketch_to_text(build(decisions, ("u", "v"), truth))
            except Exception as exc:  # noqa: BLE001 - compared, not swallowed
                return type(exc), str(exc)

        assert outcome(sketch_from_decisions) == outcome(referee_sketch_from_decisions)
