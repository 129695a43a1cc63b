import json
import os
from fractions import Fraction

import pytest

from crosscheck import (
    EvaluationSketch,
    FormatError,
    IngestError,
    Marginals,
    OverallSpec,
    PerLabelSpec,
    Verdict,
    atomic_write_text,
    decisions_to_csv_text,
    default_label,
    emit_trace,
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
        # structural sketch errors surface as format errors
        with pytest.raises(FormatError):
            parse_sketch(json.dumps({"classifiers": ["u"], "q": 0, "counts": {}}))


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

    def test_emit_rejects_incomplete(self, tmp_path, grading_sketch):
        from crosscheck import restrict_qa_range

        trace = run_alarm(grading_sketch, DEFAULT)
        narrowed = restrict_qa_range(trace, 0, 100)
        with pytest.raises(FormatError):
            emit_trace(narrowed, "csv", str(tmp_path / "t.csv"))

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
            parse_trace(json.dumps({"q": 1}))
        good = {
            "q": 0,
            "spec": {"kind": "overall", "threshold": "1/2", "strict": True},
            "mode": "ensemble",
            "classifiers": ["u"],
            "verdict": "not_triggered",
            "slices": [
                {"q_a": 0, "intervals_a": [[0, 0]], "intervals_b": [[0, 0]],
                 "safe_exists": True, "refined": False}
            ],
        }
        parse_trace(json.dumps(good))
        bad = dict(good, verdict="maybe")
        with pytest.raises(FormatError):
            parse_trace(json.dumps(bad))
        bad = dict(good, spec={"kind": "sometimes"})
        with pytest.raises(FormatError):
            parse_trace(json.dumps(bad))


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

    def test_custom_labels_escaped(self, grading_sketch):
        trace = run_alarm(grading_sketch, DEFAULT, pair=("claude", "mistral"))
        svg = render_traces([trace], labels=["a < b"])
        assert "a &lt; b" in svg

    def test_label_count_must_match(self, grading_sketch):
        trace = run_alarm(grading_sketch, DEFAULT)
        with pytest.raises(Exception):
            render_traces([trace], labels=["one", "two"])

    def test_default_label(self, grading_sketch):
        trace = run_alarm(grading_sketch, DEFAULT)
        assert default_label(trace) == "ensemble: claude+mistral+gpt4"

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
        with pytest.raises(FormatError):
            parse_params(json.dumps({
                "classifiers": ["u", "v"],
                "p_a": "1/2", "accuracy_a": ["1/2"], "accuracy_b": ["1/2"],
            }))

    @pytest.mark.parametrize("key, value", [
        ("accuracy_a", 5),
        ("accuracy_b", "1/2"),
        ("classifiers", "u"),
        ("classifiers", [5]),
        ("accuracy_a", [None]),
        ("p_a", None),
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
