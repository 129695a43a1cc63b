"""File formats: sketches, traces, claims, parameters, decision tables.

Sketch and trace files are JSON with a canonical layout (fixed key
order, two-space indent, rationals as "n/d" strings, trailing newline),
so loading a tool-written file and saving it again is byte-identical.
A trace holds O(q·N) intervals; its JSON is written in that layout
directly rather than through the pure-Python indenting encoder, and
``parse_trace`` checks the schema the writer relies on.  All writes
go through a temp-file-and-rename so readers never observe a
half-written file.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Sequence

from .alarm import AlarmTrace, QaSlice, Verdict
from .axioms import IntInterval
from .independent import IndependentParams
from .model import (
    LABELS,
    EvaluationPoint,
    EvaluationSketch,
    Marginals,
    OverallSpec,
    PerLabelSpec,
    SafetySpec,
    SketchError,
)
from .oracle import SummaryClaims


class FormatError(ValueError):
    """A file's content does not match its format."""


class IngestError(ValueError):
    """A decision-table file is malformed or contains unmapped labels."""


def atomic_write_text(path: str, text: str) -> None:
    """Write through a temp file in the same directory and a rename; an
    OSError names ``path``, not the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        # mkstemp files are private by default; match ordinary-file perms
        mask = os.umask(0)
        os.umask(mask)
        os.fchmod(fd, 0o666 & ~mask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _load_json(text: str, where: str | None = None) -> object:
    """Parse JSON; malformed or too deeply nested input raises
    FormatError, or, for the jsonl record at ``where``, IngestError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        reason = exc if isinstance(exc, json.JSONDecodeError) else "nested too deeply"
        if where is None:
            raise FormatError(f"not valid JSON: {reason}") from None
        raise IngestError(f"{where}: not valid JSON ({reason})") from None


def _require_keys(obj: Mapping, required: Sequence[str], optional: Sequence[str],
                  what: str) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise FormatError(f"{what} is missing field(s): {', '.join(missing)}")
    unknown = [k for k in obj if k not in (*required, *optional)]
    if unknown:
        raise FormatError(f"{what} has unknown field(s): {', '.join(unknown)}")


# ---------------------------------------------------------------- sketches

def parse_sketch(text: str) -> EvaluationSketch:
    obj = _load_json(text)
    _require_keys(obj, ("classifiers", "q", "counts"), ("truth_split",), "sketch file")
    classifiers = obj["classifiers"]
    if not isinstance(classifiers, list) or not all(
        isinstance(c, str) for c in classifiers
    ):
        raise FormatError("'classifiers' must be a list of strings")
    if not isinstance(obj["counts"], dict):
        raise FormatError("'counts' must be an object mapping patterns to integers")
    split = None
    if "truth_split" in obj:
        raw = obj["truth_split"]
        if not isinstance(raw, dict):
            raise FormatError("'truth_split' must be an object")
        split = {}
        for pattern, entry in raw.items():
            if not isinstance(entry, list) or len(entry) != 2:
                raise FormatError(
                    f"truth_split entry for {pattern!r} must be a two-element list"
                )
            split[pattern] = (entry[0], entry[1])
    try:
        return EvaluationSketch(tuple(classifiers), obj["q"], obj["counts"], split)
    except SketchError as exc:
        raise FormatError(str(exc)) from None


def sketch_to_text(sketch: EvaluationSketch) -> str:
    obj: dict = {
        "classifiers": list(sketch.classifiers),
        "q": sketch.q,
        "counts": {p: sketch.counts[p] for p in sorted(sketch.counts)},
    }
    if sketch.truth_split is not None:
        obj["truth_split"] = {
            p: list(sketch.truth_split[p]) for p in sorted(sketch.truth_split)
        }
    return json.dumps(obj, indent=2) + "\n"


def load_sketch(path: str) -> EvaluationSketch:
    with open(path, encoding="utf-8") as handle:
        return parse_sketch(handle.read())


def save_sketch(sketch: EvaluationSketch, path: str) -> None:
    atomic_write_text(path, sketch_to_text(sketch))


# ------------------------------------------------------------------ traces

def _spec_to_obj(spec: SafetySpec) -> dict:
    if isinstance(spec, PerLabelSpec):
        return {
            "kind": "per-label",
            "threshold_a": str(spec.threshold_a),
            "threshold_b": str(spec.threshold_b),
            "strict": spec.strict,
        }
    return {"kind": "overall", "threshold": str(spec.threshold), "strict": spec.strict}


def _flag(value: object, what: str) -> bool:
    if not isinstance(value, bool):
        raise FormatError(f"{what} must be true or false")
    return value


def _spec_from_obj(obj: Mapping) -> SafetySpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError("spec must be an object with a 'kind'")
    if obj["kind"] == "per-label":
        keys = ("threshold_a", "threshold_b")
        _require_keys(obj, ("kind", *keys, "strict"), (), "spec")
        build = PerLabelSpec
    elif obj["kind"] == "overall":
        keys = ("threshold",)
        _require_keys(obj, ("kind", *keys, "strict"), (), "spec")
        build = OverallSpec
    else:
        raise FormatError(f"unknown spec kind {obj['kind']!r}")
    if not all(isinstance(obj[key], str) for key in keys):
        raise FormatError('spec thresholds must be "n/d" strings')
    strict = _flag(obj["strict"], "spec 'strict'")
    try:
        return build(*(Fraction(obj[key]) for key in keys), strict)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad spec threshold: {exc}") from None


def _slice_json_format(size: int) -> str:
    """``%`` template of one JSON slice: an :meth:`AlarmTrace.rows` row
    for ``size`` classifiers, with its two flags as JSON text."""
    end = "        [\n          %s,\n          %s\n        ]"
    intervals = "[\n" + ",\n".join([end] * size) + "\n      ]" if size else "[]"
    return (
        '    {\n      "q_a": %s,\n'
        f'      "intervals_a": {intervals},\n'
        f'      "intervals_b": {intervals},\n'
        '      "safe_exists": %s,\n      "refined": %s\n    }'
    )


def trace_to_json_text(trace: AlarmTrace) -> str:
    """The trace in its canonical layout, the bytes ``json.dumps(obj,
    indent=2) + "\\n"`` would give for the obvious object.

    ``json.dumps`` writes only the small header (so string escaping stays
    its own); the O(q·N) slices follow the fixed schema and are formatted
    from :meth:`AlarmTrace.rows` with one template, because with
    ``indent`` set the encoder runs in pure Python.  Slice fields must be
    plain ints and bools, one interval per classifier and label, as
    :func:`run_alarm` and :func:`parse_trace` give them.
    """
    header = json.dumps(
        {
            "q": trace.q,
            "spec": _spec_to_obj(trace.spec),
            "mode": trace.mode,
            "classifiers": list(trace.classifiers),
            "verdict": trace.verdict.value,
            "slices": [],
        },
        indent=2,
    )
    template = _slice_json_format(len(trace.classifiers))
    parts = [
        template % (*row[:-2], "true" if row[-2] else "false", "true" if row[-1] else "false")
        for row in trace.rows()
    ]
    if not parts:
        return header + "\n"
    # the header ends in '"slices": []\n}'; open that list around the
    # slices, so that one join builds the file text and nothing else
    parts[0] = f"{header[:-4]}[\n{parts[0]}"
    parts[-1] += "\n  ]\n}\n"
    return ",\n".join(parts)


def _intervals_from(value: object, size: int, what: str) -> tuple[IntInterval, ...]:
    if not isinstance(value, list) or len(value) != size:
        raise FormatError(f"{what} must be a list of {size} intervals")
    return tuple(IntInterval(*_int_list(iv, 2, f"each of {what}")) for iv in value)


def parse_trace(text: str) -> AlarmTrace:
    """Read a trace file, checking its schema: counts are integers,
    flags are booleans, and every slice has one interval per classifier
    and label."""
    obj = _load_json(text)
    _require_keys(
        obj, ("q", "spec", "mode", "classifiers", "verdict", "slices"), (), "trace file"
    )
    if not _is_int(obj["q"]):
        raise FormatError("trace 'q' must be an integer")
    if not isinstance(obj["mode"], str):
        raise FormatError("trace 'mode' must be a string")
    classifiers = obj["classifiers"]
    if not isinstance(classifiers, list) or not all(
        isinstance(c, str) for c in classifiers
    ):
        raise FormatError("trace 'classifiers' must be a list of strings")
    if not isinstance(obj["slices"], list):
        raise FormatError("trace 'slices' must be a list")
    size = len(classifiers)
    slices = []
    for raw in obj["slices"]:
        _require_keys(
            raw,
            ("q_a", "intervals_a", "intervals_b", "safe_exists", "refined"),
            (),
            "trace slice",
        )
        if not _is_int(raw["q_a"]):
            raise FormatError("slice 'q_a' must be an integer")
        slices.append(
            QaSlice(
                raw["q_a"],
                _intervals_from(raw["intervals_a"], size, "slice 'intervals_a'"),
                _intervals_from(raw["intervals_b"], size, "slice 'intervals_b'"),
                _flag(raw["safe_exists"], "slice 'safe_exists'"),
                _flag(raw["refined"], "slice 'refined'"),
            )
        )
    try:
        verdict = Verdict(obj["verdict"])
    except ValueError:
        raise FormatError(f"unknown verdict {obj['verdict']!r}") from None
    return AlarmTrace(
        obj["q"],
        _spec_from_obj(obj["spec"]),
        obj["mode"],
        tuple(classifiers),
        tuple(slices),
        verdict,
    )


def trace_to_csv_text(trace: AlarmTrace) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["q_a"]
    for cid in trace.classifiers:
        header += [f"{cid}_lo_a", f"{cid}_hi_a", f"{cid}_lo_b", f"{cid}_hi_b"]
    header.append("safe_exists")
    writer.writerow(header)
    # q_a and each classifier's lo_a, hi_a, lo_b, hi_b out of a label-major row
    n = 2 * len(trace.classifiers)
    order = [i for k in range(1, n, 2) for i in (k, k + 1, k + n, k + n + 1)]
    pick = itemgetter(0, *order) if order else lambda row: row[:1]
    writer.writerows((*pick(row), int(row[-2])) for row in trace.rows())
    return buffer.getvalue()


def emit_trace(trace: AlarmTrace, fmt: str, path: str) -> None:
    """Write one complete trace as csv, json, or svg."""
    if not trace.is_complete:
        raise FormatError(
            "trace is incomplete (restricted or truncated); emit needs all "
            f"{trace.q + 1} slices"
        )
    if fmt == "json":
        atomic_write_text(path, trace_to_json_text(trace))
    elif fmt == "csv":
        atomic_write_text(path, trace_to_csv_text(trace))
    elif fmt == "svg":
        from .svg import render_traces

        atomic_write_text(path, render_traces([trace]))
    else:
        raise FormatError(f"unknown trace format {fmt!r}")


# ------------------------------------------------------------- claims/params

def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(value: object, length: int | None, what: str) -> list[int]:
    """A JSON list of integers, of ``length`` entries if given."""
    if (
        not isinstance(value, list)
        or (length is not None and len(value) != length)
        or not all(map(_is_int, value))
    ):
        size = "a list" if length is None else f"a {length}-element list"
        raise FormatError(f"{what} must be {size} of integers")
    return value


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"{what} must be a JSON object")
    return value


def parse_claims(text: str, sketch: EvaluationSketch) -> SummaryClaims:
    """Claims file: optional marginal totals and an optional full point.

    The sketch supplies the roster so pair keys can be index pairs; a
    pair named twice, in either order, is an error.  Every claimed count
    must be a JSON integer.
    """
    obj = _load_json(text)
    _require_keys(obj, (), ("marginals", "point"), "claims file")
    marginals: dict[str, Marginals] = {}
    for cid, entry in _object(obj.get("marginals", {}), "'marginals'").items():
        marginals[cid] = Marginals(*_int_list(entry, 2, f"marginals for {cid!r}"))
    point = None
    if "point" in obj:
        raw = obj["point"]
        _require_keys(
            raw, ("q_a", "correct_a", "correct_b"), ("pair_correct",), "claimed point"
        )
        if not _is_int(raw["q_a"]):
            raise FormatError("claimed q_a must be an integer")
        pair_correct = None
        if "pair_correct" in raw:
            pair_correct = {}
            for key, entry in _object(raw["pair_correct"], "'pair_correct'").items():
                ids = key.split(",")
                if len(ids) != 2:
                    raise FormatError(
                        f"pair key {key!r} must be 'first,second' classifier ids"
                    )
                joint = _int_list(entry, 2, f"pair claim {key!r}")
                i, j = sorted(sketch.index_of(cid.strip()) for cid in ids)
                # joint correctness is symmetric, so order only normalizes the
                # key, and a pair named in both orders is one pair named twice
                if (i, j) in pair_correct:
                    raise FormatError(f"pair claim {key!r} names a pair already claimed")
                pair_correct[(i, j)] = (joint[0], joint[1])
        try:
            point = EvaluationPoint(
                raw["q_a"],
                tuple(_int_list(raw["correct_a"], None, "claimed correct_a")),
                tuple(_int_list(raw["correct_b"], None, "claimed correct_b")),
                pair_correct,
            )
        except SketchError as exc:
            raise FormatError(str(exc)) from None
    return SummaryClaims(marginals, point)


def parse_params(text: str) -> tuple[tuple[str, ...] | None, IndependentParams]:
    """Parameter file for generation: prevalence plus per-label accuracies.

    Returns optional classifier ids (None when the file does not name
    them) and the parameter point.  Rationals are "n/d" strings.
    """
    obj = _load_json(text)
    _require_keys(
        obj, ("p_a", "accuracy_a", "accuracy_b"), ("classifiers",), "params file"
    )
    for key in ("accuracy_a", "accuracy_b", "classifiers"):
        if key in obj and not isinstance(obj[key], list):
            raise FormatError(f"params file: {key} must be a list")
    ids = None
    if "classifiers" in obj:
        ids = tuple(obj["classifiers"])
        if not all(isinstance(cid, str) and cid for cid in ids):
            raise FormatError("params file: classifier ids must be non-empty strings")
    # Fraction(True) == 1, so a JSON boolean would pass as a rational
    if any(
        isinstance(x, bool) for x in (obj["p_a"], *obj["accuracy_a"], *obj["accuracy_b"])
    ):
        raise FormatError("params file: rationals must be numbers or \"n/d\" strings")
    try:
        params = IndependentParams(
            Fraction(obj["p_a"]),
            tuple(Fraction(x) for x in obj["accuracy_a"]),
            tuple(Fraction(x) for x in obj["accuracy_b"]),
        )
    # JSON's Infinity is a float Fraction() cannot take: OverflowError
    except (SketchError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise FormatError(f"bad parameters: {exc}") from None
    if ids is not None and len(ids) != params.size:
        raise FormatError(
            f"{len(ids)} classifier ids for {params.size} parameter entries"
        )
    return ids, params


# ---------------------------------------------------------------- ingestion

@dataclass(frozen=True)
class DecisionRecord:
    item_id: str
    responses: dict[str, str]
    truth: str | None = None


@dataclass(frozen=True)
class IngestResult:
    """Kept records (sorted by item id) plus what was dropped and why."""

    records: tuple[DecisionRecord, ...]
    dropped: tuple[tuple[str, str], ...]

    @property
    def roster(self) -> tuple[str, ...]:
        return tuple(self.records[0].responses) if self.records else ()


def _map_label(
    raw: str, label_map: Mapping[str, str] | None, where: str
) -> str:
    if label_map is None:
        if raw in LABELS:
            return raw
        raise IngestError(
            f"{where}: label {raw!r} is not canonical and no label map was given"
        )
    if not isinstance(raw, str) or raw not in label_map:
        raise IngestError(f"{where}: label {raw!r} is not in the label map")
    mapped = label_map[raw]
    if mapped not in LABELS:
        raise IngestError(
            f"label map sends {raw!r} to {mapped!r}, which is not canonical"
        )
    return mapped


def _finish(
    rows: list[tuple[str, dict[str, str], str | None]],
    dropped: list[tuple[str, str]],
    any_truth: bool,
) -> IngestResult:
    records = []
    for item_id, responses, truth in rows:
        if any_truth and truth is None:
            dropped.append((item_id, "missing truth label"))
            continue
        records.append(DecisionRecord(item_id, responses, truth))
    seen: dict[str, int] = {}
    for rec in records:
        seen[rec.item_id] = seen.get(rec.item_id, 0) + 1
    dupes = sorted(item for item, n in seen.items() if n > 1)
    if dupes:
        raise IngestError(f"duplicate item id(s): {', '.join(dupes)}")
    records.sort(key=lambda rec: rec.item_id)
    return IngestResult(tuple(records), tuple(dropped))


def _ingest_csv(text: str, label_map: Mapping[str, str] | None) -> IngestResult:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty file: a header row is mandatory") from None
    if not header or header[0] != "item_id":
        raise IngestError("first header column must be 'item_id'")
    has_truth = bool(header) and header[-1] == "truth"
    roster = tuple(header[1:-1] if has_truth else header[1:])
    if not roster:
        raise IngestError("header names no classifier columns")
    if len(set(roster)) != len(roster):
        raise IngestError("duplicate classifier columns in header")
    rows: list[tuple[str, dict[str, str], str | None]] = []
    dropped: list[tuple[str, str]] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise IngestError(
                f"row {line_no}: expected {len(header)} columns, found {len(row)}"
            )
        item_id = row[0]
        if not item_id:
            raise IngestError(f"row {line_no}: empty item_id")
        where = f"row {line_no}"
        responses: dict[str, str] = {}
        empty = None
        for cid, raw in zip(roster, row[1 : 1 + len(roster)]):
            if raw == "":
                empty = f"empty response for classifier {cid}"
                break
            responses[cid] = _map_label(raw, label_map, where)
        if empty:
            dropped.append((item_id, empty))
            continue
        truth: str | None = None
        if has_truth:
            raw = row[-1]
            if raw == "":
                dropped.append((item_id, "missing truth label"))
                continue
            truth = _map_label(raw, label_map, where)
        rows.append((item_id, responses, truth))
    return _finish(rows, dropped, has_truth)


def _ingest_jsonl(text: str, label_map: Mapping[str, str] | None) -> IngestResult:
    rows: list[tuple[str, dict[str, str], str | None]] = []
    dropped: list[tuple[str, str]] = []
    roster: tuple[str, ...] | None = None
    any_truth = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"line {line_no}"
        obj = _load_json(line, where)
        try:
            _require_keys(obj, ("item_id", "responses"), ("truth",), where)
        except FormatError as exc:
            raise IngestError(str(exc)) from None
        item_id = obj["item_id"]
        if not isinstance(item_id, str) or not item_id:
            raise IngestError(f"{where}: item_id must be a non-empty string")
        raw_responses = obj["responses"]
        if not isinstance(raw_responses, dict):
            raise IngestError(f"{where}: responses must be an object")
        if roster is None:
            roster = tuple(raw_responses)
            if not roster:
                raise IngestError(f"{where}: first record names no classifiers")
        if set(raw_responses) != set(roster):
            raise IngestError(
                f"{where}: responses name classifiers "
                f"{sorted(raw_responses)} but the roster is {sorted(roster)}"
            )
        responses: dict[str, str] = {}
        empty = None
        for cid in roster:
            raw = raw_responses[cid]
            if raw is None or raw == "":
                empty = f"empty response for classifier {cid}"
                break
            responses[cid] = _map_label(raw, label_map, where)
        if empty:
            dropped.append((item_id, empty))
            continue
        truth: str | None = None
        if "truth" in obj and obj["truth"] not in (None, ""):
            truth = _map_label(obj["truth"], label_map, where)
            any_truth = True
        rows.append((item_id, responses, truth))
    if roster is None:
        raise IngestError("no records found")
    return _finish(rows, dropped, any_truth)


def ingest(
    path: str, fmt: str, label_map: Mapping[str, str] | None = None
) -> IngestResult:
    """Read a decision table from csv or jsonl.

    The roster comes from the file itself (csv header order, or the
    first jsonl record's key order).  Items with an empty response or a
    missing truth label (when the file carries truth at all) are dropped
    and reported; structural problems and unmapped labels are errors.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if fmt == "csv":
        return _ingest_csv(text, label_map)
    if fmt == "jsonl":
        return _ingest_jsonl(text, label_map)
    raise IngestError(f"unknown ingest format {fmt!r}")


def records_to_decisions(
    result: IngestResult,
) -> tuple[dict[str, dict[str, str]], dict[str, str] | None]:
    """Split an ingest result into the shapes the sketch builder wants."""
    decisions = {rec.item_id: dict(rec.responses) for rec in result.records}
    truths = {
        rec.item_id: rec.truth for rec in result.records if rec.truth is not None
    }
    if not truths:
        return decisions, None
    return decisions, truths


def decisions_to_csv_text(
    decisions: Mapping[str, Mapping[str, str]],
    classifiers: Sequence[str],
    truth: Mapping[str, str] | None = None,
) -> str:
    """Decision table in the csv ingest format, rows sorted by item id."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["item_id", *classifiers]
    if truth is not None:
        header.append("truth")
    writer.writerow(header)
    for item_id in sorted(decisions):
        row = [item_id, *(decisions[item_id][cid] for cid in classifiers)]
        if truth is not None:
            row.append(truth[item_id])
        writer.writerow(row)
    return buffer.getvalue()
