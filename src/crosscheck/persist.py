"""File formats: sketches and traces, and the JSON reading that every
file reader shares.

Sketch and trace files are JSON with a canonical layout (fixed key
order, two-space indent, rationals as "n/d" strings, trailing newline),
so loading a tool-written file and saving it again is byte-identical.
A trace holds O(q·N) intervals; its JSON and CSV texts are each one
join over the trace's columns and the layout's fixed pieces, with no
Python step per slice, and ``parse_trace`` reads only the bytes a run
writes: it rebuilds the trace and requires that it writes the same text.
All writes go through a temp-file-and-rename so readers never observe a
half-written file.

Only the sketch half runs in every command, so ``parse_trace`` imports
the trace type when it is called.  The other readers sit beside the type
each builds, and read their JSON through :func:`_load_json` and
:func:`_require_keys`: decision tables in :mod:`crosscheck.tables`,
claims files in :mod:`crosscheck.oracle` and parameter files in
:mod:`crosscheck.independent`.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .model import (
    EvaluationSketch,
    Marginals,
    OverallSpec,
    PerLabelSpec,
    SafetySpec,
    SketchError,
)

if TYPE_CHECKING:
    from .alarm import AlarmTrace


class FormatError(ValueError):
    """A file's content does not match its format."""


class IngestError(ValueError):
    """A decision-table file is malformed or contains unmapped labels."""


# characters atomic_write_text encodes and writes at a time
_WRITE_SLICE = 1 << 16


def atomic_write_text(path: str, text: str) -> None:
    """Write through a temp file in the same directory and a rename; an
    OSError names ``path``, not the temp file."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}~")
    made = False
    try:
        # mode 0o666 under the umask, as for any ordinary new file
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        made = True
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            # in slices, so the encoded bytes of a large trace are never
            # held beside its text
            for start in range(0, len(text), _WRITE_SLICE):
                try:
                    handle.write(text[start : start + _WRITE_SLICE])
                except UnicodeEncodeError as exc:
                    # place the bad character in the whole text, as before
                    raise UnicodeEncodeError(
                        exc.encoding, text, start + exc.start, start + exc.end, exc.reason
                    ) from None
        os.replace(tmp, path)
    except BaseException as exc:
        if made:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


class _DuplicateKeyError(ValueError):
    """A JSON object names one key twice."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _DuplicateKeyError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


# json.loads keeps the last of two equal keys; every file is read through
# this decoder, which rejects them
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _load_json(text: str, where: str | None = None) -> object:
    """Parse JSON; malformed or too deeply nested input, or an object
    with a repeated key, raises FormatError, or, for the jsonl record at
    ``where``, IngestError."""
    try:
        if text.startswith("\ufeff"):
            # the message json.loads gives
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
            )
        return _DECODER.decode(text)
    except _DuplicateKeyError as exc:
        if where is None:
            raise FormatError(str(exc)) from None
        raise IngestError(f"{where}: {exc}") from None
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
    split = obj.get("truth_split")
    if split is None and "truth_split" in obj:
        raise FormatError("'truth_split' must be an object")
    try:
        return EvaluationSketch(obj["classifiers"], obj["q"], obj["counts"], split)
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


def _spec_from_obj(obj: Mapping) -> SafetySpec:
    """The spec a trace header names, by its kind; the spec refuses bad
    thresholds, and ``parse_trace``'s comparison any other text."""
    if obj["kind"] == "per-label":
        return PerLabelSpec(obj["threshold_a"], obj["threshold_b"], obj["strict"])
    if obj["kind"] == "overall":
        return OverallSpec(obj["threshold"], obj["strict"])
    raise FormatError(f"unknown spec kind {obj['kind']!r}")


def trace_to_json_text(trace: AlarmTrace) -> str:
    """The trace in its canonical layout, the bytes ``json.dumps(obj,
    indent=2) + "\\n"`` would give for the obvious object.

    ``json.dumps`` writes only the small header (so string escaping stays
    its own).  The O(q·N) slices follow the fixed schema: q + 1 copies of
    one slice's layout take each spelled column of :meth:`AlarmTrace.columns`
    into its stride of slots, and one join writes them: no call per value.
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
    # one slice's layout, cut where its values go; ``refined`` is the same
    # in every slice, so it is part of the layout
    ends = "        [\n          \0,\n          \0\n        ]"
    intervals = "[\n" + ",\n".join([ends] * len(trace.classifiers)) + "\n      ]"
    first, *pieces, last = (
        '    {\n      "q_a": \0,\n'
        f'      "intervals_a": {intervals},\n'
        f'      "intervals_b": {intervals},\n'
        '      "safe_exists": \0,\n'
        f'      "refined": {"true" if trace.refined else "false"}\n    }}'
    ).split("\0")
    *spelled, safe = trace.columns()
    # a slot a value, each followed by the layout's text up to the next
    # value: after a slice's last value, its close and the next slice's open
    row = [part for text in [*pieces, f"{last},\n{first}"] for part in (None, text)]
    flat = row * (trace.q + 1)
    for k, column in enumerate([*spelled, map(("false", "true").__getitem__, safe)]):
        flat[2 * k :: len(row)] = column
    # the header ends in '"slices": []\n}'; the first slot holds q_a = 0
    flat[0], flat[-1] = f"{header[:-4]}[\n{first}0", f"{last}\n  ]\n}}\n"
    return "".join(flat)


def parse_trace(text: str) -> AlarmTrace:
    """Read a trace file as a run writes it: build the trace from the
    header, the totals in slice 0 (where label b's interval is [r_b, r_b]),
    its ``refined`` flag and every slice's safe flag, then require that
    the trace writes ``text`` back byte for byte.  :class:`AlarmTrace`
    refuses columns that no run gives; the comparison refuses every other
    field, type, value, key order or layout, any slice that is not the one
    its hypothesis gives, and a verdict that is not the safe flags'."""
    from .alarm import AlarmTrace

    obj = _load_json(text)
    try:
        q, slices = obj["q"], obj["slices"]
        # no slice: the trace refuses the count before it reads a total
        first = slices[0] if slices else {"intervals_b": (), "refined": False}
        trace = AlarmTrace(
            q,
            _spec_from_obj(obj["spec"]),
            obj["mode"],
            tuple(obj["classifiers"]),
            tuple(Marginals(q - r_b, r_b) for r_b, _ in first["intervals_b"]),
            tuple(piece["safe_exists"] for piece in slices),
            first["refined"],
        )
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise FormatError(f"not a trace a run writes: {exc}") from None
    # the parsed file goes before the trace is written out again, so that
    # it and the written text are never both held
    del obj, slices, first
    if trace_to_json_text(trace) != text:
        raise FormatError("the trace is not the text a run writes for its header and slice 0")
    return trace


def _csv_lines(rows: Iterable[Sequence[object]]) -> list[str]:
    """Each row as one csv line with no line end.  The writer's "\r\n" end
    makes it quote every cell that holds "\r" or "\n", so the lines joined
    by "\n" read back as these rows with ``newline=""``."""
    import csv

    lines: list[str] = []
    # a writer calls its file's write once per row
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return [line[:-2] for line in lines]


def trace_to_csv_text(trace: AlarmTrace) -> str:
    names = [f"{cid}_{x}" for cid in trace.classifiers for x in ("lo_a", "hi_a", "lo_b", "hi_b")]
    # the ids are the only cells that need quoting: the body is ints alone
    (header,) = _csv_lines([["q_a", *names, "safe_exists"]])
    q_a, *ends, safe = trace.columns()
    # each classifier's lo_a, hi_a, lo_b, hi_b out of the label-major ends
    n = 2 * len(trace.classifiers)
    ends = [ends[i] for k in range(0, n, 2) for i in (k, k + 1, k + n, k + n + 1)]
    lines = [header, *map(",".join, zip(q_a, *ends, map("01".__getitem__, safe))), ""]
    # the spelled 0..q go before the join, so that it holds only the lines
    del q_a, ends
    return "\n".join(lines)


def emit_trace(trace: AlarmTrace, fmt: str, path: str) -> None:
    """Write one trace as csv, json, or svg."""
    if fmt == "json":
        atomic_write_text(path, trace_to_json_text(trace))
    elif fmt == "csv":
        atomic_write_text(path, trace_to_csv_text(trace))
    elif fmt == "svg":
        from .svg import render_traces

        atomic_write_text(path, render_traces([trace]))
    else:
        raise FormatError(f"unknown trace format {fmt!r}")
