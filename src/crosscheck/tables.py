"""Decision tables: csv and jsonl ingest, the sketch built from them,
and the csv that ``generate`` writes.

A decision table has one row per item: its id, each classifier's label
and, optionally, the true label.  :func:`ingest` reads one into sorted
records, dropping (and reporting) items with an empty answer or, when
the file carries truth at all, a missing truth; anything else malformed
is an error.  :func:`records_to_decisions` and
:func:`sketch_from_decisions` turn the records into a sketch.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from itertools import repeat
from operator import itemgetter
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

from .model import LABEL_A, LABELS, EvaluationSketch, SketchError, _roster
from .persist import FormatError, IngestError, _csv_lines, _load_json, _require_keys


class DecisionRecord(NamedTuple):
    """One kept item.  ``responses`` maps classifier id to canonical label
    in roster order.  It is read-only, and records that give the same
    answers share one mapping.  A named tuple, so that building one per
    item costs no attribute assignment."""

    item_id: str
    responses: Mapping[str, str]
    truth: str | None = None


class IngestResult(NamedTuple):
    """Kept records (sorted by item id) plus what was dropped and why."""

    records: tuple[DecisionRecord, ...]
    dropped: tuple[tuple[str, str], ...]

    @property
    def roster(self) -> tuple[str, ...]:
        return tuple(self.records[0].responses) if self.records else ()


def _unmapped(raw: object, label_map: Mapping[str, str] | None, where: str) -> IngestError:
    """Why a raw value outside the row loop's label table maps to no label."""
    if label_map is None:
        return IngestError(
            f"{where}: label {raw!r} is not canonical and no label map was given"
        )
    if isinstance(raw, str) and raw in label_map:
        return IngestError(
            f"label map sends {raw!r} to {label_map[raw]!r}, which is not canonical"
        )
    return IngestError(f"{where}: label {raw!r} is not in the label map")


# A row source yields (line number, item id, raw responses in roster
# order, raw truth) in line order.  ``roster`` is set once the first row
# is read; ``unit`` names a line in messages; ``drop_missing_truth`` says
# whether a row without truth is dropped on its line (csv, whose truth
# column is all or nothing) or kept until every row is read and dropped
# only if some other row has a truth (jsonl).
_Row = tuple[int, str, tuple, object]


class _CsvRows:
    """The rows of a csv table; the header is read and checked first.  A
    row ends at "\n", "\r\n" or a lone "\r", which a quoted cell keeps; a
    row the csv module cannot read (a cell past its size limit) is an error."""

    unit = "row"

    def __init__(self, text: str) -> None:
        self._reader = csv.reader(io.StringIO(text, newline=""))
        try:
            header = next(self._reader)
        except StopIteration:
            raise IngestError("empty file: a header row is mandatory") from None
        except csv.Error as exc:
            raise IngestError(f"row 1: {exc}") from None
        if not header or header[0] != "item_id":
            raise IngestError("first header column must be 'item_id'")
        self.drop_missing_truth = header[-1] == "truth"
        self.roster = tuple(header[1:-1] if self.drop_missing_truth else header[1:])
        if not self.roster:
            raise IngestError("header names no classifier columns")
        if len(set(self.roster)) != len(self.roster):
            raise IngestError("duplicate classifier columns in header")
        self._width = len(header)

    def __iter__(self) -> Iterator[_Row]:
        width = self._width
        end = 1 + len(self.roster)
        has_truth = self.drop_missing_truth
        line_no = 1
        try:
            for line_no, row in enumerate(self._reader, start=2):
                if not row:
                    continue
                if len(row) != width:
                    raise IngestError(
                        f"row {line_no}: expected {width} columns, found {len(row)}"
                    )
                item_id = row[0]
                if not item_id:
                    raise IngestError(f"row {line_no}: empty item_id")
                yield line_no, item_id, tuple(row[1:end]), row[-1] if has_truth else None
        except csv.Error as exc:  # raised by the reader, so for the row after line_no
            raise IngestError(f"row {line_no + 1}: {exc}") from None


_scan = json.JSONDecoder().scan_once
# a line's opening `{"item_id": "S"`, where S decodes to itself, and the
# rest R of the line, which holds no "\n"
_HEAD = r'\{[ \t]*"item_id"[ \t]*:[ \t]*"([^"\\\x00-\x1f]+)"(.*)'


class _JsonlRows:
    """The rows of a jsonl table, one record a line; the first record's
    responses fix the roster.

    The plain C decoder reads each line, keeping the last of two equal
    keys.  It is trusted with a line that holds one record with keys
    ``item_id``, ``responses`` and maybe ``truth``, a non-empty string id
    and responses keyed in roster order, and whose ':', less those of the
    decoded id and roster ids, number len(record) + len(responses); none
    are taken off when the line spells ``\\u003a`` or ``\\u003A``, the
    escapes that decode to ':'.  Outside strings a ':' only ends a key,
    and without those escapes a string spells each ':' it decodes to, so
    the count left is the pairs of the record and of its responses (each
    at least its len, equal when no key repeats) and of any other object,
    plus the ':' of the other strings: equality leaves no key repeated and
    every other object empty.  Any other line is read again by the hooked
    decoder and checked key by key, which words its error.

    A line that opens with ``{"item_id": "S"``, blanks or tabs around the
    key and its ':', where the id S is not empty and holds no '"', no '\\'
    and no control character, is decoded once per distinct remainder R,
    the text after S.  When a line with R gives a record, by either
    decoder, and its decoded id is S, every later line with R yields that
    line's values and truth under its own S, undecoded.  After a member's
    string value JSON's grammar does not read the string's content, and
    such an S is a valid string that decodes to itself, so a line with R
    is well formed exactly when any other line with R is, and decodes to
    the same record but for the id.  Its ':' are the other line's, less
    the other id's and plus S's, and S holds no '\\', so no escape starts
    in S.  Both lines have the same keys, ``item_id`` and then R's, so the
    certificate's finding, or the hooked decoder's, that no key repeats
    holds for the later line too.  A remainder that restates ``item_id``
    repeats a key, which both decoders refuse; the decoded id must be S
    besides, so such a remainder is never remembered.
    """

    unit = "line"
    drop_missing_truth = False

    def __init__(self, lines: list[str]) -> None:
        self._lines = lines
        self.roster: tuple[str, ...] = ()

    def __iter__(self) -> Iterator[_Row]:
        roster = None
        colons = 0  # the ':' of the roster ids
        head = re.compile(_HEAD).match  # compiled on first use: csv never pays
        seen: dict[str, tuple[tuple, object]] = {}  # R -> (values, truth)
        for line_no, line in enumerate(self._lines, start=1):
            opening = head(line)
            if opening is not None:
                rest = opening[2]
                record = seen.get(rest)
                if record is not None:
                    values, truth = record
                    yield line_no, opening[1], values, truth
                    continue
            try:
                obj, end = _scan(line, 0)
                item_id, responses = obj["item_id"], obj["responses"]
                if roster is None and type(responses) is dict and responses:
                    roster = self.roster = tuple(responses)
                    colons = sum(cid.count(":") for cid in roster)
                extra = line.count(":") - len(obj) - len(responses)
                plain = (
                    end == len(line) and len(obj) - ("truth" in obj) == 2
                    and type(item_id) is str and item_id != ""
                    and type(responses) is dict and tuple(responses) == roster
                    and (not extra or extra == colons + item_id.count(":")
                         and "\\u003a" not in line and "\\u003A" not in line)
                )
            except (ValueError, RecursionError, StopIteration, KeyError, TypeError):
                plain = False
            if not plain:
                if not line or line.isspace():
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
                responses = obj["responses"]
                if not isinstance(responses, dict):
                    raise IngestError(f"{where}: responses must be an object")
                if roster is None:
                    roster = self.roster = tuple(responses)
                    if not roster:
                        raise IngestError(f"{where}: first record names no classifiers")
                    colons = sum(cid.count(":") for cid in roster)
                if tuple(responses) != roster:
                    if responses.keys() != set(roster):
                        raise IngestError(
                            f"{where}: responses name classifiers "
                            f"{sorted(responses)} but the roster is {sorted(roster)}"
                        )
                    responses = {cid: responses[cid] for cid in roster}
            values, truth = tuple(responses.values()), obj.get("truth")
            if opening is not None and item_id == opening[1]:
                seen[rest] = values, truth
            yield line_no, item_id, values, truth
        if roster is None:
            raise IngestError("no records found")


def _read_rows(
    rows: _CsvRows | _JsonlRows, label_map: Mapping[str, str] | None
) -> IngestResult:
    """The one row loop of both formats.

    A row's raw responses are mapped once per distinct tuple of them, in
    one C-level pass unless a cell is unmapped or empty: every later row
    with the same tuple reuses the shared mapping, or the reason such a
    row is dropped.
    """
    # raw value -> canonical label, or None for an empty cell (an empty
    # string, a JSON null, or no truth at all); :func:`_unmapped` words
    # the error for a raw value outside it
    if label_map is None:
        table: dict = {label: label for label in LABELS}
    else:
        table = {
            raw: label
            for raw, label in label_map.items()
            if isinstance(raw, str) and label in LABELS
        }
    table[""] = table[None] = None
    seen: dict[tuple, Mapping[str, str] | str] = {}
    shared: dict[tuple, Mapping[str, str]] = {}

    def responses_of(values: tuple, line_no: int) -> Mapping[str, str] | str:
        """The shared responses mapping of a row, or why it is dropped."""
        try:
            key = tuple(map(table.__getitem__, values))
        except (KeyError, TypeError):
            key = (None,)
        if None in key:  # the first unmapped or empty cell, in roster order
            for cid, raw in zip(rows.roster, values):
                try:
                    label = table[raw]
                except (KeyError, TypeError):
                    raise _unmapped(raw, label_map, f"{rows.unit} {line_no}")
                if label is None:
                    return f"empty response for classifier {cid}"
        if key not in shared:
            shared[key] = MappingProxyType(dict(zip(rows.roster, key)))
        return shared[key]

    kept: list[tuple[str, Mapping[str, str], str | None]] = []
    dropped: list[tuple[str, str]] = []
    any_truth = any_missing = False
    for line_no, item_id, values, raw_truth in rows:
        try:
            responses = seen[values]
        except KeyError:
            responses = seen[values] = responses_of(values, line_no)
        except TypeError:  # an unhashable JSON value
            responses = responses_of(values, line_no)
        if type(responses) is str:
            dropped.append((item_id, responses))
            continue
        try:
            truth = table[raw_truth]
        except (KeyError, TypeError):
            raise _unmapped(raw_truth, label_map, f"{rows.unit} {line_no}")
        if truth is not None:
            any_truth = True
        elif rows.drop_missing_truth:
            dropped.append((item_id, "missing truth label"))
            continue
        else:
            any_missing = True
        kept.append((item_id, responses, truth))
    if any_truth and any_missing:
        dropped += [(row[0], "missing truth label") for row in kept if row[2] is None]
        kept = [row for row in kept if row[2] is not None]
    if len({row[0] for row in kept}) < len(kept):
        counts = Counter(row[0] for row in kept)
        dupes = sorted(item for item, n in counts.items() if n > 1)
        raise IngestError(f"duplicate item id(s): {', '.join(dupes)}")
    kept.sort(key=itemgetter(0))
    records = map(tuple.__new__, repeat(DecisionRecord), kept)
    return IngestResult(tuple(records), tuple(dropped))


def ingest(
    path: str, fmt: str, label_map: Mapping[str, str] | None = None
) -> IngestResult:
    """Read a decision table from csv or jsonl (UTF-8, with or without a
    byte order mark).

    The roster comes from the file itself (csv header order, or the
    first jsonl record's key order).  Items with an empty response or a
    missing truth label (when the file carries truth at all) are dropped
    and reported.  Structural problems, unmapped labels and repeated JSON
    keys are errors, reported for the first bad line; an item id that two
    kept items share is an error once every line is read.  The plain C
    decoder reads each jsonl line, and a count of its ':' certifies a
    well-formed record (see :class:`_JsonlRows`); a line it does not
    certify is decoded again with the duplicate-key hook and checked key
    by key.  A line that opens with a plain ``"item_id"`` is decoded once
    per distinct text after its id: a later line with that text takes
    that line's record under its own id.  A row's labels are looked up in
    a table built from ``label_map`` once per distinct tuple of raw
    answers, and records that give the same answers share one read-only
    responses mapping.
    """
    with open(path, encoding="utf-8-sig", newline="" if fmt == "csv" else None) as handle:
        # the file's text is not kept beside its lines; csv keeps its line
        # ends for the reader, and jsonl records end at "\n" only (universal
        # newlines turn "\r\n" and "\r" into it), since JSON strings may
        # hold U+2028, U+2029 and U+0085 raw
        if fmt == "csv":
            rows: _CsvRows | _JsonlRows = _CsvRows(handle.read())
        elif fmt == "jsonl":
            rows = _JsonlRows(handle.read().split("\n"))
        else:
            raise IngestError(f"unknown ingest format {fmt!r}")
    return _read_rows(rows, label_map)


def records_to_decisions(
    result: IngestResult,
) -> tuple[dict[str, Mapping[str, str]], dict[str, str] | None]:
    """Split an ingest result into the shapes the sketch builder wants.

    The decisions map each item id to its record's shared read-only
    responses mapping; nothing is copied."""
    decisions = {rec.item_id: rec.responses for rec in result.records}
    truths = {
        rec.item_id: rec.truth for rec in result.records if rec.truth is not None
    }
    if not truths:
        return decisions, None
    return decisions, truths


def sketch_from_decisions(
    decisions: Mapping[str, Mapping[str, str]],
    classifiers: Sequence[str],
    truth: Mapping[str, str] | None = None,
) -> EvaluationSketch:
    """Aggregate per-item decisions into a sketch.

    ``decisions`` maps item id to {classifier id: canonical label}; every
    item must carry a response from every classifier in ``classifiers``.
    When ``truth`` is given it must cover every item, and the resulting
    sketch carries a truth split.

    Items are tallied by their response mapping object (and truth label)
    first, and only the distinct mappings are checked, so items that
    share one mapping, as :func:`records_to_decisions` gives them, cost a
    count each.  On a bad item the error names the first one.
    """
    ids = _roster(classifiers)
    if not decisions:
        raise SketchError("no items to sketch")
    rows = decisions.values()
    try:
        if truth is None:
            tally = Counter(map(id, rows))
        else:
            tally = Counter(zip(map(id, rows), map(truth.__getitem__, decisions)))
        by_id = dict(zip(map(id, rows), rows))
        counts: dict[str, int] = {}
        split: dict[str, list[int]] | None = None if truth is None else {}
        for key, n in tally.items():
            row = by_id[key if split is None else key[0]]
            labels = [row[cid] for cid in ids]
            if not all(label in LABELS for label in labels):
                raise SketchError
            pattern = "".join(labels)
            counts[pattern] = counts.get(pattern, 0) + n
            if split is not None:
                if key[1] not in LABELS:
                    raise SketchError
                split.setdefault(pattern, [0, 0])[0 if key[1] == LABEL_A else 1] += n
    except (KeyError, TypeError, SketchError):
        # a missing response or truth, or a label that is not canonical:
        # the per-item checks find the first item it belongs to
        _raise_first_bad_item(decisions, ids, truth)
        raise
    return EvaluationSketch(
        ids,
        len(decisions),
        counts,
        None if split is None else {p: (a, b) for p, (a, b) in split.items()},
    )


def _raise_first_bad_item(
    decisions: Mapping[str, Mapping[str, str]],
    ids: tuple[str, ...],
    truth: Mapping[str, str] | None,
) -> None:
    """Raise the SketchError for the first item that cannot be sketched."""
    for item, row in decisions.items():
        for cid in ids:
            if cid not in row:
                raise SketchError(f"item {item!r} has no response from classifier {cid!r}")
            label = row[cid]
            if label not in LABELS:
                raise SketchError(
                    f"item {item!r}, classifier {cid!r}: label {label!r} is not canonical"
                )
        if truth is not None:
            if item not in truth:
                raise SketchError(f"truth label missing for item {item!r}")
            if truth[item] not in LABELS:
                raise SketchError(
                    f"item {item!r}: truth label {truth[item]!r} is not canonical"
                )


def decisions_to_csv_text(
    decisions: Mapping[str, Mapping[str, str]],
    classifiers: Sequence[str],
    truth: Mapping[str, str] | None = None,
) -> str:
    """Decision table in the csv ingest format, rows sorted by item id; an
    id that holds "\r" or "\n" is quoted, so :func:`ingest` reads it back."""
    header = ["item_id", *classifiers]
    if truth is not None:
        header.append("truth")
    rows = [header]
    for item_id in sorted(decisions):
        row = [item_id, *(decisions[item_id][cid] for cid in classifiers)]
        if truth is not None:
            row.append(truth[item_id])
        rows.append(row)
    return "\n".join([*_csv_lines(rows), ""])
