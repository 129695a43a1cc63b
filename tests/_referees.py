"""Independent referees the tests compare the library against.

Each one recomputes a quantity straight from its definition, with no
code shared with the path it checks.
"""

import csv
import io
import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from crosscheck import (
    DEFAULT_SPLIT_BUDGET,
    FLIP_MODES,
    LABEL_A,
    LABELS,
    DecisionRecord,
    EvaluationPoint,
    EvaluationSketch,
    IngestError,
    IngestResult,
    IntInterval,
    Marginals,
    PerLabelSpec,
    SafetySpec,
    SketchError,
    flip_position,
    marginalize,
    min_count_above,
    pair_counts,
    rational_sqrt,
    validate_sketch,
)


def referee_sketch_entries(size: int, counts, truth_split):
    """The counts and truth split :class:`EvaluationSketch` keeps, by one
    check call per entry (the first bad entry raises its SketchError)."""

    def check_pattern(pattern):
        if (
            not isinstance(pattern, str)
            or len(pattern) != size
            or any(c not in LABELS for c in pattern)
        ):
            raise SketchError(
                f"bad pattern key {pattern!r}: want length {size} over alphabet 'ab'"
            )

    def is_int(value):
        return type(value) is int

    kept = {}
    for pattern in sorted(counts, key=str):
        check_pattern(pattern)
        value = counts[pattern]
        if not is_int(value):
            raise SketchError(f"count for pattern {pattern!r} must be an integer")
        if value != 0:
            kept[pattern] = value
    split = None
    if truth_split is not None:
        split = {}
        for pattern in sorted(truth_split, key=str):
            check_pattern(pattern)
            entry = truth_split[pattern]
            if not (
                isinstance(entry, (list, tuple)) and len(entry) == 2 and all(map(is_int, entry))
            ):
                raise SketchError(
                    f"truth split for pattern {pattern!r} must be a pair of integers"
                )
            if entry[0] or entry[1]:
                split[pattern] = (entry[0], entry[1])
    return kept, split


def referee_validate_sketch(sketch: EvaluationSketch) -> list[str]:
    """Numeric consistency violations, empty when the sketch is sound,
    worded in pattern order by one sorted walk over every pattern."""
    problems: list[str] = []
    for pattern in sorted(sketch.counts):
        if sketch.counts[pattern] < 0:
            problems.append(f"negative count for pattern {pattern}")
    total = sum(sketch.counts.values())
    if total != sketch.q:
        problems.append(f"pattern counts do not sum to Q (got {total}, expected {sketch.q})")
    if sketch.truth_split is not None:
        patterns = sorted(set(sketch.counts) | set(sketch.truth_split))
        for pattern in patterns:
            n_a, n_b = sketch.truth_split.get(pattern, (0, 0))
            if n_a < 0 or n_b < 0:
                problems.append(f"negative truth split for pattern {pattern}")
            expected = sketch.counts.get(pattern, 0)
            if n_a + n_b != expected:
                problems.append(
                    f"truth split mismatch for pattern {pattern} "
                    f"({n_a}+{n_b} != {expected})"
                )
    return problems


def referee_flip_labels(sketch: EvaluationSketch, classifier: str, mode) -> EvaluationSketch:
    """Relabel one classifier's responses, every truth-conditioned mode
    by moving each part of every pattern in counts or split on its own."""
    if mode not in FLIP_MODES:
        raise SketchError(f"unknown flip mode {mode!r}; expected one of {FLIP_MODES}")
    idx = sketch.index_of(classifier)
    if mode == "global":
        counts = {flip_position(p, idx): n for p, n in sketch.counts.items()}
        split = None
        if sketch.truth_split is not None:
            split = {flip_position(p, idx): v for p, v in sketch.truth_split.items()}
        return EvaluationSketch(sketch.classifiers, sketch.q, counts, split)
    if sketch.truth_split is None:
        raise SketchError(f"flip mode {mode!r} needs a truth split")
    mismatch = [p for p in referee_validate_sketch(sketch) if "truth split" in p]
    if mismatch:
        raise SketchError(
            "cannot apply a truth-conditioned flip to an inconsistent sketch: "
            + "; ".join(mismatch)
        )
    new_split: dict[str, list[int]] = {}

    def bump(pattern: str, part_a: int, part_b: int) -> None:
        entry = new_split.setdefault(pattern, [0, 0])
        entry[0] += part_a
        entry[1] += part_b

    for pattern in set(sketch.counts) | set(sketch.truth_split):
        n_a, n_b = sketch.truth_split.get(pattern, (0, 0))
        flipped = flip_position(pattern, idx)
        if mode == "true-a":
            bump(flipped, n_a, 0)
            bump(pattern, 0, n_b)
        else:
            bump(pattern, n_a, 0)
            bump(flipped, 0, n_b)
    counts = {p: a + b for p, (a, b) in new_split.items()}
    split = {p: (a, b) for p, (a, b) in new_split.items()}
    return EvaluationSketch(sketch.classifiers, sketch.q, counts, split)


class PairBounds(NamedTuple):
    """The four bounds a pair table puts on the two true-a correct counts
    x_i and x_j (see :func:`pair_bounds`)."""

    max_i_minus_j: int  # x_i - x_j <= n_ab
    max_j_minus_i: int  # x_j - x_i <= n_ba
    min_sum: int  # q_a - n_bb <= x_i + x_j
    max_sum: int  # x_i + x_j <= q_a + n_aa


def pair_bounds(q_a: int, pair: Mapping[str, int]) -> PairBounds:
    """The pair constraint: what a pair's response table adds, on top of
    each classifier's own feasible interval, about its two true-a
    correct counts x_i and x_j at hypothesis ``q_a``; the referee for the
    audit's order-2 window and for the alarm's pair rule.

    Two counts inside their own feasible intervals coexist on one ground
    truth iff

        x_i - x_j <= n_ab,   x_j - x_i <= n_ba,
        q_a - n_bb <= x_i + x_j <= q_a + n_aa.

    Proof.  They coexist iff the pair's window of joint true-a counts
    (:func:`joint_correct_a_window`) is non-empty, i.e. iff each of its
    four lower terms 0, x_i - n_ab, x_j - n_ba, x_i + x_j - q_a is at most
    each of its four upper terms n_aa, x_i, x_j, n_bb - q_a + x_i + x_j.
    Write r_i = n_aa + n_ab and r_j = n_aa + n_ba for the two "a" totals
    and q_b = q - q_a, so the own intervals are
    max(0, r_i - q_b) <= x_i <= min(q_a, r_i) and the same for x_j with
    r_j.  Of the 16 comparisons:

    - 0 <= n_aa, x_i - n_ab <= x_i, x_j - n_ba <= x_j and
      x_i + x_j - q_a <= n_bb - q_a + x_i + x_j (that is 0 <= n_bb)
      always hold;
    - 0 <= x_i, 0 <= x_j, x_i - n_ab <= n_aa (x_i <= r_i),
      x_j - n_ba <= n_aa (x_j <= r_j), x_i + x_j - q_a <= x_i
      (x_j <= q_a) and x_i + x_j - q_a <= x_j (x_i <= q_a) are the own
      intervals;
    - x_i - n_ab <= n_bb - q_a + x_i + x_j unfolds to
      x_j >= q_a - n_bb - n_ab = r_j - q_b, and
      x_j - n_ba <= n_bb - q_a + x_i + x_j to x_i >= r_i - q_b: the own
      lower bounds again;
    - the remaining four, x_i - n_ab <= x_j, x_j - n_ba <= x_i,
      0 <= n_bb - q_a + x_i + x_j and x_i + x_j - q_a <= n_aa, are the
      four bounds above.

    Every bound has two variables with unit coefficients, so with the
    own intervals a set of pairs forms an integer octagon.
    """
    return PairBounds(pair["ab"], pair["ba"], q_a - pair["bb"], q_a + pair["aa"])


def joint_correct_a_window(q_a: int, pair, x: int, y: int) -> IntInterval:
    """Feasible joint-correct-on-true-a counts for a pair whose true-a
    correct counts are x and y: exactly the values for which each of the
    pair's four patterns splits into non-negative true-a and true-b parts,
    written out pattern by pattern (aa, ab, ba, bb)."""
    lo = max(0, x - pair["ab"], y - pair["ba"], x + y - q_a)
    hi = min(pair["aa"], x, y, pair["bb"] - q_a + x + y)
    return IntInterval(lo, hi)


def meets_pair_bounds(q_a: int, pair, x: int, y: int) -> bool:
    """Do true-a counts x, y of a pair meet its :func:`pair_bounds`?"""
    b = pair_bounds(q_a, pair)
    return -b.max_j_minus_i <= x - y <= b.max_i_minus_j and b.min_sum <= x + y <= b.max_sum


# ------------------------------------------------------------ truth splits
# The walk ``verify`` ran before its search was pruned by the claim's row
# sums: every truth split of every pattern, with the point each one gives.


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


def split_combinations(sketch: EvaluationSketch) -> int:
    """Size of the raw truth-split search space for a sketch: what a
    ``budget`` of :func:`enumerate_variety` counts."""
    total = 1
    for n in sketch.counts.values():
        total *= n + 1
    return total


@dataclass(frozen=True)
class VarietyPoint:
    """One realizable ground truth for a sketch.

    ``true_a_split`` records, pattern by pattern, how many of the
    pattern's items carry true label a; everything in ``point`` is
    derived from it.
    """

    point: EvaluationPoint
    true_a_split: Mapping[str, int]


def _point_from_split(
    sketch: EvaluationSketch, split: Mapping[str, int]
) -> EvaluationPoint:
    ids = sketch.classifiers
    size = len(ids)
    q_a = sum(split.values())
    c_a = [0] * size
    c_b = [0] * size
    pairs = {
        (i, j): [0, 0] for i in range(size) for j in range(i + 1, size)
    }
    for pattern, n in sketch.counts.items():
        n_a = split.get(pattern, 0)
        n_b = n - n_a
        for k in range(size):
            if pattern[k] == LABEL_A:
                c_a[k] += n_a
            else:
                c_b[k] += n_b
        for (i, j), acc in pairs.items():
            if pattern[i] == LABEL_A and pattern[j] == LABEL_A:
                acc[0] += n_a
            elif pattern[i] != LABEL_A and pattern[j] != LABEL_A:
                acc[1] += n_b
    return EvaluationPoint(
        q_a,
        tuple(c_a),
        tuple(c_b),
        {k: (v[0], v[1]) for k, v in pairs.items()},
    )


def enumerate_variety(
    sketch: EvaluationSketch,
    q_a: int | None = None,
    budget: int = DEFAULT_SPLIT_BUDGET,
) -> Iterator[VarietyPoint]:
    """All ground truths a sketch admits, optionally fixing the number
    of true-a items.

    Walks every way of declaring 0..n of each pattern's items true-a.
    Raises :class:`BudgetExceededError` before starting when the search
    space exceeds ``budget`` combinations.
    """
    problems = validate_sketch(sketch)
    if problems:
        raise SketchError("invalid sketch: " + "; ".join(problems))
    if split_combinations(sketch) > budget:
        raise BudgetExceededError(
            f"{split_combinations(sketch)} split combinations exceed the "
            f"budget of {budget}"
        )
    patterns = sorted(sketch.counts)
    ranges = [range(sketch.counts[p] + 1) for p in patterns]
    for choice in itertools.product(*ranges):
        if q_a is not None and sum(choice) != q_a:
            continue
        split = dict(zip(patterns, choice))
        yield VarietyPoint(_point_from_split(sketch, split), split)


class LabelMinimums(NamedTuple):
    min_correct_a: int
    min_correct_b: int


class OverallMinimum(NamedTuple):
    min_correct_total: int


def safe_threshold(spec: SafetySpec, q: int, q_a: int) -> LabelMinimums | OverallMinimum:
    """Minimum correctness counts a classifier needs at one hypothesis."""
    if isinstance(spec, PerLabelSpec):
        return LabelMinimums(
            min_count_above(q_a, spec.threshold_a, spec.strict),
            min_count_above(q - q_a, spec.threshold_b, spec.strict),
        )
    return OverallMinimum(min_count_above(q, spec.threshold, spec.strict))


def induced_correct_b(q: int, q_a: int, correct_a: int, marginals: Marginals) -> int:
    """The true-b correctness forced by a true-a correctness count.

    Increasing in ``correct_a``; together with the single-classifier
    residual this is the whole content of the per-classifier constraint.
    """
    return q - q_a - marginals.r_a + correct_a


# ------------------------------------------------------------ refined sweep
# The alarm's sweep as it was before the pair rule settled each residue
# class of hypotheses at once: every hypothesis judged on its own, each
# classifier's lower end with the feasibility bounds 0 and r_a - u spelled
# out, and the pairs enforced by tight closure of the integer octagon.
# tests/test_alarm.py referees the closure against a backtracking search.


def pairwise_safe_exists(safe, bounds, shift: int) -> bool:
    """Do integer counts exist, each in its safe interval (lo, hi), that
    meet every pair's :func:`pair_bounds` (both sum bounds moved by
    ``shift``)?  Exact, O(N^3).

    The safe intervals and the bounds of every pair are unit
    two-variable inequalities (+-x_i +- x_j <= c), so this is integer
    octagon feasibility, decided by tight closure (Lahiri & Musuvathi,
    FroCoS 2005; Bagnara, Hill & Zaffanella, VMCAI 2008).  In the
    difference-bound matrix node 2k stands for +x_k and node 2k+1 for
    -x_k, and m[u][v] bounds V_v - V_u.  The system has a rational
    solution iff the shortest-path closure has no negative cycle.  Over
    the integers 2 x_k <= c implies 2 x_k <= 2 floor(c / 2), and a
    closed, rationally consistent matrix has an integer solution iff,
    with every unary entry so tightened, m[2k][2k+1] + m[2k+1][2k] >= 0
    for every k.  Every entry starts at the bound the safe intervals
    imply by themselves, so the matrix is complete: no infinity.
    """
    upper = [v for lo, hi in safe for v in (hi, -lo)]  # of V_u, by node
    lower = [v for lo, hi in safe for v in (lo, -hi)]
    n = len(upper)
    m = [[up - low for up in upper] for low in lower]
    for (i, j), (max_i_minus_j, max_j_minus_i, min_sum, max_sum) in bounds.items():
        min_sum, max_sum = min_sum + shift, max_sum + shift
        pi, ni, pj, nj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
        for u, v, c in (
            (pj, pi, max_i_minus_j), (ni, nj, max_i_minus_j),
            (pi, pj, max_j_minus_i), (nj, ni, max_j_minus_i),
            (nj, pi, max_sum), (ni, pj, max_sum),
            (pj, ni, -min_sum), (pi, nj, -min_sum),
        ):
            m[u][v] = min(m[u][v], c)
    for k in range(n):  # Floyd-Warshall shortest-path closure
        row_k = m[k]
        for u in range(n):
            d = m[u][k]
            m[u] = [a if a <= d + b else d + b for a, b in zip(m[u], row_k)]
    if any(m[u][u] < 0 for u in range(n)):
        return False
    for u in range(n):  # tighten the unary entries
        m[u][u ^ 1] = 2 * (m[u][u ^ 1] // 2)
    return all(m[u][u ^ 1] + m[u ^ 1][u] >= 0 for u in range(0, n, 2))


def referee_safe_hypotheses(
    sketch: EvaluationSketch,
    spec: SafetySpec,
    pair: Sequence[str] | None = None,
    refine: bool = False,
) -> list[int]:
    """The alarm's safe hypotheses, in order, each of q_a = 0..q judged on
    its own: every audited classifier's safe interval is non-empty and,
    refining, the pairs leave counts in all of them."""
    ids = tuple(pair) if pair else sketch.classifiers
    q = sketch.q
    r_as = [marginalize(sketch, cid).r_a for cid in ids]
    bounds = {
        (i, j): pair_bounds(0, pair_counts(sketch, ids[i], ids[j]))
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
    }
    found = []
    for q_a in range(q + 1):
        u, need = q - q_a, safe_threshold(spec, q, q_a)
        if isinstance(need, LabelMinimums):
            need_a, need_b = need
            lows = [max(0, r_a - u, need_a, need_b - u + r_a) for r_a in r_as]
        else:  # x + (x + u - r_a) >= need
            lows = [max(0, r_a - u, -((u - r_a - need.min_correct_total) // 2)) for r_a in r_as]
        safe = [(low, min(q_a, r_a)) for low, r_a in zip(lows, r_as)]
        if any(low > high for low, high in safe):
            continue
        if refine and len(ids) > 1 and not pairwise_safe_exists(safe, bounds, q_a):
            continue
        found.append(q_a)
    return found


# ------------------------------------------------------------------ ingest
# The decision-table reader as it was before csv and jsonl shared one row
# loop: one loop per format, every cell mapped on its own, one responses
# dict per item, and a copy of each in ``referee_records_to_decisions``.
# It reads UTF-8 with or without a byte order mark and rejects a repeated
# JSON key, as the library does.


class _RefereeDuplicate(ValueError):
    pass


def _referee_pairs(pairs):
    keys = [key for key, _ in pairs]
    for k, key in enumerate(keys):
        if key in keys[:k]:
            raise _RefereeDuplicate(key)
    return dict(pairs)


def _referee_load_json(line: str, where: str) -> object:
    try:
        return json.loads(line, object_pairs_hook=_referee_pairs)
    except _RefereeDuplicate as exc:
        raise IngestError(f"{where}: duplicate key {exc.args[0]!r}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        reason = exc if isinstance(exc, json.JSONDecodeError) else "nested too deeply"
        raise IngestError(f"{where}: not valid JSON ({reason})") from None


def _referee_require_keys(obj, required, optional, what) -> None:
    if not isinstance(obj, dict):
        raise IngestError(f"{what} must be a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise IngestError(f"{what} is missing field(s): {', '.join(missing)}")
    unknown = [k for k in obj if k not in (*required, *optional)]
    if unknown:
        raise IngestError(f"{what} has unknown field(s): {', '.join(unknown)}")


def _referee_map_label(raw, label_map, where: str) -> str:
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


def _referee_finish(rows, dropped, any_truth) -> IngestResult:
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


def _referee_csv(text: str, label_map) -> IngestResult:
    rows = _referee_csv_rows(text)
    header = next(rows, None)
    if header is None:
        raise IngestError("empty file: a header row is mandatory")
    if not header or header[0] != "item_id":
        raise IngestError("first header column must be 'item_id'")
    has_truth = bool(header) and header[-1] == "truth"
    roster = tuple(header[1:-1] if has_truth else header[1:])
    if not roster:
        raise IngestError("header names no classifier columns")
    if len(set(roster)) != len(roster):
        raise IngestError("duplicate classifier columns in header")
    kept = []
    dropped = []
    for line_no, row in enumerate(rows, start=2):
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
        responses = {}
        empty = None
        for cid, raw in zip(roster, row[1 : 1 + len(roster)]):
            if raw == "":
                empty = f"empty response for classifier {cid}"
                break
            responses[cid] = _referee_map_label(raw, label_map, where)
        if empty:
            dropped.append((item_id, empty))
            continue
        truth = None
        if has_truth:
            raw = row[-1]
            if raw == "":
                dropped.append((item_id, "missing truth label"))
                continue
            truth = _referee_map_label(raw, label_map, where)
        kept.append((item_id, responses, truth))
    return _referee_finish(kept, dropped, has_truth)


def _referee_csv_rows(text: str) -> Iterator[list[str]]:
    """The csv reader's rows of ``text``, split at the line ends it keeps;
    a row the reader cannot read raises an IngestError naming it."""
    reader = csv.reader(io.StringIO(text, newline=""))
    for line_no in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise IngestError(f"row {line_no}: {exc}") from None
        yield row


def _referee_jsonl(text: str, label_map) -> IngestResult:
    rows = []
    dropped = []
    roster = None
    any_truth = False
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        where = f"line {line_no}"
        obj = _referee_load_json(line, where)
        _referee_require_keys(obj, ("item_id", "responses"), ("truth",), where)
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
        responses = {}
        empty = None
        for cid in roster:
            raw = raw_responses[cid]
            if raw is None or raw == "":
                empty = f"empty response for classifier {cid}"
                break
            responses[cid] = _referee_map_label(raw, label_map, where)
        if empty:
            dropped.append((item_id, empty))
            continue
        truth = None
        if "truth" in obj and obj["truth"] not in (None, ""):
            truth = _referee_map_label(obj["truth"], label_map, where)
            any_truth = True
        rows.append((item_id, responses, truth))
    if roster is None:
        raise IngestError("no records found")
    return _referee_finish(rows, dropped, any_truth)


def referee_ingest(path: str, fmt: str, label_map=None) -> IngestResult:
    """:func:`crosscheck.ingest` by one loop per format.  A csv file keeps
    its line ends, jsonl reads with universal newlines."""
    with open(path, encoding="utf-8-sig", newline="" if fmt == "csv" else None) as handle:
        text = handle.read()
    if fmt == "csv":
        return _referee_csv(text, label_map)
    if fmt == "jsonl":
        return _referee_jsonl(text, label_map)
    raise IngestError(f"unknown ingest format {fmt!r}")


def referee_records_to_decisions(result: IngestResult):
    """:func:`crosscheck.records_to_decisions`, one dict copy per item."""
    decisions = {rec.item_id: dict(rec.responses) for rec in result.records}
    truths = {
        rec.item_id: rec.truth for rec in result.records if rec.truth is not None
    }
    return decisions, truths or None


def referee_sketch_from_decisions(
    decisions: Mapping[str, Mapping[str, str]],
    classifiers: Sequence[str],
    truth: Mapping[str, str] | None = None,
) -> EvaluationSketch:
    """:func:`crosscheck.sketch_from_decisions`, checking every item in turn."""
    ids = tuple(classifiers)
    if not decisions:
        raise SketchError("no items to sketch")
    counts: dict[str, int] = {}
    split: dict[str, list[int]] | None = None if truth is None else {}
    for item, row in decisions.items():
        responses = []
        for cid in ids:
            if cid not in row:
                raise SketchError(f"item {item!r} has no response from classifier {cid!r}")
            label = row[cid]
            if label not in LABELS:
                raise SketchError(
                    f"item {item!r}, classifier {cid!r}: label {label!r} is not canonical"
                )
            responses.append(label)
        pattern = "".join(responses)
        counts[pattern] = counts.get(pattern, 0) + 1
        if split is not None:
            if item not in truth:
                raise SketchError(f"truth label missing for item {item!r}")
            t = truth[item]
            if t not in LABELS:
                raise SketchError(f"item {item!r}: truth label {t!r} is not canonical")
            entry = split.setdefault(pattern, [0, 0])
            entry[0 if t == "a" else 1] += 1
    return EvaluationSketch(
        ids,
        len(decisions),
        counts,
        None if split is None else {p: (a, b) for p, (a, b) in split.items()},
    )


# --------------------------------------------------------------- baselines
# Two estimates the paper sets the exact methods against, kept so that the
# acceptance suite can show where they go wrong: majority vote as a stand-in
# for the prevalence, and the agreement-rate equations for error rates.


def majority_vote_prevalence(sketch: EvaluationSketch) -> Fraction:
    """Fraction of items where a majority of classifiers said "a".

    A common stand-in for the true prevalence; deliberately reported so
    it can be compared against truth, since the two differ whenever the
    classifiers' errors pile up on one side.
    """
    if sketch.size % 2 == 0:
        raise SketchError("majority vote needs an odd number of classifiers")
    hits = sum(
        n for p, n in sketch.counts.items() if 2 * p.count(LABEL_A) > sketch.size
    )
    return Fraction(hits, sketch.q)


@dataclass(frozen=True)
class SqrtValue:
    """An exact value of the form offset + scale * sqrt(radicand)."""

    offset: Fraction
    scale: Fraction
    radicand: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", Fraction(self.offset))
        object.__setattr__(self, "scale", Fraction(self.scale))
        object.__setattr__(self, "radicand", Fraction(self.radicand))
        if self.radicand < 0:
            raise SketchError("radicand must be non-negative")

    @property
    def is_rational(self) -> bool:
        return self.scale == 0 or rational_sqrt(self.radicand) is not None

    def value(self) -> Fraction:
        root = rational_sqrt(self.radicand)
        if self.scale == 0:
            return self.offset
        if root is None:
            raise SketchError(f"sqrt({self.radicand}) is irrational")
        return self.offset + self.scale * root


@dataclass(frozen=True)
class PlataniosReport:
    """Error rates the agreement-rate method implies, kept symbolic.

    ``error_rates`` maps classifier index to the two branches of the
    quadratic; the method itself cannot pick one.  ``c`` is the shared
    square-root term whose irrationality the report exposes.
    """

    c_squared: Fraction
    c: SqrtValue
    error_rates: Mapping[int, tuple[SqrtValue, SqrtValue]]

    @property
    def c_is_rational(self) -> bool:
        return self.c.is_rational


def platanios_error(
    a_12: Fraction, a_13: Fraction, a_23: Fraction
) -> PlataniosReport:
    """Solve the pairwise-agreement equations for three error rates.

    ``a_ij`` is the observed rate at which classifiers i and j disagree
    with each other's errors being independent; the method equates
    a_ij with e_i + e_j - 2 e_i e_j.  The solution involves the square
    root of a product of agreement terms; when that root is irrational
    no exact rational error rates exist, and when an agreement rate is
    exactly 1/2 the equations divide by zero.
    """
    rates = {(1, 2): Fraction(a_12), (1, 3): Fraction(a_13), (2, 3): Fraction(a_23)}
    r = {key: 1 - 2 * value for key, value in rates.items()}
    for key, value in r.items():
        if value == 0:
            raise ValueError(
                f"agreement rate a_{key[0]}{key[1]} = 1/2 makes the "
                "error-rate equations divide by zero"
            )
    c_squared = r[(1, 2)] * r[(1, 3)] * r[(2, 3)]
    if c_squared < 0:
        raise ValueError(
            f"agreement terms multiply to {c_squared} < 0; no real solution"
        )
    c = SqrtValue(Fraction(0), Fraction(1), c_squared)
    opposite = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
    half = Fraction(1, 2)
    error_rates = {}
    for i, pair in opposite.items():
        scale = 1 / (2 * r[pair])
        error_rates[i] = (
            SqrtValue(half, -scale, c_squared),
            SqrtValue(half, scale, c_squared),
        )
    return PlataniosReport(c_squared, c, error_rates)
