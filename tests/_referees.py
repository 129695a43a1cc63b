"""Independent referees the tests compare the library against.

Each one recomputes a quantity straight from its definition, with no
code shared with the path it checks.
"""

from typing import NamedTuple

from crosscheck import (
    EvaluationPoint,
    EvaluationSketch,
    PerLabelSpec,
    SafetySpec,
    SketchError,
    correct_counts,
    joint_correct_counts,
    min_count_above,
)
from crosscheck.axioms import pair_bounds


def sketch_point(sketch: EvaluationSketch) -> EvaluationPoint:
    """The evaluation point actually realized by a truth-split sketch."""
    if sketch.truth_split is None:
        raise SketchError("sketch has no truth split")
    q_a = sum(a for a, _ in sketch.truth_split.values())
    ids = sketch.classifiers
    c_a: list[int] = []
    c_b: list[int] = []
    for cid in ids:
        on_a, on_b = correct_counts(sketch, cid)
        c_a.append(on_a)
        c_b.append(on_b)
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            pairs[(i, j)] = joint_correct_counts(sketch, ids[i], ids[j])
    return EvaluationPoint(q_a, tuple(c_a), tuple(c_b), pairs)


def meets_pair_bounds(q_a: int, pair, x: int, y: int) -> bool:
    """Do true-a counts x, y of a pair meet its :func:`pair_bounds`?"""
    b = pair_bounds(q_a, pair)
    return -b.max_j_minus_i <= x - y <= b.max_i_minus_j and b.min_sum <= x + y <= b.max_sum


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
