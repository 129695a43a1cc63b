"""Consistency constraints linking response counts to correctness counts.

Everything here is exact integer or rational arithmetic.  The central
objects are closed integer intervals of feasible per-label correctness
counts for a hypothesised number of true-a items, and the constraints a
pair of classifiers must jointly satisfy on top of the per-classifier
ones.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .model import (
    EvaluationPoint,
    EvaluationSketch,
    Marginals,
    PSpaceStats,
    SketchError,
    marginalize,
    pair_counts,
    sketch_point,
    validate_sketch,
)


class IntInterval(NamedTuple):
    """Closed integer interval [lo, hi]; empty when lo > hi."""

    lo: int
    hi: int

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi


def _single_axiom_residual(
    q: int, q_a: int, correct_a: int, correct_b: int, marginals: Marginals
) -> int:
    """Zero iff one classifier's correctness counts match its responses.

    A classifier that says "a" ``r_a`` times and is right ``correct_a``
    times on the ``q_a`` true-a items has no remaining freedom: its
    true-b correctness is forced.  The residual measures the failure of
    that forcing and vanishes exactly on consistent assignments.
    """
    q_b = q - q_a
    left = q * correct_a - q_a * marginals.r_a
    right = q * correct_b - q_b * marginals.r_b
    return left - right


def feasible_interval_label_a(q: int, q_a: int, marginals: Marginals) -> IntInterval:
    """Correct-on-true-a counts compatible with the response totals."""
    lo = max(0, marginals.r_a - (q - q_a))
    hi = min(q_a, marginals.r_a)
    return IntInterval(lo, hi)


def feasible_interval_label_b(q: int, q_a: int, marginals: Marginals) -> IntInterval:
    """Correct-on-true-b counts compatible with the response totals.

    The affine image of the label-a interval under the forced true-b
    count, correct_b = q - q_a - r_a + correct_a; endpoints correspond
    one to one.
    """
    lo = max(0, marginals.r_b - q_a)
    hi = min(q - q_a, marginals.r_b)
    return IntInterval(lo, hi)


def _pair_axiom_sum(
    q: int,
    q_a: int,
    marginals_i: Marginals,
    marginals_j: Marginals,
    agree_a: int,
    correct_a_i: int,
    correct_a_j: int,
) -> int:
    """Forced sum of a pair's two joint correctness counts.

    ``agree_a`` is the observable count of items where both classifiers
    responded "a".  Once each classifier's own true-a correctness is
    fixed, the number of items where both are right on true-a plus the
    number where both are right on true-b is fully determined; only the
    split between the two remains free, and
    :func:`joint_correct_a_window` says which splits admit non-negative
    pattern cells.
    """
    q_b = q - q_a
    return (
        q_b
        - (marginals_i.r_a + marginals_j.r_a)
        + agree_a
        + (correct_a_i + correct_a_j)
    )


def joint_correct_a_window(
    q_a: int,
    pair: Mapping[str, int],
    correct_a_i: int,
    correct_a_j: int,
) -> IntInterval:
    """Feasible joint-correct-on-true-a counts for a pair, given both
    classifiers' own true-a correctness.

    The window is exactly the set of values for which every joint
    pattern count splits into non-negative true-a and true-b parts, so
    membership is equivalent to the existence of an item-level ground
    truth realizing all the counts.
    """
    x = correct_a_i
    y = correct_a_j
    n_aa = pair["aa"]
    n_ab = pair["ab"]
    n_ba = pair["ba"]
    n_bb = pair["bb"]
    lo = max(0, x - n_ab, y - n_ba, x + y - q_a)
    hi = min(n_aa, x, y, n_bb - q_a + x + y)
    return IntInterval(lo, hi)


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
    correct counts x_i and x_j at hypothesis ``q_a``.

    Two counts inside their own feasible intervals
    (:func:`feasible_interval_label_a`) coexist on one ground truth iff

        x_i - x_j <= n_ab,   x_j - x_i <= n_ba,
        q_a - n_bb <= x_i + x_j <= q_a + n_aa.

    Proof.  They coexist iff :func:`joint_correct_a_window` is non-empty,
    i.e. iff each of its four lower terms 0, x_i - n_ab, x_j - n_ba,
    x_i + x_j - q_a is at most each of its four upper terms n_aa, x_i,
    x_j, n_bb - q_a + x_i + x_j.  Write r_i = n_aa + n_ab and
    r_j = n_aa + n_ba for the two "a" totals and q_b = q - q_a, so the
    own intervals are max(0, r_i - q_b) <= x_i <= min(q_a, r_i) and the
    same for x_j with r_j.  Of the 16 comparisons:

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
    return PairBounds(
        pair["ab"], pair["ba"], q_a - pair["bb"], q_a + pair["aa"]
    )


def pspace_stats(sketch: EvaluationSketch) -> PSpaceStats:
    """Exact ratio statistics of a truth-split sketch.

    Raises when the sketch fails validation or has no truth split.
    Accuracies and within-label correlations are None whenever their
    label has no items.
    """
    problems = validate_sketch(sketch)
    if problems:
        raise SketchError("invalid sketch: " + "; ".join(problems))
    q, point, ids = sketch.q, sketch_point(sketch), sketch.classifiers
    q_a, q_b, c_b = point.q_a, q - point.q_a, point.correct_b
    keys = {(i, j): (ids[i], ids[j]) for i, j in point.pair_correct}
    accuracy, gamma = [], []
    # side 0 is the true-a items, side 1 the true-b items
    for side, (size, correct) in enumerate(((q_a, point.correct_a), (q_b, c_b))):
        acc = tuple(Fraction(c, size) if size else None for c in correct)
        accuracy.append(acc)
        gamma.append(MappingProxyType({
            keys[i, j]: Fraction(joint[side], size) - acc[i] * acc[j] if size else None
            for (i, j), joint in point.pair_correct.items()
        }))
    # the pattern covariance (n_aa q - r_i r_j) / q^2: k says "a" where it is
    # right on true-a or wrong on true-b, r_k = c_a,k + q_b - c_b,k, and a pair
    # both do where both are right on true-a or both wrong on true-b,
    # n_aa = j_a + q_b - c_b,i - c_b,j + j_b
    r = [c_a + q_b - c for c_a, c in zip(point.correct_a, c_b)]
    delta = {
        keys[i, j]: Fraction((j_a + q_b - c_b[i] - c_b[j] + j_b) * q - r[i] * r[j], q * q)
        for (i, j), (j_a, j_b) in point.pair_correct.items()
    }
    # fields in order: p_a, p_b, then accuracy and gamma on each side
    return PSpaceStats(
        ids, Fraction(q_a, q), Fraction(q_b, q), *accuracy, *gamma, MappingProxyType(delta)
    )


def point_axiom_violations(sketch: EvaluationSketch, point: EvaluationPoint) -> list[str]:
    """Axiom failures of a claimed point against a sketch's counts.

    Checks each classifier's residual and interval membership, then every
    pair.  A pair the point names must have the forced sum and a joint
    true-a count inside :func:`joint_correct_a_window`; any other pair's
    two true-a counts must meet its :func:`pair_bounds`, the constraint
    the alarm enforces.  At N <= 2 a point that passes is realized by
    some ground truth.  Bound violations (see
    :func:`model.point_bound_violations`) are assumed already reported
    by the caller.
    """
    problems: list[str] = []
    ids = sketch.classifiers
    if point.size != len(ids):
        return [f"point has {point.size} classifiers, sketch has {len(ids)}"]
    q = sketch.q
    q_a = point.q_a
    margs = [marginalize(sketch, cid) for cid in ids]
    for k, cid in enumerate(ids):
        res = _single_axiom_residual(
            q, q_a, point.correct_a[k], point.correct_b[k], margs[k]
        )
        if res != 0:
            problems.append(
                f"classifier {cid}: correctness counts inconsistent with its "
                f"response totals (residual {res})"
            )
        ia = feasible_interval_label_a(q, q_a, margs[k])
        if point.correct_a[k] not in ia:
            problems.append(
                f"classifier {cid}: correct_a={point.correct_a[k]} outside "
                f"feasible interval [{ia.lo}, {ia.hi}]"
            )
        ib = feasible_interval_label_b(q, q_a, margs[k])
        if point.correct_b[k] not in ib:
            problems.append(
                f"classifier {cid}: correct_b={point.correct_b[k]} outside "
                f"feasible interval [{ib.lo}, {ib.hi}]"
            )
    if problems:
        return problems
    claimed = point.pair_correct or {}
    for i, j in combinations(range(len(ids)), 2):
        pair = pair_counts(sketch, ids[i], ids[j])
        x, y = point.correct_a[i], point.correct_a[j]
        if (i, j) not in claimed:
            b = pair_bounds(q_a, pair)
            broken = [
                bound for bound, holds in (
                    (f"x_i - x_j <= {b.max_i_minus_j}", x - y <= b.max_i_minus_j),
                    (f"x_j - x_i <= {b.max_j_minus_i}", y - x <= b.max_j_minus_i),
                    (f"x_i + x_j >= {b.min_sum}", x + y >= b.min_sum),
                    (f"x_i + x_j <= {b.max_sum}", x + y <= b.max_sum),
                ) if not holds
            ]
            if broken:
                problems.append(
                    f"pair ({ids[i]}, {ids[j]}): true-a correct counts x_i={x}, "
                    f"x_j={y} break {' and '.join(broken)}"
                )
            continue
        ja, jb = claimed[(i, j)]
        forced_sum = _pair_axiom_sum(q, q_a, margs[i], margs[j], pair["aa"], x, y)
        if ja + jb != forced_sum:
            problems.append(
                f"pair ({ids[i]}, {ids[j]}): joint correctness counts sum to "
                f"{ja + jb}, but the response table forces {forced_sum}"
            )
        window = joint_correct_a_window(q_a, pair, x, y)
        if ja not in window:
            problems.append(
                f"pair ({ids[i]}, {ids[j]}): joint true-a correctness {ja} outside "
                f"feasible window [{window.lo}, {window.hi}]"
            )
    return problems
