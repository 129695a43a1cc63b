"""Consistency constraints linking response counts to correctness counts.

Everything here is exact integer or rational arithmetic.  The central
objects are closed integer intervals of feasible per-label correctness
counts for a hypothesised number of true-a items, and the constraints a
pair of classifiers must jointly satisfy on top of the per-classifier
ones.  An evaluation point holds the correctness counts themselves: the
one a truth-split sketch realizes (:func:`sketch_point`, read by
:func:`pspace_stats`), or one a claims file names, which
:func:`point_bound_violations` and :func:`point_axiom_violations` audit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress
from operator import mul
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .model import (
    LABEL_A,
    LABEL_B,
    LABELS,
    EvaluationSketch,
    IntInterval,
    Marginals,
    SketchError,
    _is_int,
    _is_ints,
    _Value,
    marginalize,
    pair_counts,
    validate_sketch,
)


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


class EvaluationPoint(_Value):
    """A candidate ground truth: the unobservable correctness counts.

    ``pair_correct`` maps index pairs (i, j) with i < j to the pair's
    joint correct counts (both right on true-a items, both right on
    true-b items).  Construction checks that the counts are ints, never
    bools, in lists or tuples.  Bounds relative to a test are checked by
    :func:`point_bound_violations` so claimed points from untrusted
    summaries can be represented and then reported on.
    """

    q_a: int
    correct_a: tuple[int, ...]
    correct_b: tuple[int, ...]
    pair_correct: Mapping[tuple[int, int], tuple[int, int]] | None

    def __init__(
        self,
        q_a: int,
        correct_a: Sequence[int],
        correct_b: Sequence[int],
        pair_correct: Mapping[tuple[int, int], tuple[int, int]] | None = None,
    ) -> None:
        if not (_is_int(q_a) and _is_ints(correct_a) and _is_ints(correct_b)):
            raise SketchError("q_a must be an int, correct_a and correct_b lists or tuples of ints")
        size = len(correct_a)
        if len(correct_b) != size:
            raise SketchError("correct_a and correct_b must have one entry per classifier")
        pairs = pair_correct
        if pairs is not None:
            if not isinstance(pairs, Mapping):
                raise SketchError("pair_correct must map index pairs to joint counts")
            for key, entry in pairs.items():
                if not (_is_ints(key, True) and 0 <= key[0] < key[1] < size):
                    raise SketchError(f"bad pair key {key!r} for {size} classifiers")
                if not _is_ints(entry, True):
                    raise SketchError(f"pair {key!r}: joint counts must be a pair of integers")
            pairs = MappingProxyType({tuple(key): tuple(pairs[key]) for key in sorted(pairs)})
        self._store(q_a, tuple(correct_a), tuple(correct_b), pairs)

    @property
    def size(self) -> int:
        return len(self.correct_a)


# a pattern's letters as the 0/1 flags "said a" and "said b"
_SAID = {LABEL_A: bytes.maketrans(b"ab", b"\1\0"), LABEL_B: bytes.maketrans(b"ab", b"\0\1")}


def sketch_point(sketch: EvaluationSketch) -> EvaluationPoint:
    """The evaluation point a truth-split sketch realizes: q_a, each
    classifier's correct counts on each label, and every pair's (i < j)
    joint correct counts.  Like :func:`marginalize`, it does not validate
    the sketch.

    Per label, the split is read as its item counts and each classifier's
    0/1 flags (gave that label?) per pattern, and each sum is a C-level
    walk: k's right answers are the counts times k's flags, and a pair's
    joint count sums one's right answers where the other's flag is set.
    """
    split = sketch.truth_split
    if split is None:
        raise SketchError("sketch has no truth split")
    size = sketch.size
    pairs = list(combinations(range(size), 2))
    patterns = "".join(split).encode()
    sums = []
    for side, label in enumerate(LABELS):
        counts = [entry[side] for entry in split.values()]
        said = [patterns[k::size].translate(_SAID[label]) for k in range(size)]
        right = [list(map(mul, counts, flags)) for flags in said]
        joint = [sum(compress(right[i], said[j])) for i, j in pairs]
        sums.append((sum(counts), [sum(r) for r in right], joint))
    (q_a, correct_a, joint_a), (_, correct_b, joint_b) = sums
    return EvaluationPoint(q_a, correct_a, correct_b, dict(zip(pairs, zip(joint_a, joint_b))))


def point_bound_violations(point: EvaluationPoint, q: int) -> list[str]:
    """Lattice-bound violations of a point relative to a test of size q."""
    problems: list[str] = []
    q_a = point.q_a
    if not 0 <= q_a <= q:
        problems.append(f"q_a={q_a} outside [0, {q}]")
    # a q_a outside [0, q] is reported above; each label's size is then
    # clamped at 0, and the message prints the range actually checked
    cap_a, cap_b = max(q_a, 0), max(q - q_a, 0)
    for i, (c_a, c_b) in enumerate(zip(point.correct_a, point.correct_b)):
        if not 0 <= c_a <= cap_a:
            problems.append(f"correct_a[{i}]={c_a} outside [0, {cap_a}]")
        if not 0 <= c_b <= cap_b:
            problems.append(f"correct_b[{i}]={c_b} outside [0, {cap_b}]")
    if point.pair_correct:
        for (i, j), (ja, jb) in point.pair_correct.items():
            cap_a = min(point.correct_a[i], point.correct_a[j])
            cap_b = min(point.correct_b[i], point.correct_b[j])
            if not 0 <= ja <= cap_a:
                problems.append(
                    f"pair ({i},{j}) joint correct on a is {ja}, outside [0, {cap_a}]"
                )
            if not 0 <= jb <= cap_b:
                problems.append(
                    f"pair ({i},{j}) joint correct on b is {jb}, outside [0, {cap_b}]"
                )
    return problems


class PSpaceStats(NamedTuple):
    """Exact ratio statistics of a truth-split sketch.

    Per-classifier accuracies are None when their label has no items.
    ``gamma_a``/``gamma_b`` are the pair correlations of correctness
    within each label (None when undefined); ``delta`` is the observable
    pattern covariance of each pair, which never needs the truth split.
    Mapping keys are classifier id pairs in roster order, and
    :func:`pspace_stats` gives the mappings read-only.
    """

    classifiers: tuple[str, ...]
    p_a: Fraction
    p_b: Fraction
    accuracy_a: tuple[Fraction | None, ...]
    accuracy_b: tuple[Fraction | None, ...]
    gamma_a: Mapping[tuple[str, str], Fraction | None]
    gamma_b: Mapping[tuple[str, str], Fraction | None]
    delta: Mapping[tuple[str, str], Fraction]


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
    :func:`point_bound_violations`) are assumed already reported
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
