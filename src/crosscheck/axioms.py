"""Consistency constraints linking response counts to correctness counts.

Everything here is exact integer or rational arithmetic.  The central
objects are closed integer intervals of feasible per-label correctness
counts for a hypothesised number of true-a items.  An evaluation point
holds the correctness counts themselves: the one a truth-split sketch
realizes (:func:`sketch_point`, read by :func:`pspace_stats`), or one a
claims file names, which :func:`point_axiom_violations` audits with one
window rule applied to each subset of the roster whose proper subsets
the point names.
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
    all_patterns,
    # not called here: perfbench/tracer.py wraps these two names in this
    # module, and counts a name it cannot find as a missing wrapper
    marginalize,
    pair_counts,
    validate_sketch,
)


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


class EvaluationPoint(_Value):
    """A candidate ground truth: the unobservable correctness counts.

    ``pair_correct`` maps index pairs (i, j) with i < j to the pair's
    joint correct counts (both right on true-a items, both right on
    true-b items).  Construction checks that the counts are ints, never
    bools, in lists or tuples.  Bounds relative to a test are checked
    against a sketch by :func:`point_axiom_violations`, so claimed points
    from untrusted summaries can be represented and then reported on.
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


# each order's words for a claimed true-a count outside its window, for a
# claimed true-b count that is not the one the responses force, and for an
# unnamed subset whose window is empty; every point names the empty set and
# each classifier, and none names a triple
_EMPTY = "no joint true-a correctness fits the feasible window [{lo}, {hi}]"
_WORDS = (
    ("q_a={a} outside [{lo}, {hi}]", None, None),
    (
        "classifier {name}: correct_a={a} outside feasible interval [{lo}, {hi}]",
        "classifier {name}: correct_b={b}, but the responses force {forced}",
        None,
    ),
    (
        "pair ({name}): joint true-a correctness {a} outside feasible window [{lo}, {hi}]",
        "pair ({name}): joint true-b correctness {b}, but the responses force {forced}",
        "pair ({name}): " + _EMPTY,
    ),
    (None, None, "triple ({name}): " + _EMPTY),
)


def _named(point: EvaluationPoint) -> dict[tuple[int, ...], tuple[int, int | None]]:
    """The subsets S of the roster a point names, as sorted index tuples
    by order, each with its claimed joint counts (J_a(S), J_b(S)): q_a for
    the empty set, whose J_b (q - q_a) no point states, each classifier's
    correct counts and each named pair's joint counts."""
    named: dict = {(): (point.q_a, None)}
    named.update(((k,), counts) for k, counts in enumerate(zip(point.correct_a, point.correct_b)))
    named.update(point.pair_correct or {})
    return named


def point_axiom_violations(sketch: EvaluationSketch, point: EvaluationPoint) -> list[str]:
    """Axiom failures of a claimed point against a sketch's counts.

    One relation, applied to each subset S of the roster whose proper
    subsets the point all names: the empty set (q_a), each classifier,
    each pair, and each triple whose three pairs it names.  Let J_a(S)
    count the true-a items on which every member of S said a, J_b(S) the
    true-b items on which every member said b, and m_S(p) the items on
    which S gave pattern p, for each of S's 2^|S| patterns (all q items
    for the empty set).  The true-a count of pattern p is the Möbius
    inverse of J_a over the subsets of S,

        x_p = sum over A(p) <= T <= S of (-1)^|T - A(p)| J_a(T),

    with A(p) the members that said a in p, and a ground truth needs
    0 <= x_p <= m_S(p).  J_a(S) enters x_p with sign (-1)^|S - A(p)|, so
    given the counts of the subsets below S these bounds leave J_a(S) one
    window: [0, q] for q_a, :func:`feasible_interval_label_a` for a
    classifier, and max(0, x_i - n_ab, x_j - n_ba, x_i + x_j - q_a) to
    min(n_aa, x_i, x_j, n_bb - q_a + x_i + x_j) for a pair.  A subset the
    point names must have its J_a(S) in the window, and the true-b items
    of the all-b pattern force J_b(S) = m_S(b...b) - x_(b...b).  A subset
    it does not name must have a window that is not empty.  For a pair
    whose classifiers passed, that is four of the window's comparisons,
    x_i - n_ab <= x_j, x_j - n_ba <= x_i, x_i + x_j - q_a <= n_aa and
    0 <= n_bb - q_a + x_i + x_j: the alarm's pair rule.

    The orders are checked in turn, and the first that has a problem ends
    the audit, since the windows of an order rest on the counts below it.
    A point that passes and reaches the whole roster (always at N <= 2,
    and at N = 3 when it names every pair) is realized by some ground
    truth: the roster's cells at any J_a in its window are a truth split.

    A point that passes is inside the lattice bounds, so no separate
    bound check is needed.  The cell of the empty set is q_a, in [0, q].
    A classifier's cells are c_a in [0, r_a] and q_a - c_a in [0, r_b],
    so 0 <= c_a <= q_a, and its forced c_b = r_b - (q_a - c_a) lies in
    [0, r_b] and is at most r_b - q_a + r_a = q - q_a.  A pair's window
    lies in [0, min(c_a,i, c_a,j)], its forced j_b = n_bb - x_bb is at
    least 0, and as the order below passed, each c_b is forced, so
    c_b,i - j_b = n_ba - x_ba and c_b,j - j_b = n_ab - x_ab are at least 0.
    """
    ids = sketch.classifiers
    if point.size != len(ids):
        return [f"point has {point.size} classifiers, sketch has {len(ids)}"]
    named = _named(point)
    problems: list[str] = []
    reached: list[tuple[int, ...]] = [()]
    while reached and not problems:
        order = len(reached[0])
        window_words, forced_words, empty_words = _WORDS[order]
        for members in reached:
            counts = dict.fromkeys(all_patterns(order), 0)
            for pattern, n in sketch.counts.items():
                counts["".join([pattern[k] for k in members])] += n
            name = ", ".join(ids[k] for k in members)
            joint_a, joint_b = named.get(members, (0, None))
            lo, hi, forced = _window(members, counts, named, joint_a)
            if members not in named:
                if lo > hi:
                    problems.append(empty_words.format(name=name, lo=lo, hi=hi))
                continue
            if not lo <= joint_a <= hi:
                problems.append(window_words.format(name=name, a=joint_a, lo=lo, hi=hi))
            if joint_b is not None and joint_b != forced:
                problems.append(forced_words.format(name=name, b=joint_b, forced=forced))
        # the subsets one order up whose proper subsets are all named
        reached = [
            (*base, k)
            for base in named if len(base) == order
            for k in range(base[-1] + 1 if base else 0, len(ids))
            if all(sub in named for sub in combinations((*base, k), order))
        ]
    return problems


def _window(
    members: tuple[int, ...], counts: Mapping[str, int], named: Mapping, joint_a: int
) -> tuple[int, int, int]:
    """The window [lo, hi] of J_a(members) that keeps each pattern's
    true-a count x_p in [0, m_p], ``counts`` giving m_p for each pattern
    of ``members`` and ``named`` J_a of each subset below it, and the
    J_b(members) that a J_a(members) of ``joint_a`` forces (see
    :func:`point_axiom_violations`)."""
    moves, cells = [], {}
    for pattern, m in counts.items():
        said_b = [k for k, label in zip(members, pattern) if label == LABEL_B]
        said_a = [k for k in members if k not in said_b]
        # the Möbius inverse, by inclusion-exclusion over the members that
        # said b; with all of them, the subset is ``members`` itself
        x = cells[pattern] = (-1) ** len(said_b) * joint_a + sum(
            (-1) ** size * named[tuple(sorted(said_a + list(extra)))][0]
            for size in range(len(said_b))
            for extra in combinations(said_b, size)
        )
        # x moves with J_a(members) at sign (-1)^|said_b|: how far J_a may move
        moves.append((-x, m - x) if len(said_b) % 2 == 0 else (x - m, x))
    lo = joint_a + max(low for low, _ in moves)
    hi = joint_a + min(high for _, high in moves)
    all_b = LABEL_B * len(members)
    return lo, hi, counts[all_b] - cells[all_b]
