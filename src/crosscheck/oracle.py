"""Brute-force ground truth enumeration, used as an independent referee.

These routines ignore the interval algebra entirely: they walk the raw
lattice of candidate correctness counts, or the raw set of per-pattern
truth splits, and test definitions directly.  They exist so the fast
paths elsewhere can be checked against something with no shared code.
On the production path, :func:`check_summary` (the audit behind
``verify``) enumerates only to confirm a claimed point of three or more
classifiers that already passed the bound and axiom checks, within a
budget.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .axioms import point_axiom_violations
from .model import (
    LABEL_A,
    EvaluationPoint,
    EvaluationSketch,
    Marginals,
    SketchError,
    _is_ints,
    marginalize,
    point_bound_violations,
    validate_sketch,
)

DEFAULT_SPLIT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


def enumerate_evaluations(q: int) -> Iterator[EvaluationPoint]:
    """Every possible single-classifier evaluation outcome on q items.

    Yields one point per (q_a, correct_a, correct_b) triple with the
    obvious bounds; nothing else is assumed.  There are exactly
    (q+1)(q+2)(q+3)/6 of them.
    """
    if q < 0:
        raise SketchError("q must be non-negative")
    for q_a in range(q + 1):
        for c_a in range(q_a + 1):
            for c_b in range(q - q_a + 1):
                yield EvaluationPoint(q_a, (c_a,), (c_b,))


def evaluation_count(q: int) -> int:
    """How many points :func:`enumerate_evaluations` yields for ``q``."""
    if q < 0:
        raise SketchError("q must be non-negative")
    return (q + 1) * (q + 2) * (q + 3) // 6


@dataclass(frozen=True)
class VarietyPoint:
    """One realizable ground truth for a sketch.

    ``true_a_split`` records, pattern by pattern, how many of the
    pattern's items carry true label a; everything in ``point`` is
    derived from it.
    """

    point: EvaluationPoint
    true_a_split: Mapping[str, int]


def split_combinations(sketch: EvaluationSketch) -> int:
    """Size of the raw truth-split search space for a sketch."""
    total = 1
    for n in sketch.counts.values():
        total *= n + 1
    return total


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


@dataclass(frozen=True)
class SummaryClaims:
    """An externally supplied summary of an evaluation to be audited.

    ``marginals`` maps classifier id to claimed response totals, two ints
    in a list or tuple, kept as :class:`Marginals`; ``point`` is an
    optional claimed ground truth.
    """

    marginals: Mapping[str, Marginals]
    point: EvaluationPoint | None = None

    def __post_init__(self) -> None:
        claimed = self.marginals
        if not isinstance(claimed, Mapping) or not all(
            isinstance(cid, str) and _is_ints(entry, True) for cid, entry in claimed.items()
        ):
            raise SketchError("claimed marginals must map ids to pairs of integers")
        margs = {cid: Marginals(*entry) for cid, entry in claimed.items()}
        object.__setattr__(self, "marginals", MappingProxyType(margs))


@dataclass(frozen=True)
class SummaryReport:
    """Outcome of auditing claims against a sketch.

    ``undecided`` is True when a claimed point of three or more
    classifiers passed the bound and axiom checks but the exact search
    for a ground truth realizing it was skipped for budget: the point is
    neither confirmed nor refuted.
    """

    violations: tuple[str, ...]
    undecided: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def check_summary(
    sketch: EvaluationSketch,
    claims: SummaryClaims,
    budget: int = DEFAULT_SPLIT_BUDGET,
) -> SummaryReport:
    """Audit claimed marginals and an optional claimed point.

    Marginal claims are compared against the sketch's actual totals.  A
    claimed point is checked against the lattice bounds, then the axioms
    (:func:`axioms.point_axiom_violations`, which holds every pair to the
    alarm's pair constraint whether or not the point names it).  The
    N = 1 and N = 2 axioms are complete, so at N <= 2 a point that passes
    is realized and nothing is searched.  At N >= 3 it is searched for
    among the ground truths at its claimed prevalence when the budget
    allows.  Whether some ground truth realizes the sketch needs no
    search: the pattern counts of a sound sketch are non-negative and sum
    to q, so every q_a in [0, q] has a split (the all-b truth at q_a = 0,
    for one).  Structural invalidity of the sketch itself is reported as
    violations rather than raised, since auditing bad data is the point.
    """
    violations = validate_sketch(sketch)
    roster = set(sketch.classifiers)
    for cid in sorted(claims.marginals):
        if cid not in roster:
            violations.append(f"claimed marginals for unknown classifier {cid}")
    if not violations:
        for cid, claimed in claims.marginals.items():
            actual = marginalize(sketch, cid)
            if claimed != actual:
                violations.append(
                    f"classifier {cid}: claimed totals ({claimed.r_a}, {claimed.r_b}) "
                    f"differ from actual ({actual.r_a}, {actual.r_b})"
                )
    undecided = False
    point = claims.point
    if point is not None and not violations:
        violations.extend(point_bound_violations(point, sketch.q))
        if not violations:
            violations.extend(point_axiom_violations(sketch, point))
        if not violations and sketch.size >= 3:
            try:
                # a claim may name only some pairs; the others' joint counts are free
                claimed_pairs = (point.pair_correct or {}).items()
                realized = any(
                    vp.point.correct_a == point.correct_a
                    and vp.point.correct_b == point.correct_b
                    and claimed_pairs <= vp.point.pair_correct.items()
                    for vp in enumerate_variety(sketch, q_a=point.q_a, budget=budget)
                )
            except BudgetExceededError:
                undecided = True
            else:
                if not realized:
                    violations.append(
                        "claimed point is not realized by any ground truth "
                        f"with q_a={point.q_a}"
                    )
    return SummaryReport(tuple(violations), undecided)
