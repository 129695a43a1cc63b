"""The logical-consistency alarm.

For every hypothetical number of true-a items, the response counts of
each audited classifier confine its unobservable correctness counts to
an integer interval.  If a safety requirement excludes that interval for
every hypothesis, no ground truth could make the classifiers meet the
requirement, and the alarm fires.  The alarm never needs an answer key;
by construction it cannot fire on a group that actually meets the
requirement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence

from .axioms import (
    IntInterval,
    PairBounds,
    feasible_interval_label_a,
    feasible_interval_label_b,
    pair_bounds,
)
from .model import (
    EvaluationSketch,
    Marginals,
    OverallSpec,
    PerLabelSpec,
    SafetySpec,
    SketchError,
    marginalize,
    pair_counts,
    validate_sketch,
)


class Verdict(enum.Enum):
    TRIGGERED = "triggered"
    NOT_TRIGGERED = "not_triggered"


class LabelMinimums(NamedTuple):
    min_correct_a: int
    min_correct_b: int


class OverallMinimum(NamedTuple):
    min_correct_total: int


def min_count_above(
    total: int, threshold: Fraction | int | float, strict: bool = True
) -> int:
    """Smallest correct count on ``total`` items whose accuracy clears a
    threshold.

    With ``strict`` the accuracy must exceed the threshold, otherwise
    meeting it is enough.  An empty item set needs nothing.  The result
    can exceed ``total`` (an unmeetable requirement, e.g. strictly above
    1), which callers observe as an empty safe interval.  Integer
    arithmetic on the threshold's numerator and denominator; an ``int``
    or ``Fraction`` is used as is (the spec classes hold ``Fraction``),
    any other number, such as a float, at its exact value
    ``Fraction(threshold)``.
    """
    if total < 0:
        raise SketchError("total must be non-negative")
    if total == 0:
        return 0
    if not isinstance(threshold, (int, Fraction)):
        threshold = Fraction(threshold)
    scaled = threshold.numerator * total
    if strict:
        return scaled // threshold.denominator + 1
    return max(0, -(-scaled // threshold.denominator))


def safe_threshold(spec: SafetySpec, q: int, q_a: int) -> LabelMinimums | OverallMinimum:
    """Minimum correctness counts a classifier needs at one hypothesis."""
    if isinstance(spec, PerLabelSpec):
        return LabelMinimums(
            min_count_above(q_a, spec.threshold_a, spec.strict),
            min_count_above(q - q_a, spec.threshold_b, spec.strict),
        )
    return OverallMinimum(min_count_above(q, spec.threshold, spec.strict))


def _safe_subinterval(
    q: int, q_a: int, marginals: Marginals, need: LabelMinimums | OverallMinimum
) -> IntInterval:
    """Correct-on-true-a counts that are feasible and meet the spec.

    ``need`` is :func:`safe_threshold` at this hypothesis.  Uses the fact
    that the true-b count is an increasing affine function of the true-a
    count, so every requirement becomes a lower bound on the a-axis and
    the safe set stays an interval.
    """
    ia = feasible_interval_label_a(q, q_a, marginals)
    offset = q - q_a - marginals.r_a
    if isinstance(need, LabelMinimums):
        lo = max(ia.lo, need.min_correct_a, need.min_correct_b - offset)
    else:
        lo = max(ia.lo, -(-(need.min_correct_total - offset) // 2))
    return IntInterval(lo, ia.hi)


def _last_true(holds: Callable[[int], bool], hi: int) -> int:
    """Largest t in [0, hi] with ``holds(t)``, for a predicate that holds
    exactly on a prefix [0, k] of [0, hi] with k >= 0."""
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _safe_qa_bounds(q: int, r_a: int, spec: SafetySpec) -> tuple[int, int]:
    """First and last hypothesis q_a at which one classifier, saying "a"
    ``r_a`` times, can meet the spec on its own; first > last when none.

    The hypotheses where its safe subinterval (:func:`_safe_subinterval`)
    is non-empty form an interval.  Proof: write u = q - q_a for the
    number of true-b items and r_b = q - r_a.  With 0 <= r_a <= q the
    feasibility bound max(0, r_a - u) never exceeds the upper end
    min(q_a, r_a), so the subinterval is non-empty iff every spec bound
    stays at or below min(q_a, r_a).  need(t) = min_count_above(t, T,
    strict) is non-decreasing in t, and {t : need(t) <= t} is every t,
    or only t = 0 when T = 1 and the spec is strict.

    Per-label spec.  The label-a bound need_a(q_a) <= min(q_a, r_a)
    holds on a prefix of q_a: need_a(q_a) <= r_a by monotonicity, and
    need_a(q_a) <= q_a everywhere or at 0 only; both contain q_a = 0.
    The label-b bound need_b(u) - (u - r_a) <= min(q_a, r_a) rearranges
    to need_b(u) <= min(u, r_b), a prefix of u by the same argument,
    so a suffix of q_a.  A prefix meets a suffix in an interval, found
    here with O(log q) evaluations of need per label.

    Overall spec.  need = need(q) does not depend on q_a, and the bound
    ceil((need - u + r_a) / 2) <= min(q_a, r_a) unfolds to
    need - q + r_a <= q_a <= q + r_a - need.
    """
    if not 0 <= r_a <= q:
        return 1, 0  # no correct count is feasible at any hypothesis
    if isinstance(spec, OverallSpec):
        need = min_count_above(q, spec.threshold, spec.strict)
        return max(0, need - q + r_a), min(q, q + r_a - need)
    r_b = q - r_a
    t_a, t_b, strict = spec.threshold_a, spec.threshold_b, spec.strict
    last = _last_true(lambda t: min_count_above(t, t_a, strict) <= min(t, r_a), q)
    span_b = _last_true(lambda u: min_count_above(u, t_b, strict) <= min(u, r_b), q)
    return q - span_b, last


@dataclass(frozen=True)
class QaSlice:
    """Alarm state at one hypothesis for the number of true-a items.

    ``intervals_a``/``intervals_b`` are the per-classifier feasible
    correctness intervals (roster order of the trace).  ``safe_exists``
    says whether some ground truth at this hypothesis would let every
    audited classifier meet the requirement; with ``refined`` set, the
    cross-classifier coupling constraints were enforced too, otherwise
    each classifier was judged on its own.
    """

    q_a: int
    intervals_a: tuple[IntInterval, ...]
    intervals_b: tuple[IntInterval, ...]
    safe_exists: bool
    refined: bool = False


@dataclass(frozen=True)
class AlarmTrace:
    """Full record of one alarm run."""

    q: int
    spec: SafetySpec
    mode: str
    classifiers: tuple[str, ...]
    slices: tuple[QaSlice, ...]
    verdict: Verdict

    def __post_init__(self) -> None:
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        object.__setattr__(self, "slices", tuple(self.slices))

    @property
    def is_complete(self) -> bool:
        return [s.q_a for s in self.slices] == list(range(self.q + 1))


def _greedy_pass(
    safe: Sequence[IntInterval], bounds: Mapping[tuple[int, int], PairBounds]
) -> bool:
    """One greedy pass in roster order: each classifier takes the lowest
    count in its safe interval that the pair bounds allow, given the
    counts already taken.  True means those counts are a witness; False
    only means this pass dead-ended.  O(N^2)."""
    chosen: list[int] = []
    for k, iv in enumerate(safe):
        lo, hi = iv.lo, iv.hi
        for i, x in enumerate(chosen):
            b = bounds[i, k]
            lo = max(lo, x - b.max_i_minus_j, b.min_sum - x)
            hi = min(hi, x + b.max_j_minus_i, b.max_sum - x)
        if lo > hi:
            return False
        chosen.append(lo)
    return True


def _octagon_feasible(
    safe: Sequence[IntInterval], bounds: Mapping[tuple[int, int], PairBounds]
) -> bool:
    """Do integer counts exist, each in its safe interval, that meet every
    pair's bounds?  Exact, O(N^3).

    The safe intervals and the :func:`pair_bounds` of every pair are unit
    two-variable inequalities (+-x_i +- x_j <= c), so this is integer
    octagon feasibility, decided by tight closure (Lahiri & Musuvathi,
    FroCoS 2005; Bagnara, Hill & Zaffanella, VMCAI 2008).  In the
    difference-bound matrix node 2k stands for +x_k and node 2k+1 for
    -x_k, and m[u][v] bounds V_v - V_u.  The system has a rational
    solution iff the shortest-path closure has no negative cycle.  A
    rational solution may still have no integer one: over the integers
    2 x_k <= c implies 2 x_k <= 2 floor(c / 2), and a closed, rationally
    consistent matrix has an integer solution iff, with every unary
    entry so tightened, m[2k][2k+1] + m[2k+1][2k] >= 0 for every k.
    Every entry starts at the bound the safe intervals imply by
    themselves, so the matrix is complete and all-integer: no infinity.
    """
    upper = [v for iv in safe for v in (iv.hi, -iv.lo)]  # of V_u, by node
    lower = [v for iv in safe for v in (iv.lo, -iv.hi)]
    n = len(upper)
    m = [[up - low for up in upper] for low in lower]
    for (i, j), b in bounds.items():
        pi, ni, pj, nj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
        for u, v, c in (
            (pj, pi, b.max_i_minus_j), (ni, nj, b.max_i_minus_j),
            (pi, pj, b.max_j_minus_i), (nj, ni, b.max_j_minus_i),
            (nj, pi, b.max_sum), (ni, pj, b.max_sum),
            (pj, ni, -b.min_sum), (pi, nj, -b.min_sum),
        ):
            m[u][v] = min(m[u][v], c)
    for k in range(n):  # Floyd-Warshall shortest-path closure
        row_k = m[k]
        for u in range(n):
            row_u = m[u]
            d = row_u[k]
            m[u] = [a if a <= d + b else d + b for a, b in zip(row_u, row_k)]
    if any(m[u][u] < 0 for u in range(n)):
        return False
    for u in range(n):  # tighten the unary entries
        m[u][u ^ 1] = 2 * (m[u][u ^ 1] // 2)
    return all(m[u][u ^ 1] + m[u ^ 1][u] >= 0 for u in range(0, n, 2))


def _pairwise_safe_exists(
    safe: Sequence[IntInterval], bounds: Mapping[tuple[int, int], PairBounds]
) -> bool:
    """Is there one ground truth putting every classifier in its safe
    interval, with every pair's coupling (:func:`pair_bounds`) enforced?

    For two classifiers the couplings are the whole story, so the answer
    is exact.  For three or more, only pairwise couplings are enforced; a
    True here can still be unrealizable by any single ground truth, so
    callers get a tightening of the independent check, never a
    loosening, and a False remains definitive.  The greedy pass answers
    most inputs in O(N^2); the closure decides the rest in O(N^3).
    """
    return _greedy_pass(safe, bounds) or _octagon_feasible(safe, bounds)


class _Sweep:
    """The one alarm sweep: everything a run needs that does not depend
    on the hypothesis, computed once.

    Each audited classifier's marginals are taken once, and so is its
    interval of hypotheses where it can meet the spec on its own
    (:func:`_safe_qa_bounds`).  Their intersection, ``window``, is
    exactly the set of unrefined-safe hypotheses.  With refinement the
    pair tables are taken once too, on the first hypothesis searched,
    and only hypotheses inside the window are searched, because a
    refined-safe hypothesis is also unrefined-safe.
    """

    def __init__(
        self,
        sketch: EvaluationSketch,
        spec: SafetySpec,
        ids: tuple[str, ...],
        refine: bool,
    ) -> None:
        q = sketch.q
        self.sketch, self.q, self.spec, self.ids = sketch, q, spec, ids
        self.refine = bool(refine)
        self.coupled = refine and len(ids) > 1
        self.margs = tuple(marginalize(sketch, cid) for cid in ids)
        lo, hi = 0, q
        for m in self.margs:
            first, last = _safe_qa_bounds(q, m.r_a, spec)
            lo, hi = max(lo, first), min(hi, last)
        self.window = IntInterval(lo, hi)

    @cached_property
    def tables(self) -> dict[tuple[int, int], Mapping[str, int]]:
        ids = self.ids
        return {
            (i, j): pair_counts(self.sketch, ids[i], ids[j])
            for i in range(len(ids))
            for j in range(i + 1, len(ids))
        }

    def is_safe(self, q_a: int) -> bool:
        if q_a not in self.window:
            return False
        if not self.coupled:
            return True
        need = safe_threshold(self.spec, self.q, q_a)
        safe = [_safe_subinterval(self.q, q_a, m, need) for m in self.margs]
        bounds = {ij: pair_bounds(q_a, table) for ij, table in self.tables.items()}
        return _pairwise_safe_exists(safe, bounds)

    def count_safe(self, lo: int, hi: int) -> int:
        """Safe hypotheses in [lo, hi]; closed form unless refining."""
        candidates = range(max(lo, self.window.lo), min(hi, self.window.hi) + 1)
        if not self.coupled:
            return len(candidates)
        return sum(map(self.is_safe, candidates))

    def slice(self, q_a: int) -> QaSlice:
        q, margs = self.q, self.margs
        return QaSlice(
            q_a,
            tuple(feasible_interval_label_a(q, q_a, m) for m in margs),
            tuple(feasible_interval_label_b(q, q_a, m) for m in margs),
            self.is_safe(q_a),
            self.refine,
        )


def _resolve_roster(
    sketch: EvaluationSketch, pair: Sequence[str] | None
) -> tuple[tuple[str, ...], str]:
    if pair is None:
        return sketch.classifiers, "ensemble"
    ids = tuple(pair)
    if len(ids) != 2 or ids[0] == ids[1]:
        raise SketchError("pair mode needs exactly two distinct classifier ids")
    for cid in ids:
        sketch.index_of(cid)
    return ids, "pair"


def _open_sweep(
    sketch: EvaluationSketch,
    spec: SafetySpec,
    pair: Sequence[str] | None,
    refine: bool,
) -> tuple[_Sweep, str]:
    problems = validate_sketch(sketch)
    if problems:
        raise SketchError("invalid sketch: " + "; ".join(problems))
    ids, mode = _resolve_roster(sketch, pair)
    return _Sweep(sketch, spec, ids, refine), mode


def run_alarm(
    sketch: EvaluationSketch,
    spec: SafetySpec,
    pair: Sequence[str] | None = None,
    refine: bool = False,
) -> AlarmTrace:
    """Judge every hypothesis and record the full trace, O(q·N).

    The alarm fires (verdict TRIGGERED) exactly when no hypothesis
    admits a ground truth under which all audited classifiers meet the
    requirement.
    """
    sweep, mode = _open_sweep(sketch, spec, pair, refine)
    slices = tuple(sweep.slice(q_a) for q_a in range(sketch.q + 1))
    verdict = (
        Verdict.NOT_TRIGGERED if any(s.safe_exists for s in slices) else Verdict.TRIGGERED
    )
    return AlarmTrace(sketch.q, spec, mode, sweep.ids, slices, verdict)


def count_safe_hypotheses(
    sketch: EvaluationSketch,
    spec: SafetySpec,
    pair: Sequence[str] | None = None,
    refine: bool = False,
    qa_range: tuple[int, int] | None = None,
) -> int:
    """Number of safe hypotheses in ``qa_range`` (default all), without
    the trace.  O(N·patterns + N log q) unless refining."""
    sweep, _ = _open_sweep(sketch, spec, pair, refine)
    lo, hi = check_qa_range(sketch.q, qa_range if qa_range is not None else (0, sketch.q))
    return sweep.count_safe(lo, hi)


def check_qa_range(q: int, qa_range: tuple[int, int]) -> tuple[int, int]:
    """``qa_range`` as (lo, hi) if 0 <= lo <= hi <= q, else SketchError."""
    lo, hi = qa_range
    if not (0 <= lo <= hi <= q):
        raise SketchError(f"bad hypothesis range [{lo}, {hi}] for q={q}")
    return lo, hi
