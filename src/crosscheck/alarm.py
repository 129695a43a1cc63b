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
import sys
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, islice, product, repeat
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from . import _on_first_use
from .model import (
    EvaluationSketch,
    IntInterval,
    Marginals,
    OverallSpec,
    PerLabelSpec,
    SafetySpec,
    SketchError,
    _is_int,
    _is_ints,
    _roster,
    _Value,
    marginalize,
    pair_counts,
    validate_sketch,
)

# Only AlarmTrace.slices calls the interval functions, so axioms is
# imported on their first use, through this module's __getattr__; slices
# looks them up on the module (``_alarm.feasible_interval_label_a``), so
# that a replacement set on ``crosscheck.alarm`` is the one it calls.
__getattr__ = _on_first_use(
    globals(), {"axioms": ("feasible_interval_label_a", "feasible_interval_label_b")}
)
_alarm = sys.modules[__name__]


class Verdict(enum.Enum):
    TRIGGERED = "triggered"
    NOT_TRIGGERED = "not_triggered"


def min_count_above(
    total: int, threshold: Fraction | int, strict: bool = True
) -> int:
    """Smallest correct count on ``total`` items whose accuracy clears a
    threshold.

    With ``strict`` the accuracy must exceed the threshold, otherwise
    meeting it is enough.  An empty item set needs nothing.  The result
    can exceed ``total`` (an unmeetable requirement, e.g. strictly above
    1), which callers observe as an empty safe interval.  Integer
    arithmetic on the threshold's numerator and denominator, so it must
    be an ``int`` or a ``Fraction``, never a float or a bool.
    """
    if total < 0:
        raise SketchError("total must be non-negative")
    if type(threshold) not in (int, Fraction):
        raise SketchError(f"threshold must be an int or a Fraction, not {threshold!r}")
    if total == 0:
        return 0
    numerator, denominator = threshold.as_integer_ratio()
    # the least m with m * d > n * total, or >= when not strict
    return max(0, (numerator * total - (0 if strict else 1)) // denominator + 1)


def _last_safe(q: int, r: int, threshold: Fraction, strict: bool) -> int:
    """Largest t in [0, q] with min_count_above(t, threshold, strict) <=
    min(t, r), for 0 <= r <= q and a threshold n/d in [0, 1]; every t up
    to it qualifies too.

    t = 0 always qualifies.  For t > 0, write the threshold n/d.  Strict,
    need(t) = n t // d + 1 <= min(t, r) is n t < r d and n t < d t: no t
    when n = d or r = 0, every t when n = 0, else t <= (r d - 1) // n.
    Not strict, need(t) = ceil(n t / d) <= min(t, r) is n t <= r d (and
    n <= d, which holds): every t when n = 0, else t <= r d // n.
    """
    n, d = threshold.as_integer_ratio()
    if strict and (n == d or r == 0):
        return 0
    if n == 0:
        return q
    return min(q, (r * d - (1 if strict else 0)) // n)


def _safe_qa_bounds(q: int, r_a: int, spec: SafetySpec) -> tuple[int, int]:
    """First and last hypothesis q_a at which one classifier, saying "a"
    ``r_a`` of ``q`` times (its callers check 0 <= r_a <= q first), can
    meet the spec on its own; first > last when none.

    The hypotheses where its safe subinterval (the counts in
    :func:`feasible_interval_label_a` that meet the spec) is non-empty
    form an interval.  Proof: write u = q - q_a for the number of true-b
    items and r_b = q - r_a.  With 0 <= r_a <= q the feasibility bound
    max(0, r_a - u) never exceeds the upper end min(q_a, r_a), so the
    subinterval is non-empty iff every spec bound stays at or below
    min(q_a, r_a).

    Per-label spec.  The label-a bound is need_a(q_a) <= min(q_a, r_a).
    The label-b bound need_b(u) - (u - r_a) <= min(q_a, r_a) rearranges
    to need_b(u) <= min(u, r_b).  By :func:`_last_safe` the first holds
    exactly for q_a <= last(r_a, T_a) and the second for u <= last(r_b,
    T_b), that is q_a >= q - last(r_b, T_b): two closed-form ends.

    Overall spec.  need = need(q) does not depend on q_a, and the bound
    ceil((need - u + r_a) / 2) <= min(q_a, r_a) unfolds to
    need - q + r_a <= q_a <= q + r_a - need.
    """
    if isinstance(spec, OverallSpec):
        need = min_count_above(q, spec.threshold, spec.strict)
        return max(0, need - q + r_a), min(q, q + r_a - need)
    strict = spec.strict
    return (
        q - _last_safe(q, q - r_a, spec.threshold_b, strict),
        _last_safe(q, r_a, spec.threshold_a, strict),
    )


def _window(q: int, margs: Sequence[Marginals], spec: SafetySpec) -> tuple[int, int]:
    """First and last unrefined-safe hypothesis, the intersection of each
    classifier's :func:`_safe_qa_bounds` within [0, q]; first > last when
    none.  For totals in [0, q] the last is at least -1 (the threshold
    lies in [0, 1]), so ``safe[last + 1:]`` is every flag after it."""
    if not isinstance(spec, SafetySpec):
        raise SketchError(f"spec must be a PerLabelSpec or OverallSpec, not {type(spec).__name__}")
    lo, hi = 0, q
    for m in margs:
        first, last = _safe_qa_bounds(q, m.r_a, spec)
        lo, hi = max(lo, first), min(hi, last)
    return lo, hi


class QaSlice(NamedTuple):
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


class AlarmTrace(_Value):
    """Full record of one alarm run, as columns: each audited classifier's
    response totals (``marginals``, roster order), one safe flag per
    hypothesis q_a = 0..q (``safe``), and whether the pairs were enforced
    (``refined``).  Every feasible interval follows from the totals in
    closed form, so none is stored; :attr:`slices` builds them as
    :class:`QaSlice` objects, and :meth:`columns` as spelled ints.

    The constructor refuses, with SketchError, any columns that no run
    gives: it needs an int q >= 1, a tuple of distinct non-empty string
    ids (two in "pair" mode), a tuple of each classifier's int totals of q
    items, a bool ``refined``, and a tuple of q + 1 bool safe flags inside
    the window of unrefined-safe hypotheses, which they fill unless the
    pairs were enforced on two or more classifiers
    (:meth:`_Sweep.safe_hypotheses`).
    """

    q: int
    spec: SafetySpec
    mode: str
    classifiers: tuple[str, ...]
    marginals: tuple[Marginals, ...]
    safe: tuple[bool, ...]
    refined: bool

    def __init__(
        self,
        q: int,
        spec: SafetySpec,
        mode: str,
        classifiers: tuple[str, ...],
        marginals: tuple[Marginals, ...],
        safe: tuple[bool, ...],
        refined: bool,
    ) -> None:
        ids, margs = classifiers, marginals
        if not isinstance(ids, tuple) or not all(isinstance(c, str) and c for c in ids):
            raise SketchError("a trace's classifier ids must be a tuple of non-empty strings")
        if not (isinstance(margs, tuple) and isinstance(safe, tuple)):
            raise SketchError("a trace's totals and safe flags must be tuples")
        if not _is_int(q) or q < 1 or not ids or len(set(ids)) != len(ids):
            raise SketchError("a trace needs an int q >= 1 and distinct classifiers, at least one")
        if mode != "ensemble" and (mode != "pair" or len(ids) != 2):
            raise SketchError(f"mode {mode!r}: want 'ensemble', or 'pair' for two ids")
        if len(safe) != q + 1:
            raise SketchError(f"trace holds {len(safe)} slices, not {q + 1}")
        if not {*map(type, safe)} <= {bool} or type(refined) is not bool:
            raise SketchError("a trace's safe flags and its refined flag must be bools")
        if len(margs) != len(ids) or not all(
            isinstance(m, Marginals) and _is_ints(m) and min(m) >= 0 and sum(m) == q
            for m in margs
        ):
            raise SketchError(f"a trace needs each classifier's totals of {q} items")
        lo, hi = _window(q, margs, spec)
        if any(safe[:lo]) or any(safe[hi + 1 :]):
            raise SketchError("a safe flag lies outside the unrefined-safe hypotheses")
        if not (refined and len(ids) > 1 or all(safe[lo : hi + 1])):
            raise SketchError("the safe flags leave unrefined-safe hypotheses unsafe")
        self._store(q, spec, mode, ids, margs, safe, refined)

    @property
    def verdict(self) -> Verdict:
        return Verdict.NOT_TRIGGERED if any(self.safe) else Verdict.TRIGGERED

    @cached_property
    def slices(self) -> tuple[QaSlice, ...]:
        q, margs = self.q, self.marginals
        return tuple(
            QaSlice(
                q_a,
                tuple(_alarm.feasible_interval_label_a(q, q_a, m) for m in margs),
                tuple(_alarm.feasible_interval_label_b(q, q_a, m) for m in margs),
                safe,
                self.refined,
            )
            for q_a, safe in enumerate(self.safe)
        )

    def columns(self) -> list[Iterable]:
        """The slices column by column, each an iterable over q_a = 0..q to
        be read once: q_a, the lo and hi ends of every classifier's label-a
        interval in roster order, the same for label b, then safe_exists.
        The ints come spelled, each column a spelled value repeated beside
        a run of one spelled 0..q.  The trace writers read only this."""
        digits, ends_a, ends_b = list(map(str, range(self.q + 1))), [], []
        for r_a, r_b in self.marginals:  # 0 <= r_a = q - r_b <= q
            # max(0, r_a - q + q_a) and min(q_a, r_a) for q_a = 0..q
            ends_a.append(chain(repeat("0", r_b), islice(digits, r_a + 1)))
            ends_a.append(chain(islice(digits, r_a), repeat(digits[r_a], r_b + 1)))
            # max(0, r_b - q_a) and min(q - q_a, r_b): r_b down to 1, or to 0
            ends_b.append(chain(islice(reversed(digits), r_a, r_a + r_b), repeat("0", r_a + 1)))
            ends_b.append(chain(repeat(digits[r_b], r_a), islice(reversed(digits), r_a, None)))
        return [digits, *ends_a, *ends_b, self.safe]


# a term a*h + b + sum of g * floor((n*h + c) / d) in the hypothesis h, all
# ints, d > 0, as (a, b, ((g, n, c, d), ...))
_Term = tuple[int, int, tuple[tuple[int, int, int, int], ...]]


def _at(term: _Term, h: int) -> int:
    a, b, floors = term
    return a * h + b + sum(g * ((n * h + c) // d) for g, n, c, d in floors)


def _floor_term(a: int, b: int, g: int, n: int, c: int, d: int) -> _Term:
    """a*h + b + g*floor((n*h + c) / d) with c reduced mod d, so that two
    terms that differ by a constant differ only in b."""
    return a, b + g * (c // d), ((g, n, c % d, d),)


def _never_binds(condition: _Term, first: int, last: int) -> bool:
    """Is the condition's affine upper envelope at most 0 at ``first`` and
    at ``last``, so the condition at most 0 on all of [first, last]?  The
    envelope bounds g*floor(m/d) by g*m/d for g > 0 and by
    g*(m - d + 1)/d for g < 0, scaled here by the lcm of the
    denominators to stay in ints."""
    a, b, floors = condition
    scale = lcm(*(d for *_, d in floors))
    return all(
        (a * h + b) * scale
        + sum(g * (n * h + c - (d - 1 if g < 0 else 0)) * (scale // d) for g, n, c, d in floors)
        <= 0
        for h in (first, last)
    )


def _class_run(conditions: Sequence[_Term], rho: int, period: int, last: int) -> range:
    """The hypotheses rho + k*period <= ``last``, k >= 0, at which every
    condition is at most 0, as one range: ``period`` is a multiple of
    every denominator, so each condition moves by one int step per k."""
    k_lo, k_hi = 0, (last - rho) // period
    for condition in conditions:
        at = _at(condition, rho)
        step = _at(condition, rho + period) - at
        if step > 0:
            k_hi = min(k_hi, -at // step)
        elif step < 0:
            k_lo = max(k_lo, -(at // step))
        elif at > 0:
            k_hi = -1
    if k_lo > k_hi:
        return range(0)
    return range(rho + k_lo * period, rho + k_hi * period + 1, period)


class _Sweep:
    """The one alarm sweep: everything a run needs that does not depend
    on the hypothesis, computed once, then the safe hypotheses in ints.

    The sketch is validated and the roster resolved; each audited
    classifier's marginals are taken once, and so is its interval of
    hypotheses where it can meet the spec on its own
    (:func:`_safe_qa_bounds`).  Their intersection, ``window``, is
    exactly the set of unrefined-safe hypotheses.  Refinement searches
    only the window, because a refined-safe hypothesis is also
    unrefined-safe, and judges no hypothesis on its own: the pair rule of
    :meth:`safe_hypotheses` becomes a few quasi-affine conditions in the
    hypothesis, solved once per residue class of their period.  For two
    classifiers the couplings are the whole story, so the refined answer
    is exact; for three or more only pairwise couplings are enforced,
    which tightens the unrefined alarm and never loosens it.
    """

    def __init__(
        self,
        sketch: EvaluationSketch,
        spec: SafetySpec,
        pair: Sequence[str] | None,
        refine: bool,
    ) -> None:
        problems = validate_sketch(sketch)
        if problems:
            raise SketchError("invalid sketch: " + "; ".join(problems))
        q, (ids, self.mode) = sketch.q, _resolve_roster(sketch, pair)
        self.sketch, self.q, self.spec, self.ids = sketch, q, spec, ids
        self.refine = bool(refine)
        self.coupled = refine and len(ids) > 1
        self.margs = tuple(marginalize(sketch, cid) for cid in ids)
        self.window = IntInterval(*_window(q, self.margs, spec))

    def _lower_terms(self) -> list[tuple[_Term, ...]]:
        """For each classifier, the terms whose max is the lower end of its
        safe interval at a hypothesis h in [1, q - 1].

        A classifier right on x of the h true-a items is right on
        x + u - r_a of the u = q - h true-b ones; its feasible x run from
        max(0, r_a - u) to min(h, r_a) (feasible_interval_label_a), and
        the spec's minimums (min_count_above) raise the lower end.  For
        t >= 1, min_count_above(t, n/d) is floor(n t / d) + 1 strict and
        -floor(-n t / d) otherwise, and here both h and u are at least 1.
        """
        q, spec, r_as = self.q, self.spec, [m.r_a for m in self.margs]
        if isinstance(spec, PerLabelSpec):
            # need_a(h), and need_b(u) - u + r_a, which clear 0 and r_a - u
            # because min_count_above(t, n/d) = -s floor(-s n t / d) - e >= 0
            s, e = (-1, -1) if spec.strict else (1, 0)
            n_a, d_a = spec.threshold_a.as_integer_ratio()
            n_b, d_b = spec.threshold_b.as_integer_ratio()
            need_a = _floor_term(0, -e, -s, -s * n_a, 0, d_a)
            return [
                (need_a, _floor_term(1, r_a - q - e, -s, s * n_b, -s * n_b * q, d_b))
                for r_a in r_as
            ]
        # 0, r_a - u, and x + (x + u - r_a) >= need: ceil((need - u + r_a) / 2)
        need = min_count_above(q, spec.threshold, spec.strict)
        return [
            ((0, 0, ()), (1, r_a - q, ()), _floor_term(0, 0, -1, -1, q - r_a - need, 2))
            for r_a in r_as
        ]

    def safe_hypotheses(self, lo: int, hi: int) -> list[range]:
        """The safe hypotheses in [lo, hi] as ranges: the window's, in
        closed form, unless refining; else those of the window that the
        pair rule keeps, one range with step P per residue class mod P.

        The pair rule.  At a hypothesis h let classifier k's safe interval
        be [L_k, U_k], U_k = min(h, r_k), and let n_aa^ij count the items
        on which both i and j said "a".  Integer counts x_k in [L_k, U_k]
        that meet, at h, the four bounds of every pair's table n_aa..n_bb,

            x_i - x_j <= n_ab,   x_j - x_i <= n_ba,
            h - n_bb <= x_i + x_j <= h + n_aa,

        exist iff every interval is non-empty and L_i + L_j <= h + n_aa^ij
        for every pair.  The four bounds are the cross comparisons of the
        pair's window of joint true-a counts (see
        :func:`.axioms.point_axiom_violations`),
        max(0, x_i - n_ab, x_j - n_ba, x_i + x_j - h) <=
        min(n_aa, x_i, x_j, n_bb - h + x_i + x_j): x_i - n_ab <= x_j,
        x_j - n_ba <= x_i, 0 <= n_bb - h + x_i + x_j and
        x_i + x_j - h <= n_aa.

        Only if: x >= L, and x_i + x_j <= h + n_aa^ij is a pair bound.

        If, over the rationals.  Every constraint but the lower ends holds at
        every real truth split at h: its counts lie in [0, min(h, r_k)], and
        its joint true-a count lies in each pair's window, so the window is not
        empty and its four cross comparisons hold.  Take the difference-bound
        matrix with one edge per constraint, node +x_k and node -x_k per
        classifier; k's lower end is the edge +x_k -> -x_k, of weight -2 L_k.
        Cut any cycle at its lower-end edges.  Each remaining path runs from
        some -x_a to some +x_b and sums to x_a + x_b <= c.  Every real split
        meets that, so c >= min(2h, r_a + r_b, h + n_aa^ab) (fill the true-a
        items into the "aa" items first), or c >= 2 U_a when a = b.  Charge
        half of each -2 L_k to each neighbouring path: the cycle weighs the sum
        of c - L_a - L_b >= 0.  A cycle with no lower-end edge weighs >= 0
        because real splits meet it.  So no cycle is negative.

        If, over the integers.  A shortest path from -x_k to +x_k with no
        lower-end edge weighs >= 2 U_k, the edge of k's upper end.
        Otherwise its first and last paths give x_k + x_a <= c1 and
        x_b + x_k <= c2, so it weighs >= (c1 - L_a) + (c2 - L_b) >=
        2 min(c1 - L_a, c2 - L_b), the weight of an even path: one of
        those paths, then the lower-end edge, then the path's coherent
        mirror.  The same holds from +x_k to -x_k.  So every unary bound
        of the closure is even, tightening changes nothing (Lahiri &
        Musuvathi, FroCoS 2005), and the rational point gives an integer
        one.

        The sweep.  h = 0 and h = q are safe whenever they lie in the
        window: there x = 0, and x_k = r_k, meet every pair.  On
        [1, q - 1] each L_k is the max of :meth:`_lower_terms`, so the
        rule says F(h) = t_i(h) + t_j(h) - h - n_aa^ij <= 0 for every
        pair and each term t_i of L_i and t_j of L_j.  Of the conditions
        that differ only in their constant, the largest constant is kept;
        a condition whose affine upper envelope is at most 0 at both ends
        of the searched hypotheses never binds (:func:`_never_binds`) and
        is dropped.  With P the lcm of the denominators that remain (1 if
        none), floor((n (h + P) + c) / d) = floor((n h + c) / d) + n P / d,
        so F(rho + k P) = F(rho) + k (F(rho + P) - F(rho)) exactly: along
        each residue class rho the conditions hold on one interval of k,
        which one int division per condition finds (:func:`_class_run`).
        Ints only: O(N^2) to build the conditions, then O(C) for each of
        min(P, window) classes, for C conditions, whatever q is.
        """
        candidates = range(max(lo, self.window.lo), min(hi, self.window.hi) + 1)
        if not (self.coupled and candidates):
            return [candidates]
        q, ids, lows = self.q, self.ids, self._lower_terms()
        largest: dict[tuple, int] = {}  # (slope, floors) of a condition -> its constant
        for i, j in combinations(range(len(ids)), 2):
            n_aa = pair_counts(self.sketch, ids[i], ids[j])["aa"]
            for (a_i, b_i, f_i), (a_j, b_j, f_j) in product(lows[i], lows[j]):
                key, b = (a_i + a_j - 1, tuple(sorted(f_i + f_j))), b_i + b_j - n_aa
                largest[key] = max(b, largest.get(key, b))
        first, last = max(candidates.start, 1), min(candidates.stop - 1, q - 1)
        binding = [
            (a, b, floors)
            for (a, floors), b in largest.items()
            if not _never_binds((a, b, floors), first, last)
        ]
        period = lcm(*(d for *_, floors in binding for *_, d in floors))
        runs = [range(h, h + 1) for h in (0, q) if h in candidates]
        for rho in range(first, min(first + period, last + 1)):
            runs.append(_class_run(binding, rho, period, last))
        return runs


def _resolve_roster(
    sketch: EvaluationSketch, pair: Sequence[str] | None
) -> tuple[tuple[str, ...], str]:
    if pair is None:
        return sketch.classifiers, "ensemble"
    if isinstance(pair, (list, tuple)) and len(pair) == 2 and pair[0] == pair[1]:
        _roster(pair[:1])  # an id that is no id keeps the roster's message
        raise SketchError(f"pair mode needs two distinct classifier ids, got {pair[0]!r} twice")
    ids = _roster(pair)
    if len(ids) != 2:
        raise SketchError("pair mode needs exactly two distinct classifier ids")
    for cid in ids:
        sketch.index_of(cid)
    return ids, "pair"


def run_alarm(
    sketch: EvaluationSketch,
    spec: SafetySpec,
    pair: Sequence[str] | None = None,
    refine: bool = False,
) -> AlarmTrace:
    """Judge every hypothesis and record the full trace.

    The alarm fires (verdict TRIGGERED) exactly when no hypothesis
    admits a ground truth under which all audited classifiers meet the
    requirement.  The trace holds columns (see :class:`AlarmTrace`), so
    beyond the safe set it costs O(q) flags.
    """
    sweep = _Sweep(sketch, spec, pair, refine)
    safe = [False] * (sketch.q + 1)
    for run in sweep.safe_hypotheses(0, sketch.q):
        safe[run.start:run.stop:run.step] = repeat(True, len(run))
    return AlarmTrace(
        sketch.q, spec, sweep.mode, sweep.ids, sweep.margs, tuple(safe), sweep.refine
    )


def count_safe_hypotheses(
    sketch: EvaluationSketch,
    spec: SafetySpec,
    pair: Sequence[str] | None = None,
    refine: bool = False,
    qa_range: tuple[int, int] | None = None,
) -> int:
    """Number of safe hypotheses in ``qa_range`` (default all), without
    the trace.  O(N·patterns) unless refining.  Refining adds the pair
    tables and O(N^2) conditions, then O(C) integer steps for each of at
    most P residue classes, for the C conditions that can bind and P the
    lcm of their denominators, which divides the lcm of the thresholds'
    denominators (2 for an overall spec), whatever q is; the count sums
    the classes' lengths (:meth:`_Sweep.safe_hypotheses`)."""
    sweep = _Sweep(sketch, spec, pair, refine)
    lo, hi = check_qa_range(sketch.q, qa_range if qa_range is not None else (0, sketch.q))
    return sum(map(len, sweep.safe_hypotheses(lo, hi)))


def check_qa_range(q: int, qa_range: tuple[int, int]) -> tuple[int, int]:
    """``qa_range`` as (lo, hi) if 0 <= lo <= hi <= q, else SketchError."""
    lo, hi = qa_range
    if not (0 <= lo <= hi <= q):
        raise SketchError(f"bad hypothesis range [{lo}, {hi}] for q={q}")
    return lo, hi
