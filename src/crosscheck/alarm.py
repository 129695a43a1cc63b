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
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import lcm
from typing import Iterator, Mapping, NamedTuple, Sequence

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
    _is_int,
    _is_ints,
    _roster,
    _Value,
    marginalize,
    pair_counts,
    validate_sketch,
)


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
    if strict:
        return numerator * total // denominator + 1
    return max(0, -(-numerator * total // denominator))


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
    :class:`QaSlice` objects, and :meth:`rows` as plain ints.

    The constructor refuses, with SketchError, any columns that no run
    gives: it needs an int q >= 1, a tuple of distinct string ids (two in
    "pair" mode), each classifier's int totals of q items, and q + 1 safe flags
    inside the window of unrefined-safe hypotheses, which they fill unless
    the pairs were enforced on two or more classifiers
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
        if not isinstance(ids, tuple) or not all(isinstance(c, str) for c in ids):
            raise SketchError("a trace's classifier ids must be a tuple of strings")
        if not _is_int(q) or q < 1 or not ids or len(set(ids)) != len(ids):
            raise SketchError("a trace needs an int q >= 1 and distinct classifiers, at least one")
        if mode != "ensemble" and (mode != "pair" or len(ids) != 2):
            raise SketchError(f"mode {mode!r}: want 'ensemble', or 'pair' for two ids")
        if len(safe) != q + 1:
            raise SketchError(f"trace holds {len(safe)} slices, not {q + 1}")
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
                tuple(feasible_interval_label_a(q, q_a, m) for m in margs),
                tuple(feasible_interval_label_b(q, q_a, m) for m in margs),
                safe,
                self.refined,
            )
            for q_a, safe in enumerate(self.safe)
        )

    def rows(self) -> Iterator[tuple]:
        """Each slice as one tuple of plain values: q_a, the lo and hi ends
        of every classifier's label-a interval in roster order, the same
        for label b, then safe_exists and refined.  The trace writers read
        only this."""
        q, ends_a, ends_b = self.q, [], []
        for r_a, r_b in self.marginals:  # 0 <= r_a = q - r_b <= q
            # max(0, r_a - q + q_a) and min(q_a, r_a) for q_a = 0..q
            ends_a.append(chain(repeat(0, q - r_a), range(r_a + 1)))
            ends_a.append(chain(range(r_a), repeat(r_a, q - r_a + 1)))
            # max(0, r_b - q_a) and min(q - q_a, r_b)
            ends_b.append(chain(range(r_b, 0, -1), repeat(0, q - r_b + 1)))
            ends_b.append(chain(repeat(r_b, q - r_b), range(r_b, -1, -1)))
        return zip(range(q + 1), *ends_a, *ends_b, self.safe, repeat(self.refined))


# each classifier's safe interval as (lo, hi), and each pair's pair_bounds
_Ends = Sequence[tuple[int, int]]
_Bounds = Mapping[tuple[int, int], PairBounds]


def _greedy_pass(safe: _Ends, bounds: _Bounds, shift: int) -> int:
    """One greedy pass in roster order: each classifier takes the lowest
    count in its safe interval (lo, hi) that the pair bounds allow, given
    the counts already taken.  Both sum bounds of :func:`pair_bounds`
    move by exactly the hypothesis, so ``bounds`` taken at hypothesis h
    serve hypothesis h + ``shift``.  If those counts are a witness, the
    result is the pass's slack: the least hi - lo at any classifier's
    turn, so at least 0; -1 only means this pass dead-ended.  O(N^2)."""
    chosen: list[int] = []
    slack: list[int] = []
    for k, (lo, hi) in enumerate(safe):
        for i, x in enumerate(chosen):
            max_i_minus_j, max_j_minus_i, min_sum, max_sum = bounds[i, k]
            lo = max(lo, x - max_i_minus_j, min_sum + shift - x)
            hi = min(hi, x + max_j_minus_i, max_sum + shift - x)
        if lo > hi:
            return -1
        chosen.append(lo)
        slack.append(hi - lo)
    return min(slack)


def _octagon_feasible(
    safe: _Ends, bounds: _Bounds, shift: int
) -> tuple[bool, tuple[int, ...]]:
    """Do integer counts exist, each in its safe interval (lo, hi), that
    meet every pair's bounds (shifted as in :func:`_greedy_pass`)?
    Exact, O(N^3).  The answer comes with a cycle: () unless the system
    has no rational solution, else a simple negative cycle of the matrix
    as built, its nodes in edge order (see :func:`_cycle_weight`).

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

    The cycle is read off the matrix as built, by walk length: walks[k][v]
    is the least weight of a k-edge walk ending at v, whose last edge
    leaves before[k][v].  With a negative cycle the least walks never stop
    falling, so at some end the least n-edge walk beats every shorter one.
    Each cycle on it is negative, because cutting it out leaves a shorter
    walk to that end, and the first node it repeats closes a simple one.
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
    built = m[:]  # the closure replaces rows and never edits one
    for k in range(n):  # Floyd-Warshall shortest-path closure
        row_k = m[k]
        for u in range(n):
            row_u = m[u]
            d = row_u[k]
            m[u] = [a if a <= d + b else d + b for a, b in zip(row_u, row_k)]
    if any(m[u][u] < 0 for u in range(n)):
        walks, before = [[0] * n], [None]
        for _ in range(n):
            last = walks[-1]
            best = [min((last[u] + built[u][v], u) for u in range(n)) for v in range(n)]
            walks.append([w for w, _ in best])
            before.append([u for _, u in best])
        end = next(v for v in range(n) if walks[n][v] < min(w[v] for w in walks[:n]))
        back = [end]  # the walk's nodes from its end back to its start
        for k in range(n, 0, -1):
            back.append(before[k][back[-1]])
        again = next(i for i, v in enumerate(back) if v in back[:i])
        return False, tuple(reversed(back[back.index(back[again]):again]))
    for u in range(n):  # tighten the unary entries
        m[u][u ^ 1] = 2 * (m[u][u ^ 1] // 2)
    return all(m[u][u ^ 1] + m[u ^ 1][u] >= 0 for u in range(0, n, 2)), ()


def _pair_bound(u: int, v: int, bounds: _Bounds) -> tuple[int, int] | None:
    """The pair bound on the edge u -> v of the matrix that
    :func:`_octagon_feasible` builds, as (slope, constant): its value at
    shift h is slope * h + constant.  None when both nodes stand for one
    classifier."""
    i, j = u >> 1, v >> 1
    if i == j:
        return None
    # the pair (a, b) = (min(i, j), max(i, j)) as in pair_bounds
    max_a_minus_b, max_b_minus_a, min_sum, max_sum = bounds[min(i, j), max(i, j)]
    if u & 1 == v & 1:  # x_j - x_i, or x_i - x_j if both are negated
        return 0, max_b_minus_a if (i < j) != (u & 1) else max_a_minus_b
    return (1, max_sum) if u & 1 else (-1, -min_sum)  # x_i + x_j, or -x_i - x_j


def _cycle_weight(cycle: Sequence[int], safe: _Ends, bounds: _Bounds, shift: int) -> int:
    """Weight of a cycle of nodes, each edge u -> v to the next node (the
    last to the first), in the matrix that :func:`_octagon_feasible`
    builds from ``safe``, ``bounds`` and ``shift``.  O(length): each
    entry is recomputed on its own, as upper[v] - lower[u] from the safe
    ends, lowered by the one pair bound on that edge, if any."""
    weight = 0
    for u, v in zip(cycle, (*cycle[1:], cycle[0])):
        (lo_i, hi_i), (lo_j, hi_j) = safe[u >> 1], safe[v >> 1]
        entry = (-lo_j if v & 1 else hi_j) - (-hi_i if u & 1 else lo_i)
        pair = _pair_bound(u, v, bounds)
        if pair is not None:
            entry = min(entry, pair[0] * shift + pair[1])
        weight += entry
    return weight


# a term a*h + b + sum of g * floor((n*h + c) / d) in the hypothesis h, all
# ints, d > 0, as (a, b, ((g, n, c, d), ...))
_Term = tuple[int, int, tuple[tuple[int, int, int, int], ...]]


def _at(term: _Term, h: int) -> int:
    a, b, floors = term
    return a * h + b + sum(g * ((n * h + c) // d) for g, n, c, d in floors)


def _cycle_bound(
    cycle: Sequence[int], tops: Sequence[Sequence[_Term]], bounds: _Bounds, h0: int
) -> _Term:
    """F, the sum over ``cycle``'s edges of each entry's branch that is
    least at hypothesis h0: at least the cycle's weight at every
    hypothesis in [1, q - 1], and equal to it at h0 (the proof is in
    :meth:`_Sweep.safe_hypotheses`).  ``tops[w]`` are the terms whose
    least is upper[w], the matrix's bound on node w; -lower[u] is
    upper[u ^ 1]."""
    a, b, floors = 0, 0, ()
    for u, v in zip(cycle, (*cycle[1:], cycle[0])):
        branches = [
            (a1 + a2, b1 + b2, f1 + f2) for a1, b1, f1 in tops[v] for a2, b2, f2 in tops[u ^ 1]
        ]
        pair = _pair_bound(u, v, bounds)
        if pair is not None:
            branches.append((*pair, ()))
        a1, b1, f1 = min(branches, key=lambda term: _at(term, h0))
        a, b, floors = a + a1, b + b1, floors + f1
    return a, b, floors


def _refuted_until(bound: _Term, h0: int, end: int) -> int:
    """Where the sweep resumes, given a bound F below 0 at h0 < end: a
    hypothesis in (h0, end] before which F stays below 0 from h0 on.
    Within one period P of h0 (the lcm of F's denominators) it is the
    first where F is not below 0; after a whole period below 0 it is
    ``end`` if F's step per period is at most 0, else the end of the last
    whole period that the step keeps below 0.  O(P) evaluations of F."""
    period = lcm(*(d for *_, d in bound[2]))
    h, worst, scanned = h0, _at(bound, h0), min(end, h0 + period)
    while h < scanned and (weight := _at(bound, h)) < 0:
        worst, h = max(worst, weight), h + 1
    if h < h0 + period:
        return h
    delta = _at(bound, h0 + period) - _at(bound, h0)
    return end if delta <= 0 else min(end, h + period * ((-worst - 1) // delta))


class _Sweep:
    """The one alarm sweep: everything a run needs that does not depend
    on the hypothesis, computed once, then the safe hypotheses in ints.

    The sketch is validated and the roster resolved; each audited
    classifier's marginals are taken once, and so is its interval of
    hypotheses where it can meet the spec on its own
    (:func:`_safe_qa_bounds`).  Their intersection, ``window``, is
    exactly the set of unrefined-safe hypotheses.  Refinement searches
    only the window, because a refined-safe hypothesis is also
    unrefined-safe, in one loop with no object per hypothesis: each
    classifier's safe interval is an int expression of q_a, and each
    pair's :func:`pair_bounds` is taken once, at hypothesis 0, and
    shifted by q_a.  A greedy pass that finds counts settles a whole run
    of hypotheses; one that dead-ends leaves its hypothesis to the
    closure.  For two classifiers the couplings are the whole story, so
    the refined answer is exact; for three or more only pairwise
    couplings are enforced, which tightens the unrefined alarm and never
    loosens it.
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

    @cached_property
    def _tops(self) -> list[tuple[_Term, ...]]:
        """For each node of the matrix at a hypothesis h in [1, q - 1], the
        terms whose least is its upper bound: min(h, r_a) for +x_k, and
        the lower-end terms of :meth:`safe_hypotheses`, negated, for -x_k."""
        q, spec = self.q, self.spec
        per_label, tops = isinstance(spec, PerLabelSpec), []
        if per_label:  # for t >= 1, -min_count_above(t, n/d) = s * floor(-s n t / d) + e
            s, e = (-1, -1) if spec.strict else (1, 0)
            n_a, d_a = spec.threshold_a.as_integer_ratio()
            n_b, d_b = spec.threshold_b.as_integer_ratio()
        else:
            need = min_count_above(q, spec.threshold, spec.strict)
        for r_a in (m.r_a for m in self.margs):
            if per_label:  # -need_a(h), and -need_b(u) + u - r_a with u = q - h
                lows = ((0, e, ((s, -s * n_a, 0, d_a),)),
                        (-1, q - r_a + e, ((s, s * n_b, -s * n_b * q, d_b),)))
            else:  # -0, u - r_a and floor((u - r_a - need) / 2)
                lows = ((0, 0, ()), (-1, q - r_a, ()), (0, 0, ((1, -1, q - r_a - need, 2),)))
            tops += [((1, 0, ()), (0, r_a, ())), lows]
        return tops

    def safe_hypotheses(self, lo: int, hi: int) -> list[range]:
        """The safe hypotheses in [lo, hi] as runs, ranges in order: closed
        form unless refining, else the window's hypotheses that the pairs
        leave safe.

        Refining evaluates runs, not hypotheses: a greedy pass with slack
        S >= 0 at q_a also finds counts at each of the next S hypotheses
        of the window, which are marked safe unevaluated.  Proof.  Take a
        step q_a -> q_a + 1 inside the window, so u = q - q_a falls by 1.
        need(t) = min_count_above(t, T, strict) rises by 0 or 1 per step
        of t for 0 <= T <= 1, except need(1) - need(0) = 2 under a strict
        T = 1; but then need(t) <= t holds only at t = 0, so the window is
        {0} (threshold_a) or {q} (threshold_b) and holds no step.  So each
        term of a classifier's lower end rises by 0 or 1: need_a, and
        need_b - u + r_a (1 minus a step of need_b); overall,
        ceil((need - u + r_a) / 2), r_a - u and 0.  So does its upper end
        min(q_a, r_a).  Each pair's sum bounds rise by exactly 1, and its
        difference bounds do not move.  At classifier k's turn its ends
        are the max and the min of its own end and, for each count x_i
        taken before it, x_i - d or x_i + d and s + q_a - x_i.  If each
        such x_i rises by 0 or 1, so does each of these terms, so do both
        ends, and so does x_k, the lower one: by induction on k every
        slack moves by at most 1.  After n <= S steps each is still at
        least S - n >= 0, and the pass finds counts.

        A dead end's closure that finds no rational point hands back a
        negative cycle, and each later hypothesis first recomputes that
        cycle's weight from its own entries (:func:`_cycle_weight`,
        O(N)).  Still negative, it proves the hypothesis unsafe with no
        pass and no closure: the weight is a sum of the very entries the
        closure would build there, so no rational point exists there, let
        alone an integer one.  Not negative, the hypothesis is judged as
        above, and a new cycle, if any, replaces the old one.  Either way
        the safe set is the same; only the work differs.

        A cycle that still refutes a hypothesis h0 in [1, q - 1], the
        second in a row, settles a run from h0 on with no more re-weighing
        (:func:`_cycle_bound`, :func:`_refuted_until`).  A bound costs a
        few re-weighings, so a cycle that refutes only every other
        hypothesis, between safe ones, gets none.  Proof.  For t >= 1,
        min_count_above(t) is floor(n t / d) + 1 strict and
        -floor(-n t / d) otherwise; at t = 0 a strict one is 0, which is
        why h = 0 (t = h in need_a) and h = q (t = u in need_b) are left
        out.  So at each h in [1, q - 1] every term of
        the safe ends above is a h + b + sum g floor((n h + c) / d), all
        ints: a lower end is the max of such terms, an upper end the min.
        A pair's sum bounds, shifted by h, are such terms, and its
        difference bounds constants.  So each entry upper[v] - lower[u]
        of the cycle is a min over branches: a term of upper[v] plus one
        of -lower[u], or the edge's pair bound.  F, the sum over the edges
        of the branch least at h0, is at least the cycle's weight at every
        such h and equals it at h0, where it is below 0; at each h with
        F(h) < 0 the weight is below 0 too, and h is unsafe.  F is
        quasi-affine: with P the lcm of its denominators, F(h + P) - F(h)
        is one int, delta, for every h.  So scan h0, h0 + 1, ... while
        F < 0, for at most P steps, and resume the loop where the scan
        stops.  If a whole period stays below 0, with largest value w,
        each later h is j >= 1 periods past one in it, so F(h) <=
        w + j delta.  With delta <= 0 every later h up to q - 1 is unsafe;
        with delta > 0 so are the next k periods, for the largest k with
        w + k delta < 0.  Ints only, and O(L P) steps for a cycle of L
        edges, where re-weighing would take O(L) per hypothesis.
        """
        candidates = range(max(lo, self.window.lo), min(hi, self.window.hi) + 1)
        if not (self.coupled and candidates):
            return [candidates]
        q, spec, ids, r_as = self.q, self.spec, self.ids, [m.r_a for m in self.margs]
        bounds = {
            (i, j): pair_bounds(0, pair_counts(self.sketch, ids[i], ids[j]))
            for i in range(len(ids))
            for j in range(i + 1, len(ids))
        }
        per_label, strict = isinstance(spec, PerLabelSpec), spec.strict
        if not per_label:
            need = min_count_above(q, spec.threshold, strict)
        runs, q_a, stop, cycle, refuted = [], candidates.start, candidates.stop, (), -1
        while q_a < stop:
            # A classifier right on x of the q_a true-a items is right on
            # x + u - r_a of the u true-b ones; its feasible x run from
            # max(0, r_a - u) to min(q_a, r_a) (feasible_interval_label_a),
            # and the spec's minimums (min_count_above) raise the lower end.
            u = q - q_a
            if per_label:
                # min_count_above is never negative, so these clear 0 and
                # r_a - u: two terms fewer for the proof above to follow
                need_a = min_count_above(q_a, spec.threshold_a, strict)
                need_b = min_count_above(u, spec.threshold_b, strict)
                safe = [(max(need_a, need_b - u + r_a), min(q_a, r_a)) for r_a in r_as]
            else:  # x + (x + u - r_a) >= need
                safe = [(max(0, r_a - u, -((u - r_a - need) // 2)), min(q_a, r_a)) for r_a in r_as]
            if cycle and _cycle_weight(cycle, safe, bounds, q_a) < 0:
                # a bound only for a run: the hypothesis before was refuted too
                if q_a == refuted and 0 < q_a < q:
                    bound = _cycle_bound(cycle, self._tops, bounds, q_a)
                    q_a = _refuted_until(bound, q_a, min(stop, q))
                else:
                    q_a += 1
                refuted = q_a
                continue
            slack = _greedy_pass(safe, bounds, q_a)
            if slack >= 0:
                end = min(stop, q_a + 1 + slack)
                runs.append(range(q_a, end))
                q_a = end
                continue
            feasible, refutation = _octagon_feasible(safe, bounds, q_a)
            if feasible:
                runs.append(range(q_a, q_a + 1))
            cycle = refutation or cycle
            q_a += 1
        return runs


def _resolve_roster(
    sketch: EvaluationSketch, pair: Sequence[str] | None
) -> tuple[tuple[str, ...], str]:
    if pair is None:
        return sketch.classifiers, "ensemble"
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
        safe[run.start:run.stop] = repeat(True, len(run))
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
    the trace.  O(N·patterns) unless refining.  Refining costs one greedy
    pass, O(N^2), per run of safe hypotheses or dead end, one closure,
    O(N^3), per dead end that no kept cycle refutes, and O(L·P) integer
    steps per run that a cycle of L edges refutes, P dividing the lcm of
    the thresholds' denominators (2 for an overall spec), whatever q is
    (:meth:`_Sweep.safe_hypotheses`)."""
    sweep = _Sweep(sketch, spec, pair, refine)
    lo, hi = check_qa_range(sketch.q, qa_range if qa_range is not None else (0, sketch.q))
    return sum(map(len, sweep.safe_hypotheses(lo, hi)))


def check_qa_range(q: int, qa_range: tuple[int, int]) -> tuple[int, int]:
    """``qa_range`` as (lo, hi) if 0 <= lo <= hi <= q, else SketchError."""
    lo, hi = qa_range
    if not (0 <= lo <= hi <= q):
        raise SketchError(f"bad hypothesis range [{lo}, {hi}] for q={q}")
    return lo, hi
