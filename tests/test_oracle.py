import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosscheck import (
    EvaluationPoint,
    EvaluationSketch,
    LABEL_A,
    Marginals,
    SketchError,
    SummaryClaims,
    SummaryReport,
    all_patterns,
    check_summary,
    enumerate_evaluations,
    evaluation_count,
    feasible_interval_label_a,
    marginalize,
    pair_counts,
    point_axiom_violations,
    sketch_point,
)
from ._referees import (
    BudgetExceededError,
    enumerate_variety,
    induced_correct_b,
    meets_pair_bounds,
    split_combinations,
)
from ._strategies import ROSTER, sketches


class TestEnumeration:
    def test_small_counts(self):
        assert evaluation_count(0) == 1
        assert evaluation_count(1) == 4
        assert evaluation_count(2) == 10
        assert evaluation_count(3) == 20

    def test_count_matches_walk(self):
        for q in range(12):
            assert len(list(enumerate_evaluations(q))) == evaluation_count(q)

    def test_zero_items(self):
        points = list(enumerate_evaluations(0))
        assert points == [EvaluationPoint(0, (0,), (0,))]

    def test_negative_rejected(self):
        with pytest.raises(SketchError):
            list(enumerate_evaluations(-1))
        with pytest.raises(SketchError):
            evaluation_count(-1)

    def test_points_respect_bounds(self):
        for point in enumerate_evaluations(5):
            assert 0 <= point.q_a <= 5
            assert 0 <= point.correct_a[0] <= point.q_a
            assert 0 <= point.correct_b[0] <= 5 - point.q_a

    def test_no_duplicates(self):
        points = list(enumerate_evaluations(6))
        assert len(points) == len(set(points))


class TestVariety:
    def test_single_agreeing_item(self):
        sketch = EvaluationSketch(("u", "v"), 1, {"aa": 1})
        points = list(enumerate_variety(sketch))
        assert len(points) == 2
        truths = {vp.true_a_split["aa"] for vp in points}
        assert truths == {0, 1}

    def test_two_item_one_classifier(self):
        sketch = EvaluationSketch(("u",), 2, {"a": 1, "b": 1})
        assert len(list(enumerate_variety(sketch))) == 4

    def test_qa_filter(self):
        sketch = EvaluationSketch(("u", "v"), 3, {"aa": 2, "ab": 1})
        for q_a in range(4):
            for vp in enumerate_variety(sketch, q_a=q_a):
                assert vp.point.q_a == q_a
                assert sum(vp.true_a_split.values()) == q_a

    def test_split_combinations(self):
        sketch = EvaluationSketch(("u", "v"), 3, {"aa": 2, "ab": 1})
        assert split_combinations(sketch) == 3 * 2

    def test_budget(self):
        sketch = EvaluationSketch(("u",), 9, {"a": 4, "b": 5})
        with pytest.raises(BudgetExceededError):
            list(enumerate_variety(sketch, budget=20))
        assert len(list(enumerate_variety(sketch, budget=30))) == 30

    def test_invalid_sketch_rejected(self):
        bad = EvaluationSketch(("u",), 3, {"a": 1})
        with pytest.raises(SketchError):
            list(enumerate_variety(bad))

    def test_points_match_their_splits(self):
        sketch = EvaluationSketch(("u", "v"), 4, {"aa": 1, "ab": 2, "bb": 1})
        for vp in enumerate_variety(sketch):
            c_a = [0, 0]
            c_b = [0, 0]
            for pattern, n in sketch.counts.items():
                n_a = vp.true_a_split.get(pattern, 0)
                for k in range(2):
                    if pattern[k] == LABEL_A:
                        c_a[k] += n_a
                    else:
                        c_b[k] += n - n_a
            assert vp.point.correct_a == tuple(c_a)
            assert vp.point.correct_b == tuple(c_b)

    @given(sketches(max_count=3))
    @settings(max_examples=50)
    def test_never_empty_for_real_counts(self, sketch):
        # why check_summary needs no search to say a sound sketch is
        # realized, at all and at every prevalence
        assert next(enumerate_variety(sketch), None) is not None
        for q_a in range(sketch.q + 1):
            assert next(enumerate_variety(sketch, q_a=q_a), None) is not None

    @given(sketches(with_truth=True, max_count=3))
    @settings(max_examples=50, deadline=None)
    def test_realized_point_is_enumerated(self, sketch):
        real = sketch_point(sketch)
        found = any(
            vp.point == real
            for vp in enumerate_variety(sketch, q_a=real.q_a)
        )
        assert found


def count_feasible(q: int, marginals: Marginals) -> int:
    """Number of evaluation outcomes consistent with one classifier's
    response totals, summed over all prevalences.

    Counted by brute force over :func:`enumerate_evaluations`.
    """
    if marginals.r_a + marginals.r_b != q:
        raise SketchError("marginals must sum to q")
    total = 0
    for point in enumerate_evaluations(q):
        said_a = point.correct_a[0] + (q - point.q_a - point.correct_b[0])
        if said_a == marginals.r_a:
            total += 1
    return total


class TestCountFeasible:
    def test_frozen(self):
        assert count_feasible(1, Marginals(1, 0)) == 2
        assert count_feasible(2, Marginals(1, 1)) == 4

    def test_marginals_must_sum(self):
        with pytest.raises(SketchError):
            count_feasible(3, Marginals(1, 1))

    def test_feasible_share_shrinks(self):
        shares = []
        for q in (10, 20, 40):
            feasible = count_feasible(q, Marginals(q // 2, q - q // 2))
            shares.append(Fraction(feasible, evaluation_count(q)))
        assert shares[0] > shares[1] > shares[2]


class TestCheckSummary:
    def test_clean_sketch_no_claims(self):
        small = EvaluationSketch(("u", "v"), 2, {"aa": 1, "bb": 1})
        report = check_summary(small, SummaryClaims({}))
        assert report == SummaryReport((), False)

    def test_invalid_sketch_reported_not_raised(self):
        bad = EvaluationSketch(("u",), 3, {"a": 1})
        report = check_summary(bad, SummaryClaims({}))
        assert not report.ok
        assert "pattern counts do not sum to Q (got 1, expected 3)" in report.violations
        assert not report.undecided

    def test_unknown_classifier_claim(self):
        sketch = EvaluationSketch(("u",), 1, {"a": 1})
        report = check_summary(sketch, SummaryClaims({"w": Marginals(1, 0)}))
        assert report.violations == ("claimed marginals for unknown classifier w",)

    def test_marginal_mismatch(self):
        sketch = EvaluationSketch(("u",), 2, {"a": 1, "b": 1})
        report = check_summary(sketch, SummaryClaims({"u": Marginals(2, 0)}))
        assert report.violations == (
            "classifier u: claimed totals (2, 0) differ from actual (1, 1)",
        )

    def test_marginal_match(self):
        sketch = EvaluationSketch(("u",), 2, {"a": 1, "b": 1})
        report = check_summary(sketch, SummaryClaims({"u": Marginals(1, 1)}))
        assert report.ok

    def test_true_point_passes(self):
        small = EvaluationSketch(
            ("u", "v"), 3, {"aa": 1, "ab": 1, "bb": 1},
            {"aa": (1, 0), "ab": (1, 0), "bb": (0, 1)},
        )
        point = sketch_point(small)
        report = check_summary(small, SummaryClaims({}, point))
        assert report == SummaryReport((), False)

    def test_true_point_with_some_pairs_claimed(self):
        truth = EvaluationSketch(
            ("c0", "c1", "c2"), 4, {"aaa": 1, "aab": 1, "abb": 1, "bbb": 1},
            {"aaa": (1, 0), "aab": (1, 0), "abb": (0, 1), "bbb": (0, 1)},
        )
        sketch = EvaluationSketch(truth.classifiers, truth.q, dict(truth.counts))
        full = sketch_point(truth)
        assert full.q_a == 2
        for key, (on_a, on_b) in full.pair_correct.items():
            def claim(value):
                point = EvaluationPoint(full.q_a, full.correct_a, full.correct_b, {key: value})
                return check_summary(sketch, SummaryClaims({}, point))

            # the unclaimed pairs are free, so the true value passes
            assert claim((on_a, on_b)) == SummaryReport((), False), key
            assert not claim((on_a + 1, on_b)).ok, key
            assert not claim((on_a, on_b - 1)).ok, key

    def test_out_of_bounds_point(self):
        sketch = EvaluationSketch(("u",), 4, {"a": 2, "b": 2})
        point = EvaluationPoint(10, (0,), (0,))
        report = check_summary(sketch, SummaryClaims({}, point))
        # the bound check says it all; no search runs, so none is undecided
        assert report == SummaryReport(("q_a=10 outside [0, 4]",), False)

    def test_axiom_violating_point(self):
        sketch = EvaluationSketch(("u",), 4, {"a": 2, "b": 2})
        # r_a=2 at q_a=2 allows correct_a in [0, 2], but correct_b is then forced
        point = EvaluationPoint(2, (2,), (0,))
        report = check_summary(sketch, SummaryClaims({}, point))
        assert report == SummaryReport(
            ("classifier u: correct_b=0, but the responses force 2",), False
        )

    def test_jointly_unrealizable_singles(self):
        # each count is feasible alone; no single ground truth gives both
        sketch = EvaluationSketch(("u", "v"), 4, {"ab": 2, "ba": 2})
        point = EvaluationPoint(3, (2, 2), (1, 1))
        report = check_summary(sketch, SummaryClaims({}, point))
        # the pair's window refutes it without a search: with no agreeing
        # items, a joint true-a count of at least x_i + x_j - q_a = 1 has
        # no "aa" item to sit on
        assert report.violations == (
            "pair (u, v): no joint true-a correctness fits the feasible window [1, 0]",
        )

    def test_budget_skip(self):
        truth = EvaluationSketch(
            ("c0", "c1", "c2"), 4, {"aaa": 1, "aab": 1, "abb": 1, "bbb": 1},
            {"aaa": (1, 0), "aab": (1, 0), "abb": (0, 1), "bbb": (0, 1)},
        )
        sketch = EvaluationSketch(truth.classifiers, truth.q, dict(truth.counts))
        # at N = 3 a point that names every pair reaches the whole roster's
        # window, which settles it with no search
        full = sketch_point(truth)
        report = check_summary(sketch, SummaryClaims({}, full), budget=0)
        assert report == SummaryReport((), False)
        # with a pair left unnamed, a point that passes the axioms is
        # confirmed only by the search, which takes 4 steps, one per pattern
        pairs = {key: joint for key, joint in full.pair_correct.items() if key != (1, 2)}
        point = EvaluationPoint(full.q_a, full.correct_a, full.correct_b, pairs)
        assert check_summary(sketch, SummaryClaims({}, point)) == SummaryReport((), False)
        assert check_summary(sketch, SummaryClaims({}, point), budget=4) == SummaryReport(
            (), False
        )
        report = check_summary(sketch, SummaryClaims({}, point), budget=3)
        assert report == SummaryReport((), True)
        assert report.ok
        # at N <= 2 the axioms are complete, so a passing point needs no search
        single = EvaluationSketch(("u",), 9, {"a": 4, "b": 5})
        report = check_summary(single, SummaryClaims({}, EvaluationPoint(4, (3,), (4,))), budget=0)
        assert report == SummaryReport((), False)
        # without a point, or with a point that already fails, nothing is searched
        assert check_summary(sketch, SummaryClaims({}), budget=0) == SummaryReport(
            (), False
        )
        wrong_size = EvaluationPoint(4, (3, 3), (4, 4))
        report = check_summary(single, SummaryClaims({}, wrong_size), budget=0)
        assert report == SummaryReport(("point has 2 classifiers, sketch has 1",), False)

    def test_odd_triangle_is_refuted(self):
        # every bound and axiom holds, and so does the rational split with
        # each x_p = 1/2, but no integer split meets the claim
        sketch = EvaluationSketch(ROSTER, 4, {"aab": 1, "aba": 1, "baa": 1, "bbb": 1})
        claims = SummaryClaims({}, EvaluationPoint(2, (1, 1, 1), (1, 1, 1)))
        assert point_axiom_violations(sketch, claims.point) == []
        assert check_summary(sketch, claims) == SummaryReport(
            ("claimed point is not realized by any ground truth with q_a=2",), False
        )
        # the search refutes it in 5 steps
        assert check_summary(sketch, claims, budget=5) == check_summary(sketch, claims)
        assert check_summary(sketch, claims, budget=4) == SummaryReport((), True)

    @pytest.mark.parametrize("budget", [-1, 1.5, 10.0, True, False, None, "7"])
    def test_budget_must_be_a_non_negative_int(self, budget):
        # a negative or fractional budget never counts down to 0, so the
        # search would run unbounded; a bool is no count of steps
        sketch = EvaluationSketch(ROSTER, 4, {"aab": 1, "aba": 1, "baa": 1, "bbb": 1})
        claims = SummaryClaims({}, EvaluationPoint(2, (1, 1, 1), (1, 1, 1)))
        with pytest.raises(SketchError, match="budget must be a non-negative integer"):
            check_summary(sketch, claims, budget=budget)

    def test_claim_with_millions_of_splits_is_settled_at_once(self):
        # 7**8 = 5 764 801 splits, but 8 search steps; a walk that built
        # the point of each split ran for seconds on this true claim
        counts = dict.fromkeys(all_patterns(3), 6)
        split = {p: (6, 0) if p[0] == LABEL_A else (0, 6) for p in counts}
        truth = EvaluationSketch(ROSTER, 48, counts, split)
        sketch = EvaluationSketch(truth.classifiers, truth.q, counts)
        claims = SummaryClaims({}, sketch_point(truth))
        start = time.perf_counter()
        report = check_summary(sketch, claims)
        assert time.perf_counter() - start < 1
        assert report == SummaryReport((), False)


# ------------------------------------------------------------ referee
#
# The audit against enumerate_variety: a point is realized exactly when
# some truth split gives its per-classifier counts and every pair it names.


@st.composite
def audit_cases(draw, sizes=(1, 2, 3), every_pair=False):
    """A sketch on at most 8 items and a point, with a random subset of
    its pairs claimed, or all of them if ``every_pair``.  The point is a
    realized one, a realized one with one pair moved (its j_a by +-1 and
    its j_b the other way, so the pair's forced count still holds), one
    that meets every classifier's own axioms (anywhere in its intervals,
    or at their ends), any point of the lattice, or one whose every count
    lies in [-2, q + 2], mostly outside the lattice bounds."""
    size = draw(st.sampled_from(sizes))
    q = draw(st.integers(1, 8))
    patterns = all_patterns(size)
    counts: dict[str, int] = {}
    for _ in range(q):
        pattern = draw(st.sampled_from(patterns))
        counts[pattern] = counts.get(pattern, 0) + 1
    # c1, c2, ...: the ids of ROSTER, which holds three
    sketch = EvaluationSketch(tuple(f"c{k}" for k in range(1, size + 1)), q, counts)
    kinds = ("realized", "moved", "consistent", "corner", "lattice", "unbounded")
    kind = draw(st.sampled_from(kinds))
    if kind in ("realized", "moved"):
        split = {}
        for pattern, n in counts.items():
            true_a = draw(st.integers(0, n))
            split[pattern] = (true_a, n - true_a)
        full = sketch_point(EvaluationSketch(sketch.classifiers, q, counts, split))
        q_a, c_a, c_b, pairs = full.q_a, full.correct_a, full.correct_b, full.pair_correct
        if kind == "moved" and pairs:
            key, d = draw(st.sampled_from(sorted(pairs))), draw(st.sampled_from((-1, 1)))
            pairs = {**pairs, key: (pairs[key][0] + d, pairs[key][1] - d)}
    elif kind == "unbounded":
        count = st.integers(-2, q + 2)
        q_a = draw(count)
        c_a = [draw(count) for _ in range(size)]
        c_b = [draw(count) for _ in range(size)]
        pairs = {
            pair: (draw(count), draw(count))
            for pair in itertools.combinations(range(size), 2)
        }
    else:
        q_a = draw(st.integers(0, q))
        c_a, c_b = [], []
        for cid in sketch.classifiers:
            marg = marginalize(sketch, cid)
            if kind != "lattice":
                # the pair bounds bite most often at the interval's ends
                iv = feasible_interval_label_a(q, q_a, marg)
                ends = st.sampled_from((iv.lo, iv.hi))
                c_a.append(draw(ends if kind == "corner" else st.integers(iv.lo, iv.hi)))
                c_b.append(induced_correct_b(q, q_a, c_a[-1], marg))
            else:
                c_a.append(draw(st.integers(0, q_a)))
                c_b.append(draw(st.integers(0, q - q_a)))
        pairs = {
            (i, j): (draw(st.integers(0, min(c_a[i], c_a[j]))),
                     draw(st.integers(0, min(c_b[i], c_b[j]))))
            for i, j in itertools.combinations(range(size), 2)
        }
    claimed = {key: value for key, value in pairs.items() if every_pair or draw(st.booleans())}
    return sketch, EvaluationPoint(q_a, c_a, c_b, claimed)


def realized(sketch, point):
    claimed = point.pair_correct.items()
    return any(
        vp.point.correct_a == point.correct_a
        and vp.point.correct_b == point.correct_b
        and claimed <= vp.point.pair_correct.items()
        for vp in enumerate_variety(sketch, q_a=point.q_a)
    )


def broken_unnamed_pairs(sketch, point):
    """Pairs the point does not name whose true-a counts break pair_bounds."""
    ids, broken = sketch.classifiers, []
    for i, j in itertools.combinations(range(sketch.size), 2):
        if (i, j) in point.pair_correct:
            continue
        pair = pair_counts(sketch, ids[i], ids[j])
        if not meets_pair_bounds(point.q_a, pair, point.correct_a[i], point.correct_a[j]):
            broken.append((ids[i], ids[j]))
    return broken


class TestAuditAgainstEnumeration:
    @given(audit_cases(sizes=(1, 2)))
    @example((EvaluationSketch(("u", "v"), 4, {"ab": 2, "ba": 2}),
              EvaluationPoint(3, (2, 2), (1, 1), {})))
    @settings(max_examples=500, deadline=None)
    def test_small_rosters_are_decided_exactly(self, case):
        sketch, point = case
        report = check_summary(sketch, SummaryClaims({}, point), budget=0)
        assert not report.undecided
        assert report.ok == realized(sketch, point)

    @given(audit_cases(sizes=(3, 4)))
    @settings(max_examples=300, deadline=None)
    def test_larger_rosters_are_decided_by_the_search(self, case):
        # within the default budget, so the search always runs to an answer
        sketch, point = case
        report = check_summary(sketch, SummaryClaims({}, point))
        assert not report.undecided
        assert report.ok == realized(sketch, point)

    @given(audit_cases(sizes=(3, 4)))
    @settings(max_examples=300, deadline=None)
    def test_a_step_budget_of_the_split_count_always_decides(self, case):
        # the search takes fewer steps than there are truth splits, so a
        # budget one short of their count still decides every claim
        sketch, point = case
        budget = split_combinations(sketch) - 1
        report = check_summary(sketch, SummaryClaims({}, point), budget=budget)
        assert not report.undecided
        assert report.ok == realized(sketch, point)

    @given(audit_cases(sizes=(3,), every_pair=True))
    # every pair passes, and only the triple's window, [1, 0], refutes it
    @example((EvaluationSketch(ROSTER, 5, {"aaa": 2, "abb": 1, "baa": 1, "bbb": 1}),
              EvaluationPoint(2, (1, 1, 1), (1, 1, 1),
                              {(0, 1): (1, 0), (0, 2): (0, 1), (1, 2): (1, 1)})))
    @settings(max_examples=300, deadline=None)
    def test_n3_claims_naming_every_pair_need_no_search(self, case):
        # the whole roster's window settles them, so no budget is needed
        sketch, point = case
        report = check_summary(sketch, SummaryClaims({}, point), budget=0)
        assert not report.undecided
        assert report.ok == realized(sketch, point)

    @given(audit_cases(sizes=(3, 4)))
    @settings(max_examples=200, deadline=None)
    def test_realized_points_pass_the_axioms(self, case):
        # at N = 4 a point that names a triple's three pairs meets the
        # triple's window too, which every realized point must pass
        sketch, point = case
        if realized(sketch, point):
            assert point_axiom_violations(sketch, point) == []

    @given(audit_cases(sizes=(2, 3)))
    @settings(max_examples=300, deadline=None)
    def test_a_broken_unnamed_pair_is_never_realized(self, case):
        sketch, point = case
        broken = broken_unnamed_pairs(sketch, point)
        if broken:
            assert not realized(sketch, point)
            problems = point_axiom_violations(sketch, point)
            # the pairs are checked once q_a and every classifier pass
            if not any(p.startswith(("q_a=", "classifier ")) for p in problems):
                for first, second in broken:
                    prefix = f"pair ({first}, {second}): no joint true-a correctness"
                    assert any(p.startswith(prefix) for p in problems)
