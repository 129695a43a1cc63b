from fractions import Fraction

import pytest
from hypothesis import given, settings

from crosscheck import (
    EvaluationPoint,
    EvaluationSketch,
    IntInterval,
    Marginals,
    SketchError,
    feasible_interval_label_a,
    feasible_interval_label_b,
    marginalize,
    pair_counts,
    point_axiom_violations,
    pspace_stats,
    sketch_point,
)

from ._referees import (
    enumerate_variety,
    induced_correct_b,
    joint_correct_a_window,
    meets_pair_bounds,
    pair_bounds,
)
from ._strategies import sketches


def members(iv):
    return list(range(iv.lo, iv.hi + 1))


class TestIntInterval:
    def test_empty(self):
        iv = IntInterval(0, -1)
        assert iv.is_empty
        assert 0 not in iv and -1 not in iv

    def test_members(self):
        iv = IntInterval(2, 5)
        assert not iv.is_empty
        assert 2 in iv and 5 in iv and 1 not in iv and 6 not in iv


def single(q, r_a):
    """A one-classifier sketch of q items, r_a of them answered a."""
    return EvaluationSketch(("u",), q, {"a": r_a, "b": q - r_a})


class TestSingleClassifier:
    def test_residual_frozen(self):
        # correct_b is forced: r_b less the true-a items the classifier called b
        assert point_axiom_violations(single(1, 1), EvaluationPoint(1, (1,), (0,))) == []
        point = EvaluationPoint(60, (20,), (20,))
        assert point_axiom_violations(single(100, 40), point) == []
        assert point_axiom_violations(single(100, 40), EvaluationPoint(60, (21,), (20,))) == [
            "classifier u: correct_b=20, but the responses force 21"
        ]

    def test_interval_a_frozen(self):
        iv = feasible_interval_label_a(100, 60, Marginals(20, 80))
        assert (iv.lo, iv.hi) == (0, 20)
        iv = feasible_interval_label_a(100, 60, Marginals(60, 40))
        assert (iv.lo, iv.hi) == (20, 60)

    def test_interval_a_always_says_a(self):
        # a classifier that says "a" on every item is right on exactly the true-a ones
        iv = feasible_interval_label_a(7, 3, Marginals(7, 0))
        assert (iv.lo, iv.hi) == (3, 3)

    def test_interval_b_frozen(self):
        iv = feasible_interval_label_b(100, 60, Marginals(20, 80))
        assert (iv.lo, iv.hi) == (20, 40)
        iv = feasible_interval_label_b(100, 0, Marginals(20, 80))
        assert (iv.lo, iv.hi) == (80, 80)
        iv = feasible_interval_label_b(281, 237, Marginals(27, 254))
        assert (iv.lo, iv.hi) == (17, 44)

    def test_interval_b_is_affine_image(self):
        q, q_a, marg = 100, 60, Marginals(35, 65)
        ia = feasible_interval_label_a(q, q_a, marg)
        ib = feasible_interval_label_b(q, q_a, marg)
        images = [induced_correct_b(q, q_a, c_a, marg) for c_a in members(ia)]
        assert images == members(ib)
        for c_a, c_b in zip(members(ia), images):
            point = EvaluationPoint(q_a, (c_a,), (c_b,))
            assert point_axiom_violations(single(q, marg.r_a), point) == []

    @given(sketches(min_size=1, max_size=1, max_count=5))
    @settings(max_examples=60)
    def test_interval_matches_enumeration(self, sketch):
        marg = marginalize(sketch, sketch.classifiers[0])
        for q_a in range(sketch.q + 1):
            ia = feasible_interval_label_a(sketch.q, q_a, marg)
            ib = feasible_interval_label_b(sketch.q, q_a, marg)
            realized_a = set()
            realized_b = set()
            for vp in enumerate_variety(sketch, q_a=q_a):
                realized_a.add(vp.point.correct_a[0])
                realized_b.add(vp.point.correct_b[0])
            assert realized_a == set(members(ia))
            assert realized_b == set(members(ib))


def _variety_by_singles(sketch, q_a):
    """Group an N=2 sketch's ground truths by per-classifier correctness."""
    by_singles = {}
    for vp in enumerate_variety(sketch, q_a=q_a):
        key = vp.point.correct_a
        by_singles.setdefault(key, []).append(vp.point)
    return by_singles


class TestPairAxioms:
    def test_forced_sum_single_item(self):
        # one true-a item, both classifiers respond a: each is right once,
        # and no true-b item is left for the pair to be right on together
        both_a = EvaluationSketch(("u", "v"), 1, {"aa": 1})
        point = EvaluationPoint(1, (1, 1), (0, 0), {(0, 1): (1, 0)})
        assert point_axiom_violations(both_a, point) == []
        point = EvaluationPoint(1, (1, 1), (0, 0), {(0, 1): (1, 1)})
        assert point_axiom_violations(both_a, point) == [
            "pair (u, v): joint true-b correctness 1, but the responses force 0"
        ]
        # one true-b item, both respond b
        both_b = EvaluationSketch(("u", "v"), 1, {"bb": 1})
        point = EvaluationPoint(0, (0, 0), (1, 1), {(0, 1): (0, 1)})
        assert point_axiom_violations(both_b, point) == []
        point = EvaluationPoint(0, (0, 0), (1, 1), {(0, 1): (0, 0)})
        assert point_axiom_violations(both_b, point) == [
            "pair (u, v): joint true-b correctness 0, but the responses force 1"
        ]

    def test_window_cuts_rectangle_corner(self):
        # two classifiers that never agree cannot both be nearly perfect
        pair = {"aa": 0, "ab": 2, "ba": 2, "bb": 0}
        assert meets_pair_bounds(3, pair, 1, 2)
        assert not meets_pair_bounds(3, pair, 2, 2)

    def test_window_cuts_origin(self):
        # both-wrong-everywhere needs enough jointly-b items to hold all of true-a
        pair = {"aa": 2, "ab": 1, "ba": 1, "bb": 2}
        assert not meets_pair_bounds(3, pair, 0, 0)
        assert meets_pair_bounds(3, pair, 1, 1)

    @given(sketches(min_size=2, max_size=2, max_count=3))
    @settings(max_examples=40, deadline=None)
    def test_pair_axioms_match_enumeration(self, sketch):
        ids = sketch.classifiers
        m_i = marginalize(sketch, ids[0])
        m_j = marginalize(sketch, ids[1])
        pair = pair_counts(sketch, ids[0], ids[1])
        q = sketch.q
        for q_a in range(q + 1):
            by_singles = _variety_by_singles(sketch, q_a)
            rect_i = feasible_interval_label_a(q, q_a, m_i)
            rect_j = feasible_interval_label_a(q, q_a, m_j)
            for x in members(rect_i):
                for y in members(rect_j):
                    feasible = meets_pair_bounds(q_a, pair, x, y)
                    points = by_singles.get((x, y), [])
                    assert feasible == bool(points)
                    window = joint_correct_a_window(q_a, pair, x, y)
                    realized_ja = {p.pair_correct[(0, 1)][0] for p in points}
                    assert realized_ja == set(members(window))
                    # the audit's order-2 window is the referee's, even
                    # when it is empty, and a realized j_b is the forced one
                    c_b = (induced_correct_b(q, q_a, x, m_i), induced_correct_b(q, q_a, y, m_j))
                    for ja in (window.lo - 1, window.hi + 1):
                        jb = pair["bb"] - q_a + x + y - ja
                        point = EvaluationPoint(q_a, (x, y), c_b, {(0, 1): (ja, jb)})
                        assert point_axiom_violations(sketch, point) == [
                            f"pair ({ids[0]}, {ids[1]}): joint true-a correctness {ja} "
                            f"outside feasible window [{window.lo}, {window.hi}]"
                        ]
                    for p in points:
                        ja, jb = p.pair_correct[(0, 1)]
                        assert point_axiom_violations(sketch, p) == []
                        off = EvaluationPoint(q_a, (x, y), c_b, {(0, 1): (ja, jb + 1)})
                        assert point_axiom_violations(sketch, off) == [
                            f"pair ({ids[0]}, {ids[1]}): joint true-b correctness {jb + 1}, "
                            f"but the responses force {jb}"
                        ]
                # at fixed x, the generator's bounds capture exactly the coupling
                coupled = {y for y in members(rect_j) if meets_pair_bounds(q_a, pair, x, y)}
                b = pair_bounds(q_a, pair)
                partner = IntInterval(
                    max(x - b.max_i_minus_j, b.min_sum - x, rect_j.lo),
                    min(x + b.max_j_minus_i, b.max_sum - x, rect_j.hi),
                )
                assert coupled == set(members(partner))


class TestPatternCovariance:
    def test_fixture_values(self, grading_sketch):
        q_sq = 281 * 281
        assert pspace_stats(grading_sketch).delta == {
            ("claude", "mistral"): Fraction(-570, q_sq),
            ("claude", "gpt4"): Fraction(3209, q_sq),
            ("mistral", "gpt4"): Fraction(988, q_sq),
        }

    def test_mismatch_detected(self):
        # counts that do not sum to q break the label symmetry of the covariance
        bad = EvaluationSketch(
            ("u", "v"), 3, {"aa": 1, "ab": 1}, {"aa": (1, 0), "ab": (0, 1)}
        )
        with pytest.raises(SketchError):
            pspace_stats(bad)
        # with n_aa == n_bb both labels give the same wrong covariance
        # (1/20), so only the count sum shows that 8 items are not q = 10
        short = EvaluationSketch(
            ("u", "v"), 10, {"aa": 2, "ab": 3, "ba": 1, "bb": 2},
            {"aa": (1, 1), "ab": (3, 0), "ba": (0, 1), "bb": (2, 0)},
        )
        with pytest.raises(SketchError, match="got 8, expected 10"):
            pspace_stats(short)

    @given(sketches(min_size=2, max_size=3, with_truth=True))
    @settings(max_examples=60)
    def test_both_definitions_agree(self, sketch):
        ids = sketch.classifiers
        delta = pspace_stats(sketch).delta
        assert len(delta) == len(ids) * (len(ids) - 1) // 2
        for (first, second), value in delta.items():
            assert ids.index(first) < ids.index(second)
            pair = pair_counts(sketch, first, second)
            q = Fraction(sketch.q)
            via_a = Fraction(pair["aa"]) / q - (
                Fraction(pair["aa"] + pair["ab"]) / q
            ) * (Fraction(pair["aa"] + pair["ba"]) / q)
            via_b = Fraction(pair["bb"]) / q - (
                Fraction(pair["bb"] + pair["ba"]) / q
            ) * (Fraction(pair["bb"] + pair["ab"]) / q)
            assert value == via_a == via_b


def reconstruct_pair_frequencies(
    p_a: Fraction,
    acc_a_i: Fraction | None,
    acc_a_j: Fraction | None,
    acc_b_i: Fraction | None,
    acc_b_j: Fraction | None,
    gamma_a: Fraction | None,
    gamma_b: Fraction | None,
) -> dict[str, Fraction]:
    """Joint decision frequencies of a pair from ratio statistics.

    Terms attached to a label with zero weight are skipped, so the None
    statistics of an absent label never poison the result.
    """
    p_b = 1 - p_a
    out = {"aa": Fraction(0), "ab": Fraction(0), "ba": Fraction(0), "bb": Fraction(0)}

    def add(weight: Fraction, pi: Fraction | None, pj: Fraction | None,
            gamma: Fraction | None, correct_pattern_is_aa: bool) -> None:
        if weight == 0:
            return
        if pi is None or pj is None or gamma is None:
            raise SketchError("missing statistics for a label with positive weight")
        both = pi * pj + gamma
        only_i = pi * (1 - pj) - gamma
        only_j = (1 - pi) * pj - gamma
        neither = (1 - pi) * (1 - pj) + gamma
        if correct_pattern_is_aa:
            out["aa"] += weight * both
            out["ab"] += weight * only_i
            out["ba"] += weight * only_j
            out["bb"] += weight * neither
        else:
            out["bb"] += weight * both
            out["ba"] += weight * only_i
            out["ab"] += weight * only_j
            out["aa"] += weight * neither

    add(p_a, acc_a_i, acc_a_j, gamma_a, True)
    add(p_b, acc_b_i, acc_b_j, gamma_b, False)
    return out


def reconstruct_pair_counts(
    sketch: EvaluationSketch, first: str, second: str
) -> dict[str, int]:
    """Round-trip check: rebuild a pair's pattern counts from its stats.

    The reconstruction is exact; a non-integer intermediate would mean
    the statistics were not produced by :func:`pspace_stats` on this
    sketch.
    """
    stats = pspace_stats(sketch)
    i = sketch.index_of(first)
    j = sketch.index_of(second)
    key = (first, second) if i < j else (second, first)
    if i < j:
        freq = reconstruct_pair_frequencies(
            stats.p_a,
            stats.accuracy_a[i], stats.accuracy_a[j],
            stats.accuracy_b[i], stats.accuracy_b[j],
            stats.gamma_a[key], stats.gamma_b[key],
        )
    else:
        swapped = reconstruct_pair_frequencies(
            stats.p_a,
            stats.accuracy_a[j], stats.accuracy_a[i],
            stats.accuracy_b[j], stats.accuracy_b[i],
            stats.gamma_a[key], stats.gamma_b[key],
        )
        freq = {
            "aa": swapped["aa"],
            "ab": swapped["ba"],
            "ba": swapped["ab"],
            "bb": swapped["bb"],
        }
    out: dict[str, int] = {}
    for pattern, value in freq.items():
        scaled = value * sketch.q
        if scaled.denominator != 1:
            raise SketchError(
                f"pair reconstruction produced a non-integer count for {pattern}: {scaled}"
            )
        out[pattern] = int(scaled)
    return out


class TestPSpaceStats:
    def test_fixture_stats(self, grading_sketch):
        stats = pspace_stats(grading_sketch)
        assert stats.p_a == Fraction(237, 281)
        assert stats.p_b == Fraction(44, 281)
        assert stats.accuracy_a == (
            Fraction(136, 237),
            Fraction(26, 237),
            Fraction(211, 237),
        )
        assert stats.accuracy_b == (
            Fraction(34, 44),
            Fraction(43, 44),
            Fraction(21, 44),
        )
        assert stats.delta[("claude", "mistral")] == Fraction(-570, 281 * 281)

    def test_one_sided_truth(self):
        sketch = EvaluationSketch(
            ("u", "v"), 2, {"aa": 1, "bb": 1}, {"aa": (0, 1), "bb": (0, 1)}
        )
        stats = pspace_stats(sketch)
        assert stats.p_a == 0
        assert stats.accuracy_a == (None, None)
        assert stats.gamma_a[("u", "v")] is None
        assert stats.gamma_b[("u", "v")] is not None

    def test_requires_truth_and_validity(self, grading_bare):
        with pytest.raises(SketchError):
            pspace_stats(grading_bare)
        bad = EvaluationSketch(("u",), 2, {"a": 1}, {"a": (1, 0)})
        with pytest.raises(SketchError):
            pspace_stats(bad)

    def test_reconstruction_round_trip(self, grading_sketch):
        for first, second in (
            ("claude", "mistral"),
            ("claude", "gpt4"),
            ("mistral", "gpt4"),
        ):
            rebuilt = reconstruct_pair_counts(grading_sketch, first, second)
            assert rebuilt == pair_counts(grading_sketch, first, second)

    def test_reconstruction_reversed_roster_order(self, grading_sketch):
        rebuilt = reconstruct_pair_counts(grading_sketch, "gpt4", "claude")
        assert rebuilt == pair_counts(grading_sketch, "gpt4", "claude")

    @given(sketches(min_size=2, max_size=3, with_truth=True))
    @settings(max_examples=60)
    def test_reconstruction_on_generated_sketches(self, sketch):
        ids = sketch.classifiers
        rebuilt = reconstruct_pair_counts(sketch, ids[0], ids[1])
        assert rebuilt == pair_counts(sketch, ids[0], ids[1])


class TestPointAudit:
    def test_realized_point_is_clean(self, grading_sketch):
        point = sketch_point(grading_sketch)
        assert point.q_a == 237
        assert point.correct_a == (136, 26, 211)
        assert point.correct_b == (34, 43, 21)
        assert point_axiom_violations(grading_sketch, point) == []

    def test_wrong_roster_size(self, grading_sketch):
        point = EvaluationPoint(1, (1,), (0,))
        problems = point_axiom_violations(grading_sketch, point)
        assert problems == ["point has 1 classifiers, sketch has 3"]

    def test_residual_violation_reported(self, grading_sketch):
        real = sketch_point(grading_sketch)
        tampered = EvaluationPoint(
            real.q_a,
            (135,) + real.correct_a[1:],
            real.correct_b,
            dict(real.pair_correct),
        )
        # correct_a stays inside [102, 146], and the forced correct_b moves
        assert point_axiom_violations(grading_sketch, tampered) == [
            "classifier claude: correct_b=34, but the responses force 33"
        ]

    def test_pair_sum_violation_reported(self, grading_sketch):
        real = sketch_point(grading_sketch)
        pairs = dict(real.pair_correct)
        ja, jb = pairs[(0, 1)]
        pairs[(0, 1)] = (ja + 1, jb)
        tampered = EvaluationPoint(real.q_a, real.correct_a, real.correct_b, pairs)
        # 13 lies outside the window [11, 12], and with it the responses force 32, not 33
        assert point_axiom_violations(grading_sketch, tampered) == [
            "pair (claude, mistral): joint true-a correctness 13 outside feasible window [11, 12]",
            "pair (claude, mistral): joint true-b correctness 33, but the responses force 32",
        ]

    @given(sketches(min_size=1, max_size=3, with_truth=True))
    @settings(max_examples=60)
    def test_every_realized_point_is_clean(self, sketch):
        point = sketch_point(sketch)
        assert point_axiom_violations(sketch, point) == []
