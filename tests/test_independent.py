import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from crosscheck import (
    Diagnosis,
    EvaluationSketch,
    IndependentParams,
    SketchError,
    all_patterns,
    forward_model,
    rational_sqrt,
    solve_independent,
)

from ._referees import SqrtValue, majority_vote_prevalence, platanios_error
from ._strategies import independent_params, inject_pair_covariance, random_params

THREE_QUARTERS = (Fraction(3, 4),) * 3
BALANCED = IndependentParams(Fraction(1, 2), THREE_QUARTERS, THREE_QUARTERS)


class TestRationalSqrt:
    def test_perfect_squares(self):
        assert rational_sqrt(Fraction(0)) == 0
        assert rational_sqrt(Fraction(9)) == 3
        assert rational_sqrt(Fraction(1, 4)) == Fraction(1, 2)
        assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)

    def test_non_squares(self):
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(1, 2)) is None
        assert rational_sqrt(Fraction(-1)) is None


class TestParams:
    def test_validation(self):
        with pytest.raises(SketchError):
            IndependentParams(Fraction(3, 2), THREE_QUARTERS, THREE_QUARTERS)
        with pytest.raises(SketchError):
            IndependentParams(Fraction(1, 2), (Fraction(2),), (Fraction(1, 2),))
        with pytest.raises(SketchError):
            IndependentParams(Fraction(1, 2), THREE_QUARTERS, THREE_QUARTERS[:2])
        with pytest.raises(SketchError):
            IndependentParams(Fraction(1, 2), (), ())
        # Fraction(True) == 1, but a boolean is no probability
        for p_a, acc_a, acc_b in (
            (True, (False,), (True,)),
            (Fraction(1), (False,), (Fraction(1),)),
            (Fraction(1), (Fraction(1),), (True,)),
        ):
            with pytest.raises(SketchError):
                IndependentParams(p_a, acc_a, acc_b)

    def test_mirror_crosses_labels(self):
        params = IndependentParams(
            Fraction(1, 3),
            (Fraction(3, 4), Fraction(1, 2), Fraction(1)),
            (Fraction(2, 3), Fraction(1, 5), Fraction(0)),
        )
        mirror = params.mirror()
        assert mirror.p_a == Fraction(2, 3)
        assert mirror.accuracy_a == (Fraction(1, 3), Fraction(4, 5), Fraction(1))
        assert mirror.accuracy_b == (Fraction(1, 4), Fraction(1, 2), Fraction(0))
        assert mirror.mirror() == params

    @given(independent_params())
    @settings(max_examples=40)
    def test_mirror_is_observationally_identical(self, params):
        assert forward_model(params.mirror()) == forward_model(params)


class TestForwardModel:
    def test_frozen_balanced(self):
        freqs = forward_model(BALANCED)
        assert freqs["aaa"] == Fraction(7, 32)
        assert freqs["bbb"] == Fraction(7, 32)
        assert freqs["aab"] == Fraction(3, 32)

    def test_perfect_classifiers(self):
        ones = (Fraction(1),) * 3
        freqs = forward_model(IndependentParams(Fraction(1, 2), ones, ones))
        assert freqs["aaa"] == freqs["bbb"] == Fraction(1, 2)
        assert all(freqs[p] == 0 for p in all_patterns(3) if p not in ("aaa", "bbb"))

    @given(independent_params())
    @settings(max_examples=60)
    def test_normalized(self, params):
        freqs = forward_model(params)
        assert sum(freqs.values()) == 1
        assert all(v >= 0 for v in freqs.values())


class TestSolveFrozen:
    def test_balanced(self):
        solution = solve_independent(forward_model(BALANCED))
        assert solution.consistent
        assert solution.primary == BALANCED
        quarter = (Fraction(1, 4),) * 3
        assert solution.mirror == IndependentParams(Fraction(1, 2), quarter, quarter)

    def test_unanimous(self):
        solution = solve_independent(
            {"aaa": Fraction(1, 2), "bbb": Fraction(1, 2)}
        )
        assert solution.consistent
        ones = (Fraction(1),) * 3
        zeros = (Fraction(0),) * 3
        assert solution.primary == IndependentParams(Fraction(1, 2), ones, ones)
        assert solution.mirror == IndependentParams(Fraction(1, 2), zeros, zeros)

    def test_asymmetric(self):
        params = IndependentParams(
            Fraction(1, 3),
            (Fraction(9, 10), Fraction(3, 4), Fraction(3, 5)),
            (Fraction(4, 5), Fraction(2, 3), Fraction(7, 10)),
        )
        solution = solve_independent(forward_model(params))
        assert solution.consistent
        assert {solution.primary, solution.mirror} == {params, params.mirror()}

    def test_ordering_convention(self):
        solution = solve_independent(forward_model(BALANCED))
        assert solution.primary._sort_key() >= solution.mirror._sort_key()


class TestSolveDiagnoses:
    def test_one_sided_prevalence_is_degenerate(self):
        freqs = forward_model(
            IndependentParams(Fraction(1), THREE_QUARTERS, THREE_QUARTERS)
        )
        solution = solve_independent(freqs)
        assert not solution.consistent
        assert solution.diagnosis is Diagnosis.DEGENERATE
        assert "zero decision covariance" in solution.witness
        assert solution.primary is None and solution.mirror is None

    def test_uninformative_classifier_is_degenerate(self):
        # accuracy_a + accuracy_b = 1 makes a classifier pure noise
        params = IndependentParams(
            Fraction(1, 2),
            (Fraction(1, 2), Fraction(3, 4), Fraction(3, 4)),
            (Fraction(1, 2), Fraction(3, 4), Fraction(3, 4)),
        )
        solution = solve_independent(forward_model(params))
        assert solution.diagnosis is Diagnosis.DEGENERATE

    def test_inconsistent_covariance_signs_are_non_real(self):
        gamma = Fraction(-3, 32)
        freqs = inject_pair_covariance(BALANCED, gamma, gamma, check_cells=False)
        assert sum(freqs.values()) == 1
        assert all(v >= 0 for v in freqs.values())
        solution = solve_independent(freqs)
        assert solution.diagnosis is Diagnosis.NON_REAL
        assert "inconsistent signs" in solution.witness

    def test_correlated_pair_is_irrational(self):
        gamma = Fraction(1, 32)
        freqs = inject_pair_covariance(BALANCED, gamma, gamma)
        solution = solve_independent(freqs)
        assert solution.diagnosis is Diagnosis.IRRATIONAL_VALUE
        assert "squared accuracy gap" in solution.witness

    def test_out_of_range(self):
        # frequencies with the independent shape whose accuracy solves above 1
        freqs = {}
        for pattern in all_patterns(3):
            on_a = Fraction(1)
            on_b = Fraction(1)
            for char in pattern:
                t_a, t_b = Fraction(11, 10), Fraction(7, 10)
                if char == "a":
                    on_a *= t_a
                    on_b *= t_b
                else:
                    on_a *= 1 - t_a
                    on_b *= 1 - t_b
            freqs[pattern] = (on_a + on_b) / 2
        assert sum(freqs.values()) == 1
        assert all(v >= 0 for v in freqs.values())
        solution = solve_independent(freqs)
        assert solution.diagnosis is Diagnosis.OUT_OF_RANGE
        assert "outside [0, 1]" in solution.witness

    def test_fixture_counts_refuse_the_model(self, grading_bare):
        solution = solve_independent(grading_bare)
        assert solution.diagnosis is Diagnosis.NON_REAL
        assert "-570/78961" in solution.witness


class TestSolveRoundTrips:
    @given(independent_params())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, params):
        freqs = forward_model(params)
        solution = solve_independent(freqs)
        assert solution.consistent
        assert {solution.primary, solution.mirror} == {params, params.mirror()}
        assert forward_model(solution.primary) == freqs
        assert forward_model(solution.mirror) == freqs

    def test_many_seeded_round_trips_are_fast(self):
        rng = random.Random(1789)
        start = time.perf_counter()
        for _ in range(100):
            params = random_params(rng)
            solution = solve_independent(forward_model(params))
            assert solution.consistent
            assert {solution.primary, solution.mirror} == {params, params.mirror()}
        assert time.perf_counter() - start < 5.0


class TestInputValidation:
    def test_sketch_must_have_three_classifiers(self):
        small = EvaluationSketch(("u", "v"), 1, {"aa": 1})
        with pytest.raises(SketchError):
            solve_independent(small)

    def test_sketch_must_validate(self):
        bad = EvaluationSketch(("u", "v", "w"), 5, {"aaa": 1})
        with pytest.raises(SketchError):
            solve_independent(bad)

    def test_mapping_checks(self):
        with pytest.raises(SketchError):
            solve_independent({"aaaa": Fraction(1)})
        with pytest.raises(SketchError):
            solve_independent({"aaa": Fraction(1, 2)})
        with pytest.raises(SketchError):
            solve_independent({"aaa": Fraction(3, 2), "bbb": Fraction(-1, 2)})

    def test_frequencies_are_exact_rationals(self):
        """A float or a bool is no frequency; an int, a Fraction or an
        "n/d" string is."""
        for freqs in ({"aaa": 0.5, "bbb": 0.5}, {"aaa": True}):
            with pytest.raises(SketchError, match="frequencies must be ints"):
                solve_independent(freqs)
        freqs = forward_model(BALANCED)
        solution = solve_independent(freqs)
        assert solution.consistent
        assert solve_independent({p: str(f) for p, f in freqs.items()}) == solution
        whole = solve_independent({"aaa": Fraction(1)})
        assert solve_independent({"aaa": 1}) == solve_independent({"aaa": "1/1"}) == whole

    def test_missing_keys_default_to_zero(self):
        solution = solve_independent({"aaa": Fraction(1, 2), "bbb": Fraction(1, 2)})
        assert solution.consistent


class TestMajorityVote:
    def test_fixture(self, grading_bare):
        assert majority_vote_prevalence(grading_bare) == Fraction(147, 281)

    def test_single_pattern(self):
        sketch = EvaluationSketch(("u", "v", "w"), 1, {"aab": 1})
        assert majority_vote_prevalence(sketch) == 1

    def test_single_classifier(self):
        sketch = EvaluationSketch(("u",), 4, {"a": 1, "b": 3})
        assert majority_vote_prevalence(sketch) == Fraction(1, 4)

    def test_even_roster_rejected(self):
        sketch = EvaluationSketch(("u", "v"), 1, {"ab": 1})
        with pytest.raises(SketchError):
            majority_vote_prevalence(sketch)


class TestSqrtValue:
    def test_rational(self):
        v = SqrtValue(Fraction(1, 2), Fraction(1, 3), Fraction(9, 4))
        assert v.is_rational
        assert v.value() == Fraction(1, 2) + Fraction(1, 3) * Fraction(3, 2)

    def test_zero_scale_ignores_radicand(self):
        v = SqrtValue(Fraction(5), Fraction(0), Fraction(2))
        assert v.is_rational
        assert v.value() == 5

    def test_irrational(self):
        v = SqrtValue(Fraction(0), Fraction(1), Fraction(2))
        assert not v.is_rational
        with pytest.raises(SketchError):
            v.value()

    def test_negative_radicand_rejected(self):
        with pytest.raises(SketchError):
            SqrtValue(Fraction(0), Fraction(1), Fraction(-1))


class TestPlatanios:
    def test_half_agreement_divides_by_zero(self):
        with pytest.raises(ValueError):
            platanios_error(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))

    def test_quarter_rates_go_irrational(self):
        report = platanios_error(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
        assert report.c_squared == Fraction(1, 8)
        assert not report.c_is_rational
        for low, high in report.error_rates.values():
            assert not low.is_rational
            assert not high.is_rational

    def test_perfect_agreement_stays_rational(self):
        report = platanios_error(Fraction(0), Fraction(0), Fraction(0))
        assert report.c_squared == 1
        assert report.c_is_rational
        assert report.c.value() == 1
        for low, high in report.error_rates.values():
            assert (low.value(), high.value()) == (0, 1)

    def test_negative_product_rejected(self):
        with pytest.raises(ValueError):
            platanios_error(Fraction(3, 4), Fraction(0), Fraction(0))

    def test_branch_keys(self):
        report = platanios_error(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
        assert set(report.error_rates) == {1, 2, 3}
