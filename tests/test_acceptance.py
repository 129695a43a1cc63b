"""Acceptance suite: ten go/no-go checks for the whole package.

Each test covers one numbered criterion and prints a single
"criterion NN PASS" line on success (visible with pytest -s). Values
asserted here were fixed in advance by independent enumeration oracles;
nothing is recomputed from the implementation under test except the
behavior being checked.
"""

import random
import time
from fractions import Fraction

from crosscheck import (
    EvaluationSketch,
    Marginals,
    PerLabelSpec,
    Verdict,
    enumerate_evaluations,
    evaluation_count,
    feasible_interval_label_a,
    flip_labels,
    forward_model,
    ingest,
    marginalize,
    min_count_above,
    pair_counts,
    pspace_stats,
    records_to_decisions,
    run_alarm,
    sketch_from_decisions,
    sketch_point,
    solve_independent,
)

from ._referees import (
    enumerate_variety,
    majority_vote_prevalence,
    meets_pair_bounds,
    platanios_error,
    safe_threshold,
)
from ._strategies import (
    generate_for_acceptance,
    inject_pair_covariance,
    point_meets,
    random_params,
    random_sketch,
)

HALF = Fraction(1, 2)
SPEC = PerLabelSpec(HALF, HALF, strict=True)


def test_criterion_01_enumeration_counts_match_closed_form():
    start = time.perf_counter()
    for q in range(41):
        walked = sum(1 for _ in enumerate_evaluations(q))
        assert walked == evaluation_count(q) == (q + 1) * (q + 2) * (q + 3) // 6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"
    print(f"criterion 01 PASS: walks for q=0..40 match the closed form "
          f"({elapsed * 1000:.0f}ms)")


def test_criterion_02_fixture_ingest_reproduces_marginals(fixtures_dir):
    result = ingest(
        str(fixtures_dir / "llm_grading_decisions.csv"), "csv",
        {"incorrect": "a", "correct": "b"},
    )
    decisions, truth = records_to_decisions(result)
    sketch = sketch_from_decisions(decisions, result.roster, truth)
    assert sketch.q == 281
    assert marginalize(sketch, "claude") == (146, 135)
    assert marginalize(sketch, "mistral") == (27, 254)
    assert marginalize(sketch, "gpt4") == (234, 47)
    print("criterion 02 PASS: csv ingest reproduces all three marginals exactly")


def test_criterion_03_pair_verdicts_on_fixture(grading_sketch):
    start = time.perf_counter()
    traces = {
        pair: run_alarm(grading_sketch, SPEC, pair=pair, refine=False)
        for pair in (
            ("mistral", "gpt4"), ("claude", "mistral"), ("claude", "gpt4"),
        )
    }
    elapsed = time.perf_counter() - start
    for trace in traces.values():
        assert len(trace.slices) == 282
    assert traces[("mistral", "gpt4")].verdict is Verdict.TRIGGERED
    assert traces[("claude", "mistral")].verdict is Verdict.NOT_TRIGGERED
    assert traces[("claude", "gpt4")].verdict is Verdict.NOT_TRIGGERED
    safe = [s.q_a for s in traces[("claude", "mistral")].slices if s.safe_exists]
    assert safe == list(range(12, 54))
    assert elapsed < 1.0, f"three sweeps took {elapsed:.2f}s"
    print(f"criterion 03 PASS: pair verdicts triggered/quiet/quiet over "
          f"3x282 slices ({elapsed * 1000:.0f}ms)")


def test_criterion_04_interval_cannot_reach_majority():
    interval = feasible_interval_label_a(100, 60, Marginals(20, 80))
    assert (interval.lo, interval.hi) == (0, 20)
    need = safe_threshold(SPEC, 100, 60)
    assert need.min_correct_a == min_count_above(60, HALF, strict=True) == 31
    assert interval.hi < need.min_correct_a
    sketch = EvaluationSketch(("one", "two"), 100, {"aa": 20, "ab": 40, "bb": 40})
    piece = run_alarm(sketch, SPEC).slices[60]
    assert (piece.intervals_a[1].lo, piece.intervals_a[1].hi) == (0, 20)
    assert not piece.safe_exists
    print("criterion 04 PASS: [0, 20] cannot meet the 31-correct floor at q_a=60")


def test_criterion_05_truth_flips_quiet_the_ensemble(grading_sketch):
    flipped = flip_labels(grading_sketch, "mistral", "true-a")
    flipped = flip_labels(flipped, "gpt4", "true-b")
    q_a = 237
    q_b = flipped.q - q_a
    point = sketch_point(flipped)
    for on_a, on_b in zip(point.correct_a, point.correct_b):
        assert Fraction(on_a, q_a) > HALF
        assert Fraction(on_b, q_b) > HALF
    trace = run_alarm(flipped, SPEC, refine=False)
    assert trace.verdict is Verdict.NOT_TRIGGERED
    print("criterion 05 PASS: after truth-conditioned flips every accuracy "
          "exceeds 1/2 and the ensemble alarm stays quiet")


def test_criterion_06_pair_machinery_matches_enumeration():
    rng = random.Random(20260822)
    checked = 0
    for _ in range(100):
        sketch = random_sketch(rng, 2, 12)
        by_qa: dict[int, list] = {}
        for vp in enumerate_variety(sketch):
            by_qa.setdefault(vp.point.q_a, []).append(vp.point)
        r_1 = marginalize(sketch, sketch.classifiers[0])
        r_2 = marginalize(sketch, sketch.classifiers[1])
        pair = pair_counts(sketch, *sketch.classifiers)
        trace = run_alarm(sketch, SPEC, refine=True)
        for q_a in range(sketch.q + 1):
            points = by_qa.get(q_a, [])
            piece = trace.slices[q_a]
            # intervals against the enumerated extremes
            for k, marg in enumerate((r_1, r_2)):
                interval = feasible_interval_label_a(sketch.q, q_a, marg)
                realized = {p.correct_a[k] for p in points}
                if realized:
                    assert (interval.lo, interval.hi) == (
                        min(realized), max(realized))
                    assert piece.intervals_a[k] == interval
                else:
                    assert interval.is_empty
            # the pair constraint against the enumerated pair set
            realized_pairs = {p.correct_a for p in points}
            lo_1 = max(0, r_1[0] - (sketch.q - q_a))
            lo_2 = max(0, r_2[0] - (sketch.q - q_a))
            for x in range(lo_1, min(r_1[0], q_a) + 1):
                for y in range(lo_2, min(r_2[0], q_a) + 1):
                    verdict = meets_pair_bounds(q_a, pair, x, y)
                    assert verdict == ((x, y) in realized_pairs)
            # per-slice safety, refinement on, against the oracle
            oracle = any(point_meets(p, SPEC, sketch.q) for p in points)
            assert piece.safe_exists == oracle
            checked += 1
    print(f"criterion 06 PASS: intervals, joint feasibility, and safety agree "
          f"with full enumeration over {checked} slices")


def test_criterion_07_round_trips_and_injected_dependence():
    start = time.perf_counter()
    rng = random.Random(20260807)
    injected = 0
    for trial in range(200):
        params = random_params(rng)
        solution = solve_independent(forward_model(params))
        assert solution.consistent
        assert params in (solution.primary, solution.mirror)
        if trial % 2 == 0:
            num = rng.randrange(-8, 9)
            gamma = Fraction(num if num else 1, 256)
            try:
                freqs = inject_pair_covariance(params, gamma, -gamma)
            except ValueError:
                continue
            tainted = solve_independent(freqs)
            assert not tainted.consistent, (
                f"params {params} with gamma {gamma} went undetected")
            assert tainted.diagnosis is not None
            injected += 1
    elapsed = time.perf_counter() - start
    assert injected >= 50
    assert elapsed < 10.0, f"round trips took {elapsed:.2f}s"
    print(f"criterion 07 PASS: 200 exact round trips and {injected} injected "
          f"dependencies flagged ({elapsed:.2f}s)")


def test_criterion_08_covariance_routes_agree(grading_sketch):
    sketches = [grading_sketch]
    sketches.extend(generate_for_acceptance(seed) for seed in range(1, 6))
    pairs_checked = 0
    for sketch in sketches:
        roster = sketch.classifiers
        delta = pspace_stats(sketch).delta
        for i in range(len(roster)):
            for j in range(i + 1, len(roster)):
                pair = pair_counts(sketch, roster[i], roster[j])
                q = Fraction(sketch.q)
                f_aa, f_ab = pair["aa"] / q, pair["ab"] / q
                f_ba, f_bb = pair["ba"] / q, pair["bb"] / q
                via_a = f_aa - (f_aa + f_ab) * (f_aa + f_ba)
                via_b = f_bb - (f_ba + f_bb) * (f_ab + f_bb)
                assert via_a == via_b
                assert delta[roster[i], roster[j]] == via_a
                pairs_checked += 1
    assert pspace_stats(grading_sketch).delta["claude", "mistral"] == (
        Fraction(-570, 78961))
    print(f"criterion 08 PASS: both covariance definitions agree on "
          f"{pairs_checked} pairs including the fixture")


def test_criterion_09_majority_vote_disagrees_with_truth(grading_sketch):
    voted = majority_vote_prevalence(grading_sketch)
    actual = Fraction(sketch_point(grading_sketch).q_a, grading_sketch.q)
    assert voted == Fraction(147, 281)
    assert actual == Fraction(237, 281)
    assert voted != actual
    print("criterion 09 PASS: majority vote says 147/281 while the truth "
          "split says 237/281")


def test_criterion_10_symmetric_agreement_rates_go_irrational():
    quarter = Fraction(1, 4)
    report = platanios_error(quarter, quarter, quarter)
    assert report.c_squared == Fraction(1, 8)
    for low, high in report.error_rates.values():
        for branch in (low, high):
            assert branch.radicand == Fraction(1, 8)
            assert not branch.is_rational
    print("criterion 10 PASS: agreement rates of 1/4 force error rates "
          "onto sqrt(1/8), which no exact rational satisfies")
