import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscheck import (
    AlarmTrace,
    EvaluationSketch,
    FormatError,
    IndependentParams,
    IntInterval,
    Marginals,
    OverallSpec,
    PerLabelSpec,
    QaSlice,
    SketchError,
    Verdict,
    all_patterns,
    feasible_interval_label_a,
    feasible_interval_label_b,
    generate_decisions,
    load_sketch,
    marginalize,
    min_count_above,
    pair_counts,
    parse_trace,
    render_traces,
    run_alarm,
    save_sketch,
    sketch_from_decisions,
    sketch_point,
    trace_to_csv_text,
    trace_to_json_text,
)
from crosscheck.alarm import _safe_qa_bounds, count_safe_hypotheses
from crosscheck.cli import EXIT_OK, EXIT_TRIGGERED, main

from ._referees import (
    LabelMinimums,
    OverallMinimum,
    PairBounds,
    enumerate_variety,
    pair_bounds,
    pairwise_safe_exists,
    referee_safe_hypotheses,
    safe_threshold,
)
from ._strategies import point_meets, random_sketch, sketches
from .test_persist import RefereeTrace, laid_out, referee_csv, referee_json, referee_svg

HALF = Fraction(1, 2)
DEFAULT = PerLabelSpec(HALF, HALF)

SPEC_GRID = (
    PerLabelSpec(HALF, HALF, strict=True),
    PerLabelSpec(HALF, HALF, strict=False),
    PerLabelSpec(Fraction(3, 4), Fraction(1, 4), strict=True),
    OverallSpec(Fraction(2, 3), strict=True),
    OverallSpec(HALF, strict=False),
)


def oracle_safe_exists(sketch, q_a, spec):
    """Ground truth enumeration: is any truth at this hypothesis safe?"""
    return any(
        point_meets(vp.point, spec, sketch.q)
        for vp in enumerate_variety(sketch, q_a=q_a)
    )


class TestMinCountAbove:
    def test_frozen(self):
        assert min_count_above(60, HALF, strict=True) == 31
        assert min_count_above(0, HALF, strict=True) == 0
        assert min_count_above(281, HALF, strict=True) == 141

    def test_non_strict(self):
        assert min_count_above(60, HALF, strict=False) == 30
        assert min_count_above(281, HALF, strict=False) == 141

    def test_unmeetable(self):
        assert min_count_above(5, Fraction(1), strict=True) == 6

    def test_negative_total(self):
        with pytest.raises(SketchError):
            min_count_above(-1, HALF)

    @pytest.mark.parametrize("threshold", [0.5, 0.7, True, "1/2"])
    def test_threshold_must_be_int_or_fraction(self, threshold):
        # 0.7 is stored just below 7/10, where 7 of 10 would already clear
        # it; a bool is an int subclass and "1/2" a spec file's spelling,
        # and none of them is taken here
        with pytest.raises(SketchError):
            min_count_above(10, threshold)

    @given(
        st.integers(1, 60),
        st.fractions(min_value=-1, max_value=1, max_denominator=24),
        st.booleans(),
    )
    def test_minimality(self, total, threshold, strict):
        m = min_count_above(total, threshold, strict)
        assert m >= 0
        if strict:
            assert Fraction(m, total) > threshold
            if m > 0:
                assert Fraction(m - 1, total) <= threshold
        else:
            assert Fraction(m, total) >= threshold
            if m > 0:
                assert Fraction(m - 1, total) < threshold


class TestSafeThreshold:
    def test_per_label(self):
        need = safe_threshold(PerLabelSpec(HALF, Fraction(1, 4)), 100, 60)
        assert need == LabelMinimums(31, 11)

    def test_overall(self):
        need = safe_threshold(OverallSpec(HALF), 100, 60)
        assert need == OverallMinimum(51)


class TestEvaluateQa:
    """One hypothesis: its slice of the trace, or a one-hypothesis count."""

    def test_single_item_always_a(self):
        sketch = EvaluationSketch(("u",), 1, {"a": 1})
        s = run_alarm(sketch, DEFAULT).slices[1]
        assert (s.intervals_a[0].lo, s.intervals_a[0].hi) == (1, 1)
        assert s.safe_exists

    def test_fixture_all_b_hypothesis_unsafe(self, grading_sketch):
        # at q_a=0 gpt4 would need 141 correct true-b answers but only said b 47 times
        s = run_alarm(grading_sketch, DEFAULT, pair=("mistral", "gpt4")).slices[0]
        assert not s.safe_exists

    def test_out_of_range_hypothesis(self, grading_sketch):
        with pytest.raises(SketchError):
            count_safe_hypotheses(grading_sketch, DEFAULT, qa_range=(282, 282))

    def test_interval_shapes(self, grading_sketch):
        s = run_alarm(grading_sketch, DEFAULT).slices[237]
        assert len(s.intervals_a) == 3
        assert (s.intervals_b[1].lo, s.intervals_b[1].hi) == (17, 44)
        assert not s.refined


class TestRunAlarm:
    def test_fixture_pair_verdicts(self, grading_sketch):
        trace = run_alarm(grading_sketch, DEFAULT, pair=("mistral", "gpt4"))
        assert trace.verdict is Verdict.TRIGGERED
        assert trace.mode == "pair"
        assert trace.classifiers == ("mistral", "gpt4")
        assert sum(1 for s in trace.slices if s.safe_exists) == 0

        trace = run_alarm(grading_sketch, DEFAULT, pair=("claude", "mistral"))
        assert trace.verdict is Verdict.NOT_TRIGGERED
        safe = [s.q_a for s in trace.slices if s.safe_exists]
        assert safe == list(range(12, 54))

    def test_fixture_ensemble_triggered(self, grading_sketch):
        trace = run_alarm(grading_sketch, DEFAULT)
        assert trace.mode == "ensemble"
        assert trace.verdict is Verdict.TRIGGERED

    def test_trace_is_complete(self, grading_sketch):
        trace = run_alarm(grading_sketch, DEFAULT, pair=("claude", "gpt4"))
        assert len(trace.safe) == len(trace.slices) == 282
        assert [s.q_a for s in trace.slices] == list(range(282))
        assert trace.marginals == (Marginals(146, 135), Marginals(234, 47))
        assert not trace.refined and not any(s.refined for s in trace.slices)

    def test_invalid_sketch_rejected(self):
        bad = EvaluationSketch(("u",), 3, {"a": 1})
        with pytest.raises(SketchError):
            run_alarm(bad, DEFAULT)

    def test_bad_pair(self, grading_sketch):
        with pytest.raises(SketchError):
            run_alarm(grading_sketch, DEFAULT, pair=("claude",))
        with pytest.raises(SketchError):
            run_alarm(grading_sketch, DEFAULT, pair=("claude", "claude"))
        with pytest.raises(SketchError):
            run_alarm(grading_sketch, DEFAULT, pair=("claude", "nobody"))

    def test_identical_responders_are_neutral(self):
        rng = random.Random(7)
        for _ in range(25):
            single = random_sketch(rng, 1, 8)
            doubled = EvaluationSketch(
                ("c1", "c2"),
                single.q,
                {p + p: n for p, n in single.counts.items()},
                {p + p: v for p, v in single.truth_split.items()},
            )
            for spec in SPEC_GRID:
                assert (
                    run_alarm(single, spec).verdict
                    == run_alarm(doubled, spec).verdict
                )


def safe_in(trace, lo, hi):
    return sum(1 for s in trace.slices[lo : hi + 1] if s.safe_exists)


class TestVerdictShortcut:
    """The count without the trace against the count read off the trace."""

    @given(sketches(max_size=2, max_count=4), st.sampled_from(SPEC_GRID))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_run(self, sketch, spec):
        trace = run_alarm(sketch, spec)
        safe = count_safe_hypotheses(sketch, spec)
        assert safe == safe_in(trace, 0, sketch.q)
        assert (safe == 0) == (trace.verdict is Verdict.TRIGGERED)

    def test_range_matches_restriction(self, grading_sketch):
        pair = ("claude", "mistral")
        trace = run_alarm(grading_sketch, DEFAULT, pair=pair)
        for lo, hi in ((0, 11), (12, 53), (0, 281), (54, 281), (237, 237)):
            assert count_safe_hypotheses(
                grading_sketch, DEFAULT, pair=pair, qa_range=(lo, hi)
            ) == safe_in(trace, lo, hi)

    def test_bad_range(self, grading_sketch):
        with pytest.raises(SketchError):
            count_safe_hypotheses(grading_sketch, DEFAULT, qa_range=(5, 3))
        with pytest.raises(SketchError):
            count_safe_hypotheses(grading_sketch, DEFAULT, qa_range=(0, 500))


class TestRestriction:
    """A --qa-range count: the safe hypotheses inside the range only."""

    PAIR = ("claude", "mistral")

    def count(self, sketch, lo, hi):
        return count_safe_hypotheses(sketch, DEFAULT, pair=self.PAIR, qa_range=(lo, hi))

    def test_identity(self, grading_sketch):
        trace = run_alarm(grading_sketch, DEFAULT, pair=self.PAIR)
        whole = count_safe_hypotheses(grading_sketch, DEFAULT, pair=self.PAIR)
        assert self.count(grading_sketch, 0, 281) == whole == safe_in(trace, 0, 281)

    def test_excluding_the_safe_zone_triggers(self, grading_sketch):
        assert self.count(grading_sketch, 0, 11) == 0
        assert self.count(grading_sketch, 54, 281) == 0
        assert self.count(grading_sketch, 12, 12) == 1

    def test_single_hypothesis(self, grading_sketch):
        assert self.count(grading_sketch, 237, 237) == 0


class TestRefinement:
    def test_refined_matches_oracle_n2(self):
        rng = random.Random(20250814)
        for _ in range(30):
            sketch = random_sketch(rng, 2, 8)
            for spec in SPEC_GRID:
                for refined in run_alarm(sketch, spec, refine=True).slices:
                    assert refined.refined
                    assert refined.safe_exists == oracle_safe_exists(
                        sketch, refined.q_a, spec
                    )

    def test_refined_n3_is_sound_tightening(self):
        rng = random.Random(20250815)
        for _ in range(12):
            sketch = random_sketch(rng, 3, 7)
            for spec in SPEC_GRID[:3]:
                plains = run_alarm(sketch, spec).slices
                refineds = run_alarm(sketch, spec, refine=True).slices
                for q_a in range(sketch.q + 1):
                    plain = plains[q_a].safe_exists
                    refined = refineds[q_a].safe_exists
                    oracle = oracle_safe_exists(sketch, q_a, spec)
                    # oracle-safe implies refined-safe implies plain-safe
                    if oracle:
                        assert refined
                    if refined:
                        assert plain

    def test_pairwise_refinement_is_not_exact_for_three(self):
        # with three classifiers, all pairwise couplings can hold while no
        # single ground truth realizes them; this instance overclaims safety
        sketch = EvaluationSketch(
            ("c1", "c2", "c3"), 8, {"aaa": 1, "aab": 2, "aba": 2, "baa": 2, "bbb": 1}
        )
        spec = PerLabelSpec(Fraction(9, 10), Fraction(1, 10), strict=True)
        q_a = 2
        assert count_safe_hypotheses(sketch, spec, refine=True, qa_range=(q_a, q_a)) == 1
        assert not oracle_safe_exists(sketch, q_a, spec)

    def test_refine_flag_recorded_in_trace(self, grading_sketch):
        trace = run_alarm(grading_sketch, DEFAULT, pair=("claude", "mistral"), refine=True)
        assert all(s.refined for s in trace.slices)
        # the unrefined safe window survives refinement here
        safe = [s.q_a for s in trace.slices if s.safe_exists]
        assert safe == list(range(12, 54))


class TestNeverFiresOnTruth:
    @given(sketches(max_size=3, max_count=3, with_truth=True), st.sampled_from(SPEC_GRID))
    @settings(max_examples=60, deadline=None)
    def test_meeting_the_spec_prevents_triggering(self, sketch, spec):
        real = sketch_point(sketch)
        if point_meets(real, spec, sketch.q):
            bare = EvaluationSketch(sketch.classifiers, sketch.q, dict(sketch.counts))
            assert count_safe_hypotheses(bare, spec, refine=True) > 0


# ---------------------------------------------------------------- referees
#
# The sweep core decides unrefined safety in closed form and refines only
# inside that window.  The referee is the per-hypothesis scan it replaced:
# marginals, spec bounds and the safe subinterval recomputed at every q_a,
# with pairwise refinement decided by the backtracking search that the
# greedy pass plus octagon closure replaced.

THRESHOLDS = st.one_of(
    st.sampled_from((Fraction(0), Fraction(1), HALF)),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
)
SPECS = st.one_of(
    st.builds(PerLabelSpec, THRESHOLDS, THRESHOLDS, st.booleans()),
    st.builds(OverallSpec, THRESHOLDS, st.booleans()),
)


def scan_subinterval(q, q_a, r_a, spec):
    """The safe subinterval at one hypothesis, exactly as the scan did it."""
    ia = feasible_interval_label_a(q, q_a, Marginals(r_a, q - r_a))
    offset = q - q_a - r_a
    if isinstance(spec, PerLabelSpec):
        need = safe_threshold(spec, q, q_a)
        lo = max(ia.lo, need.min_correct_a, need.min_correct_b - offset)
    else:
        need_total = safe_threshold(spec, q, q_a).min_correct_total
        lo = max(ia.lo, -(-(need_total - offset) // 2))
    return IntInterval(lo, ia.hi)


def partner_interval(q_a, pair, x):
    """Partner true-a counts jointly feasible with ``x``, before the
    partner's own interval: the coupling as the backtracking search
    used it."""
    n_aa, n_ab, n_ba, n_bb = pair["aa"], pair["ab"], pair["ba"], pair["bb"]
    if x < q_a - n_bb - n_ba:
        return IntInterval(0, -1)
    lo = max(0, x - n_ab, q_a - n_bb - x, q_a - n_bb - n_ab)
    hi = min(x + n_ba, q_a + n_aa - x)
    return IntInterval(lo, hi)


def backtrack_safe_exists(q_a, safe, pair_tables):
    """The depth-first search the refinement replaced: exact for pairwise
    couplings, but about q^(N-1) steps in the worst case."""
    n = len(safe)

    def search(k, chosen):
        if k == n:
            return True
        lo, hi = safe[k].lo, safe[k].hi
        for i in range(k):
            partner = partner_interval(q_a, pair_tables[(i, k)], chosen[i])
            lo, hi = max(lo, partner.lo), min(hi, partner.hi)
        for x in range(lo, hi + 1):
            chosen.append(x)
            if search(k + 1, chosen):
                return True
            chosen.pop()
        return False

    return search(0, [])


def scan_slice(sketch, q_a, spec, ids, refine=False, decide=backtrack_safe_exists):
    """One hypothesis judged from scratch, as the scan judged each one;
    ``decide`` settles the pairwise refinement."""
    margs = [marginalize(sketch, cid) for cid in ids]
    safe = [scan_subinterval(sketch.q, q_a, m.r_a, spec) for m in margs]
    exists = all(not iv.is_empty for iv in safe)
    if exists and refine and len(ids) > 1:
        tables = {
            (i, j): pair_counts(sketch, ids[i], ids[j])
            for i in range(len(ids))
            for j in range(i + 1, len(ids))
        }
        exists = decide(q_a, safe, tables)
    return QaSlice(
        q_a,
        tuple(feasible_interval_label_a(sketch.q, q_a, m) for m in margs),
        tuple(feasible_interval_label_b(sketch.q, q_a, m) for m in margs),
        exists,
        refine,
    )


def count_calls(monkeypatch, *names):
    """Count the calls the alarm makes to each named function of its module."""
    import crosscheck.alarm as alarm_module

    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(alarm_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(alarm_module, name, counted)
    return calls


def scan_safe(sketch, spec, ids, refine=False):
    return [
        q_a
        for q_a in range(sketch.q + 1)
        if scan_slice(sketch, q_a, spec, ids, refine).safe_exists
    ]


class TestClosedForm:
    @given(st.integers(1, 60), st.data(), SPECS)
    @settings(max_examples=400, deadline=None)
    def test_classifier_interval_matches_scan(self, q, data, spec):
        r_a = data.draw(st.sampled_from((0, q, q // 2)) | st.integers(0, q))
        first, last = _safe_qa_bounds(q, r_a, spec)
        scanned = [
            q_a
            for q_a in range(q + 1)  # both ends, q_a = 0 and q_a = q, included
            if not scan_subinterval(q, q_a, r_a, spec).is_empty
        ]
        assert scanned == list(range(first, last + 1))

    def test_edge_thresholds_exhaustive(self):
        edges = (Fraction(0), Fraction(1), HALF, Fraction(1, 3))
        specs = [PerLabelSpec(a, b, s) for a in edges for b in edges for s in (True, False)]
        specs += [OverallSpec(t, s) for t in edges for s in (True, False)]
        for q in range(1, 13):
            for r_a in range(q + 1):
                for spec in specs:
                    first, last = _safe_qa_bounds(q, r_a, spec)
                    scanned = [
                        q_a
                        for q_a in range(q + 1)
                        if not scan_subinterval(q, q_a, r_a, spec).is_empty
                    ]
                    assert scanned == list(range(first, last + 1)), (q, r_a, spec)

    @given(sketches(max_size=3, max_count=5), SPECS, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_trace_matches_scan(self, sketch, spec, refine):
        trace = run_alarm(sketch, spec, refine=refine)
        ids = sketch.classifiers
        assert trace.slices == tuple(
            scan_slice(sketch, q_a, spec, ids, refine) for q_a in range(sketch.q + 1)
        )

    @given(sketches(min_size=2, max_size=3, max_count=5), SPECS, st.data())
    @settings(max_examples=150, deadline=None)
    def test_counts_and_verdicts_match_scan(self, sketch, spec, data):
        refine = data.draw(st.booleans())
        lo = data.draw(st.integers(0, sketch.q))
        hi = data.draw(st.integers(lo, sketch.q))
        pair = data.draw(st.none() | st.just(sketch.classifiers[:2]))
        ids = pair or sketch.classifiers
        safe = [q_a for q_a in scan_safe(sketch, spec, ids, refine) if lo <= q_a <= hi]
        kw = dict(pair=pair, refine=refine, qa_range=(lo, hi))
        assert count_safe_hypotheses(sketch, spec, **kw) == len(safe)
        trace = run_alarm(sketch, spec, pair=pair, refine=refine)
        assert safe_in(trace, lo, hi) == len(safe)  # what `alarm --trace` counts

    @given(sketches(min_size=2, max_size=3, max_count=5), SPECS)
    @settings(max_examples=100, deadline=None)
    def test_refined_safe_within_unrefined_safe(self, sketch, spec):
        plain = {s.q_a for s in run_alarm(sketch, spec).slices if s.safe_exists}
        refined = {
            s.q_a for s in run_alarm(sketch, spec, refine=True).slices if s.safe_exists
        }
        assert refined <= plain

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_calls(monkeypatch, "marginalize", "pair_counts")

    def test_marginals_once_per_run(self, grading_sketch, calls):
        run_alarm(grading_sketch, DEFAULT, pair=("claude", "mistral"), refine=True)
        assert calls == {"marginalize": 2, "pair_counts": 1}

    def test_pair_tables_only_for_a_searched_hypothesis(self, grading_sketch, calls):
        pair = ("claude", "mistral")
        safe = count_safe_hypotheses(grading_sketch, DEFAULT, pair=pair)
        assert 0 < safe < grading_sketch.q + 1
        outside = next(
            q_a
            for q_a in range(grading_sketch.q + 1)
            if not count_safe_hypotheses(
                grading_sketch, DEFAULT, pair=pair, qa_range=(q_a, q_a)
            )
        )
        calls["pair_counts"] = 0
        count_safe_hypotheses(
            grading_sketch, DEFAULT, pair=pair, refine=True, qa_range=(outside, outside)
        )
        assert calls["pair_counts"] == 0


# The sweep keeps a trace as columns and refines in plain ints.  Its
# referee is the per-slice path it replaced: at every q_a the spec's
# minimums (safe_threshold), each classifier's safe subinterval, a dict of
# the pair bounds at q_a, and a QaSlice of IntIntervals; the writers'
# referees write from those slice objects.


def closure_decision(q_a, safe, tables):
    """The refinement as the sweep decided it per slice: the pair bounds
    taken at q_a, then the greedy pass and the closure."""
    bounds = {ij: pair_bounds(q_a, table) for ij, table in tables.items()}
    return pairwise_safe_exists([(iv.lo, iv.hi) for iv in safe], bounds, 0)


def referee_trace(sketch, spec, pair=None, refine=False):
    ids = tuple(pair) if pair else sketch.classifiers
    slices = tuple(
        scan_slice(sketch, q_a, spec, ids, refine, closure_decision)
        for q_a in range(sketch.q + 1)
    )
    return RefereeTrace(sketch.q, spec, "pair" if pair else "ensemble", ids, slices)


# ids that csv must quote and json must escape; none starts with "-",
# which argparse would take for an option
ODD_IDS = st.text(
    st.sampled_from(',"\'\\\n\r\t <>&é€😀\x00\x7f') | st.characters(),
    min_size=1,
    max_size=5,
).filter(lambda text: not text.startswith("-"))


@st.composite
def odd_sketches(draw):
    size = draw(st.integers(1, 5))
    ids = draw(st.lists(ODD_IDS, min_size=size, max_size=size, unique=True))
    counts = draw(st.dictionaries(
        st.sampled_from(all_patterns(size)), st.integers(1, 4), min_size=1, max_size=10
    ))
    return EvaluationSketch(tuple(ids), sum(counts.values()), counts)


class TestPerSliceReferee:
    @given(odd_sketches(), SPECS, st.booleans(), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_trace_and_outputs_match_referee(self, sketch, spec, pair, refine, data):
        pair = sketch.classifiers[:2] if pair and sketch.size >= 2 else None
        trace = run_alarm(sketch, spec, pair=pair, refine=refine)
        ref = referee_trace(sketch, spec, pair, refine)
        assert trace.slices == ref.slices
        assert trace.safe == tuple(s.safe_exists for s in ref.slices)
        assert (trace.q, trace.mode, trace.classifiers) == (ref.q, ref.mode, ref.classifiers)
        assert trace.verdict is ref.verdict
        lo = data.draw(st.integers(0, sketch.q))
        hi = data.draw(st.integers(lo, sketch.q))
        text = trace_to_json_text(trace)
        assert text == referee_json(ref)
        assert run_alarm(sketch, spec, pair=pair, refine=refine) == parse_trace(text)
        assert trace_to_csv_text(trace) == referee_csv(ref)
        assert render_traces([trace]) == referee_svg(ref)
        safe = safe_in(ref, lo, hi)
        kw = dict(pair=pair, refine=refine, qa_range=(lo, hi))
        assert count_safe_hypotheses(sketch, spec, **kw) == safe

    @given(odd_sketches(), st.fractions(0, 1, max_denominator=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cli_range_counts(self, tmp_path_factory, sketch, threshold, data):
        strict, overall, refine, pair = (data.draw(st.booleans()) for _ in range(4))
        spec = OverallSpec(threshold, strict) if overall else PerLabelSpec(
            threshold, threshold, strict
        )
        pair = sketch.classifiers[:2] if pair and sketch.size >= 2 else None
        lo = data.draw(st.integers(0, sketch.q))
        hi = data.draw(st.integers(lo, sketch.q))
        safe = safe_in(referee_trace(sketch, spec, pair, refine), lo, hi)
        path = tmp_path_factory.mktemp("cli") / "s.json"
        save_sketch(sketch, str(path))
        argv = ["alarm", str(path), "--qa-range", str(lo), str(hi)]
        argv += ["--spec-overall" if overall else "--spec-per-label", str(threshold)]
        argv += [] if strict else ["--no-strict"]
        argv += ["--refine-pairs"] if refine else []
        argv += ["--pair", *pair] if pair else []
        want = (
            EXIT_OK if safe else EXIT_TRIGGERED,
            f"safe hypotheses: {safe} of {hi - lo + 1}",
            f"verdict: {'not_triggered' if safe else 'triggered'}",
        )
        assert _cli_summary(argv) == want
        assert _cli_summary(argv + ["--trace", str(path.with_name("t.json"))]) == want

    def test_slices_are_a_tuple_built_from_the_columns(self, grading_sketch):
        """A trace's fields are its columns; ``slices`` is a plain tuple
        built from them once, and is no field: the record's fields are the
        columns, and equality and hashing read only them."""
        trace = run_alarm(grading_sketch, DEFAULT, refine=True)
        ref = referee_trace(grading_sketch, DEFAULT, refine=True)
        assert isinstance(trace.slices, tuple) and trace.slices == ref.slices
        assert trace.slices is trace.slices
        assert trace.slices + () == ref.slices
        assert trace._fields == (
            "q", "spec", "mode", "classifiers", "marginals", "safe", "refined"
        )
        assert trace.safe == tuple(s.safe_exists for s in ref.slices)
        again = run_alarm(grading_sketch, DEFAULT, refine=True)
        assert again == trace and hash(again) == hash(trace)


@st.composite
def written_traces(draw):
    """The JSON text of a run on a sketch with odd ids: either spec kind,
    pair or ensemble, refined or not."""
    sketch = draw(odd_sketches())
    pair = sketch.classifiers[:2] if draw(st.booleans()) and sketch.size >= 2 else None
    trace = run_alarm(sketch, draw(SPECS), pair=pair, refine=draw(st.booleans()))
    return trace, trace_to_json_text(trace)


def _edit_end(obj, data):
    piece = data.draw(st.sampled_from(obj["slices"]))
    ends = data.draw(st.sampled_from(piece["intervals_a"] + piece["intervals_b"]))
    ends[data.draw(st.integers(0, 1))] += data.draw(st.sampled_from([-2, -1, 1, 2, 10**20]))


def _drop(obj, data):
    obj["slices"].pop(data.draw(st.integers(0, len(obj["slices"]) - 1)))


def _duplicate(obj, data):
    k = data.draw(st.integers(0, len(obj["slices"]) - 1))
    obj["slices"].insert(k, json.loads(json.dumps(obj["slices"][k])))


def _swap(obj, data):
    slices = obj["slices"]
    i, j = data.draw(st.lists(st.integers(0, len(slices) - 1), min_size=2, max_size=2, unique=True))
    slices[i], slices[j] = slices[j], slices[i]


def _flip_refined(obj, data):
    piece = data.draw(st.sampled_from(obj["slices"]))
    piece["refined"] = not piece["refined"]


def _wrong_verdict(obj, data):
    obj["verdict"] = "triggered" if obj["verdict"] == "not_triggered" else "not_triggered"


class TestParseTraceChecksRuns:
    """``parse_trace`` gives back exactly the trace a run wrote, and
    refuses any file that no run could write."""

    @given(written_traces())
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, written):
        trace, text = written
        assert parse_trace(text) == trace

    @given(
        written_traces(),
        st.sampled_from([_edit_end, _drop, _duplicate, _swap, _flip_refined, _wrong_verdict]),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_edit_is_refused(self, written, edit, data):
        obj = json.loads(written[1])
        edit(obj, data)
        with pytest.raises(FormatError):
            parse_trace(laid_out(obj))


def unrefined_window(trace):
    """The hypotheses at which every classifier of the trace can meet its
    spec on its own, scanned slice by slice."""
    q = trace.q
    return [
        q_a
        for q_a in range(q + 1)
        if not any(scan_subinterval(q, q_a, m.r_a, trace.spec).is_empty for m in trace.marginals)
    ]


def _set_safe(obj, q_a, value):
    """Set one safe flag and the verdict that the flags then give."""
    obj["slices"][q_a]["safe_exists"] = value
    safe = any(piece["safe_exists"] for piece in obj["slices"])
    obj["verdict"] = "not_triggered" if safe else "triggered"


class TestParseTraceRefusesForgeries:
    """A forged trace whose slices and verdict agree is still refused when
    no run writes it: the flags leave the window, an unrefined flag goes
    missing, or the header names no roster a run audits."""

    @given(written_traces(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_forgeries(self, written, data):
        trace, text = written
        assert parse_trace(text) == trace
        window, ids = unrefined_window(trace), list(trace.classifiers)
        forged = []
        outside = [q_a for q_a in range(trace.q + 1) if q_a not in window]
        if outside:
            obj = json.loads(text)
            _set_safe(obj, data.draw(st.sampled_from(outside)), True)
            forged.append(obj)
        if window and not (trace.refined and len(ids) > 1):
            obj = json.loads(text)
            _set_safe(obj, data.draw(st.sampled_from(window)), False)
            forged.append(obj)
        forged.append(dict(json.loads(text), mode=data.draw(
            st.sampled_from(["both", "Pair", "", None, 2, ["pair"]])
        )))
        if len(ids) != 2:
            forged.append(dict(json.loads(text), mode="pair"))
        if len(ids) > 1:
            i, j = data.draw(st.lists(st.integers(0, len(ids) - 1), min_size=2, max_size=2, unique=True))
            forged.append(dict(json.loads(text), classifiers=ids[:j] + [ids[i]] + ids[j + 1 :]))
        for obj in forged:
            with pytest.raises(FormatError):
                parse_trace(laid_out(obj))

    def test_readme_triggered_pair(self, grading_sketch):
        """`alarm --pair mistral gpt4` is triggered; one safe flag set, with
        the verdict edited to match, is no run's trace."""
        trace = run_alarm(grading_sketch, DEFAULT, pair=("mistral", "gpt4"))
        obj = json.loads(trace_to_json_text(trace))
        assert obj["verdict"] == "triggered"
        obj["slices"][5]["safe_exists"] = True
        obj["verdict"] = "not_triggered"
        with pytest.raises(FormatError, match="outside the unrefined-safe"):
            parse_trace(laid_out(obj))


def trace_with(**fields):
    """A trace of one classifier that said each label once in q = 2
    items, safe only at q_a = 1, with ``fields`` replaced."""
    columns = dict(
        q=2, spec=DEFAULT, mode="ensemble", classifiers=("u",),
        marginals=(Marginals(1, 1),), safe=(False, True, False), refined=False,
    )
    return AlarmTrace(**{**columns, **fields})


class TestTraceInvariant:
    """The constructor refuses each kind of column that no run gives."""

    def test_runs_give_these(self):
        assert trace_with().verdict is Verdict.NOT_TRIGGERED
        assert trace_with(refined=True).verdict is Verdict.NOT_TRIGGERED
        # with the pairs enforced on two classifiers, a flag may clear
        two = dict(classifiers=("u", "v"), marginals=(Marginals(1, 1),) * 2)
        for mode in ("ensemble", "pair"):
            trace = trace_with(**two, mode=mode, refined=True, safe=(False,) * 3)
            assert trace.verdict is Verdict.TRIGGERED

    @pytest.mark.parametrize("fields, message", [
        (dict(q=0, marginals=(Marginals(0, 0),), safe=(False,)), "q >= 1"),
        (dict(q=-1, marginals=(), safe=()), "q >= 1"),
        (dict(classifiers=(), marginals=()), "at least one"),
        (dict(classifiers=("u", "u"), marginals=(Marginals(1, 1),) * 2), "distinct"),
        (dict(mode="both"), "want 'ensemble'"),
        (dict(mode="pair"), "'pair' for two"),
        (dict(mode="pair", classifiers=("u", "v", "w"), marginals=(Marginals(1, 1),) * 3),
         "'pair' for two"),
        (dict(marginals=()), "totals of 2 items"),
        (dict(marginals=(Marginals(1, 1),) * 2), "totals of 2 items"),
        (dict(marginals=((1, 1),)), "totals of 2 items"),
        (dict(marginals=(Marginals(-1, 3),)), "totals of 2 items"),
        (dict(marginals=(Marginals(3, -1),)), "totals of 2 items"),
        (dict(marginals=(Marginals(1, 2),)), "totals of 2 items"),
        (dict(safe=(False, True)), "trace holds 2 slices, not 3"),
        (dict(safe=(False, True, False, False)), "trace holds 4 slices, not 3"),
        (dict(q=5, marginals=(Marginals(2, 3),), safe=(True,)), "trace holds 1 slices, not 6"),
        (dict(safe=(True, True, False)), "outside the unrefined-safe"),
        (dict(safe=(False, True, True)), "outside the unrefined-safe"),
        (dict(safe=(False, False, False)), "leave unrefined-safe"),
        (dict(safe=(False, False, False), refined=True), "leave unrefined-safe"),
        (dict(classifiers=("u", "v"), marginals=(Marginals(1, 1),) * 2, safe=(False,) * 3),
         "leave unrefined-safe"),
        (dict(safe=(0, 1, 0)), "must be bools"),
        (dict(safe=(False, "yes", False)), "must be bools"),
        (dict(safe=(False, 1.0, False)), "must be bools"),
        (dict(refined=None), "must be bools"),
        (dict(refined=0), "must be bools"),
        (dict(refined="no"), "must be bools"),
        (dict(safe=[False, True, False]), "must be tuples"),
        (dict(marginals=[Marginals(1, 1)]), "must be tuples"),
        (dict(safe=iter((False, True, False))), "must be tuples"),
        (dict(classifiers=("",)), "non-empty strings"),
        (dict(spec="x"), "spec must be a PerLabelSpec or OverallSpec, not str"),
    ])
    def test_refused(self, fields, message):
        with pytest.raises(SketchError, match=message):
            trace_with(**fields)


REFINE_ROSTER = ("c1", "c2", "c3", "c4")


def random_refinement_case(rng, max_size=4, max_q=40):
    """Safe intervals and pair tables at one hypothesis of a random sketch.

    Safe intervals are mostly narrow (width 0 to 2), so about one case in
    ten is infeasible; wide ones are almost always feasible.  A third of the
    sketches draw from a quarter of the patterns, which correlates the
    classifiers.
    """
    size = rng.randint(2, max_size)
    patterns = all_patterns(size)
    if rng.random() < 1 / 3:
        patterns = patterns[: max(1, len(patterns) // 4)]
    q = rng.randint(1, max_q)
    counts = {}
    for _ in range(q):
        pattern = rng.choice(patterns)
        counts[pattern] = counts.get(pattern, 0) + 1
    sketch = EvaluationSketch(REFINE_ROSTER[:size], q, counts)
    ids = sketch.classifiers
    q_a = rng.randint(0, q)
    safe = []
    for cid in ids:
        feasible = feasible_interval_label_a(q, q_a, marginalize(sketch, cid))
        width = rng.choice((0, 0, 0, 1, 2, feasible.hi - feasible.lo))
        lo = rng.randint(feasible.lo, max(feasible.lo, feasible.hi - width))
        safe.append(IntInterval(lo, min(feasible.hi, lo + width)))
    tables = {
        (i, j): pair_counts(sketch, ids[i], ids[j])
        for i in range(size)
        for j in range(i + 1, size)
    }
    return q_a, safe, tables


def decide(q_a, safe, tables):
    """(the referee's closure, the backtracking search).  The sweep's
    form, bounds taken at hypothesis 0 and shifted by q_a, must agree with
    bounds taken at q_a itself."""
    bounds = {ij: pair_bounds(q_a, table) for ij, table in tables.items()}
    at_zero = {ij: pair_bounds(0, table) for ij, table in tables.items()}
    ends = [(iv.lo, iv.hi) for iv in safe]
    closure = pairwise_safe_exists(ends, bounds, 0)
    assert pairwise_safe_exists(ends, at_zero, q_a) is closure
    return closure, backtrack_safe_exists(q_a, safe, tables)


def meets_pair(bounds, x_i, x_j):
    max_i_minus_j, max_j_minus_i, min_sum, max_sum = bounds
    return x_i - x_j <= max_i_minus_j and x_j - x_i <= max_j_minus_i and (
        min_sum <= x_i + x_j <= max_sum
    )


def exhaustive_fit(q_a, ends, tables):
    """Do integer counts, each in its (lo, hi), meet every pair's bounds at
    q_a?  Every count is tried; a pair is checked once both are chosen."""
    bounds = {ij: pair_bounds(q_a, table) for ij, table in tables.items()}

    def search(chosen):
        k = len(chosen)
        return k == len(ends) or any(
            all(meets_pair(bounds[i, k], y, x) for i, y in enumerate(chosen))
            and search(chosen + [x])
            for x in range(ends[k][0], ends[k][1] + 1)
        )

    return search([])


def random_rule_case(rng):
    """A sketch of 2 to 4 classifiers on at most 16 items, a hypothesis
    q_a, and each classifier's (lower end, min(q_a, r_k)), the lower end
    anywhere in [0, min(q_a, r_k)], drawn from its top third half the
    time so that the pairs often cannot fit."""
    size = rng.randint(2, 4)
    q = rng.randint(1, 16)
    counts = {}
    for _ in range(q):
        pattern = rng.choice(all_patterns(size))
        counts[pattern] = counts.get(pattern, 0) + 1
    sketch = EvaluationSketch(REFINE_ROSTER[:size], q, counts)
    ids, q_a = sketch.classifiers, rng.randint(0, q)
    ends = []
    for cid in ids:
        top = min(q_a, marginalize(sketch, cid).r_a)
        ends.append((rng.randint(top - top // 3 if rng.random() < 0.5 else 0, top), top))
    tables = {
        (i, j): pair_counts(sketch, ids[i], ids[j])
        for i, j in itertools.combinations(range(size), 2)
    }
    return q_a, ends, tables


def pair_rule(q_a, ends, tables):
    """The rule of :meth:`_Sweep.safe_hypotheses`: every interval is
    non-empty and every pair's lower ends fit under q_a + n_aa."""
    return all(lo <= hi for lo, hi in ends) and all(
        ends[i][0] + ends[j][0] <= q_a + table["aa"] for (i, j), table in tables.items()
    )


class TestPairwiseDecision:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_backtracking(self, rng):
        closure, referee = decide(*random_refinement_case(rng))
        assert closure is referee

    def test_both_answers_and_both_steps_exercised(self):
        # both answers, and both kinds of feasible case: the lower ends
        # themselves a witness, or only counts above them
        rng = random.Random(20261018)
        seen = {"infeasible": 0, "lower_ends_fit": 0, "witness_above": 0}
        for _ in range(1000):
            q_a, safe, tables = random_refinement_case(rng)
            closure, referee = decide(q_a, safe, tables)
            assert closure is referee
            bounds = {ij: pair_bounds(q_a, table) for ij, table in tables.items()}
            if not referee:
                seen["infeasible"] += 1
            elif all(meets_pair(bounds[i, j], safe[i].lo, safe[j].lo) for i, j in bounds):
                seen["lower_ends_fit"] += 1
            else:
                seen["witness_above"] += 1
        assert min(seen.values()) >= 30, seen

    @pytest.mark.parametrize("safe, bounds, feasible", [
        # x + y = 1 and x = y hold together only at x = y = 1/2: feasible
        # over the rationals, so only the tightening step rejects it
        ([(0, 1), (0, 1)], {(0, 1): (0, 0, 1, 1)}, False),
        ([(0, 1), (0, 1)], {(0, 1): (0, 0, 1, 2)}, True),  # x = y = 1
        # an empty sum range: a negative cycle
        ([(0, 3), (0, 3)], {(0, 1): (9, 9, 4, 3)}, False),
        # x2 = 1 forces x0 = 2, then x1 >= 3 but x0 + x1 <= 3: found only
        # through both coherent copies of each sum bound
        ([(0, 2), (1, 3), (1, 1)],
         {(0, 1): (-1, 3, 2, 3), (0, 2): (2, 3, 3, 4), (1, 2): (9, 9, -9, 9)}, False),
        ([(0, 2), (1, 3), (1, 1)],
         {(0, 1): (-1, 3, 2, 5), (0, 2): (2, 3, 3, 4), (1, 2): (9, 9, -9, 9)}, True),
    ], ids=["rational-only", "integer", "empty-sum", "chained", "chained-open"])
    def test_closure_on_hand_written_octagons(self, safe, bounds, feasible):
        bounds = {ij: PairBounds(*b) for ij, b in bounds.items()}
        assert pairwise_safe_exists(safe, bounds, 0) is feasible
        # the sum bounds moved by a shift and taken back by it
        shifted = {
            ij: b._replace(min_sum=b.min_sum - 5, max_sum=b.max_sum - 5)
            for ij, b in bounds.items()
        }
        assert pairwise_safe_exists(safe, shifted, 5) is feasible

    def test_complementary_pair_cannot_both_pass_bounded_run(self, tmp_path):
        # The last classifier always answers against the first, so no truth
        # lets both beat 1/2 on a label.  The backtracking search tried every
        # combination of the middle three (about q^3 steps) before saying so.
        free = ["".join(p) for p in itertools.product("ab", repeat=4)]
        flip = {"a": "b", "b": "a"}
        counts = {p + flip[p[0]]: 4 for p in free}
        path = str(tmp_path / "adv5.json")
        save_sketch(EvaluationSketch(tuple(f"x{k}" for k in range(5)), 64, counts), path)
        code, safe_line, verdict_line = _cli_summary(["alarm", path, "--refine-pairs"])
        assert (code, safe_line, verdict_line) == (
            EXIT_TRIGGERED, "safe hypotheses: 0 of 65", "verdict: triggered"
        )
        assert count_safe_hypotheses(
            load_sketch(path), DEFAULT, refine=False
        ) > 0  # the unrefined alarm stays quiet: only the pairs convict


class TestPairRule:
    """Counts in the safe intervals that meet every pair exist exactly
    when every pair's lower ends fit: the rule the sweep solves."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_rule_matches_exhaustive_search(self, rng):
        q_a, ends, tables = random_rule_case(rng)
        assert pair_rule(q_a, ends, tables) is exhaustive_fit(q_a, ends, tables)

    def test_infeasible_draws_are_common(self):
        rng = random.Random(20261020)
        infeasible = 0
        for _ in range(600):
            q_a, ends, tables = random_rule_case(rng)
            fits = exhaustive_fit(q_a, ends, tables)
            assert pair_rule(q_a, ends, tables) is fits
            infeasible += not fits
        assert infeasible >= 30, infeasible


def classes_evaluated(sketch, spec, **kw):
    """The refined count, and how many residue classes it evaluated."""
    with pytest.MonkeyPatch.context() as patch:
        calls = count_calls(patch, "_class_run")
        safe = count_safe_hypotheses(sketch, spec, refine=True, **kw)
    return safe, calls["_class_run"]


def spec_period(spec):
    """The lcm of the thresholds' denominators, or 2 for an overall spec."""
    if isinstance(spec, OverallSpec):
        return 2
    return lcm(spec.threshold_a.denominator, spec.threshold_b.denominator)


# n/d for every denominator d in 2..12 and n in 0..d, so 0 and 1 too: the
# period of the sweep's conditions divides the lcm of the thresholds'
# denominators
THRESHOLDS = st.integers(2, 12).flatmap(lambda d: st.integers(0, d).map(lambda n: Fraction(n, d)))
LARGE_Q_SPECS = st.builds(PerLabelSpec, THRESHOLDS, THRESHOLDS, st.booleans()) | st.builds(
    OverallSpec, THRESHOLDS, st.booleans()
)


@st.composite
def large_q_sketches(draw):
    """N = 2..6 classifiers, at most six response patterns, each seen up to
    500 times: windows of up to thousands of hypotheses."""
    size = draw(st.integers(2, 6))
    patterns = draw(st.lists(
        st.sampled_from(all_patterns(size)), min_size=2, max_size=6, unique=True
    ))
    counts = {p: draw(st.integers(20, 500)) for p in patterns}
    return EvaluationSketch(tuple(f"c{k}" for k in range(size)), sum(counts.values()), counts)


@st.composite
def dead_end_sketches(draw):
    """N = 3..5 classifiers where the last one mostly answers against the
    first, so no truth lets both beat 1/2 on a label, plus a little noise
    from any pattern: windows where most hypotheses are unsafe, with safe
    ones among them."""
    size = draw(st.integers(3, 5))
    against = [p for p in all_patterns(size) if p[0] != p[-1]]
    drawn = draw(st.lists(st.sampled_from(against), min_size=1, max_size=6, unique=True))
    counts = {pattern: draw(st.integers(1, 12)) for pattern in drawn}
    for pattern in draw(st.lists(st.sampled_from(all_patterns(size)), max_size=3)):
        counts[pattern] = counts.get(pattern, 0) + draw(st.integers(1, 4))
    return EvaluationSketch(tuple(f"c{k}" for k in range(size)), sum(counts.values()), counts)


THIRD = Fraction(1, 3)
# half from a grid on which about a third of the draws refute some
# hypotheses by the pairs alone, half with any denominator from 2 to 12
DEAD_END_SPECS = st.sampled_from(
    SPEC_GRID + (PerLabelSpec(THIRD, THIRD, strict=False), OverallSpec(THIRD, strict=False))
) | LARGE_Q_SPECS
# x2 answers against x0 on every item: at per-label n/d the pairs refute
# d + 1 odd hypotheses near the ends of the window, at 1/2 every one
ADVERSARIAL = ("aab", "abb", "baa", "bba")


class TestRefinedRuns:
    """The pair rule settles each residue class of hypotheses at once;
    the referee judges each one on its own."""

    @pytest.fixture
    def passes(self, monkeypatch):
        return count_calls(monkeypatch, "_class_run")

    @given(large_q_sketches(), LARGE_Q_SPECS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_large_q_matches_referee(self, sketch, spec, data):
        pair = data.draw(st.none() | st.permutations(sketch.classifiers).map(lambda p: p[:2]))
        lo = data.draw(st.integers(0, sketch.q))
        hi = data.draw(st.integers(lo, sketch.q))
        safe = referee_safe_hypotheses(sketch, spec, pair, refine=True)
        trace = run_alarm(sketch, spec, pair=pair, refine=True)
        assert [q_a for q_a, flag in enumerate(trace.safe) if flag] == safe
        kw = dict(pair=pair, qa_range=(lo, hi))
        count, classes = classes_evaluated(sketch, spec, **kw)
        assert count == sum(lo <= q_a <= hi for q_a in safe)
        assert classes <= spec_period(spec)

    @given(dead_end_sketches(), DEAD_END_SPECS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_dead_end_heavy_matches_referee(self, sketch, spec, data):
        lo = data.draw(st.integers(0, sketch.q))
        hi = data.draw(st.integers(lo, sketch.q))
        safe = referee_safe_hypotheses(sketch, spec, refine=True)
        trace = run_alarm(sketch, spec, refine=True)
        assert [q_a for q_a, flag in enumerate(trace.safe) if flag] == safe
        count, classes = classes_evaluated(sketch, spec, qa_range=(lo, hi))
        assert count == sum(lo <= q_a <= hi for q_a in safe)
        assert classes <= spec_period(spec)

    def test_a_run_ends_at_its_slack(self, passes):
        # thresholds in thirds, so three classes, each cut short by the
        # pairs: of the window [0, 9] they refute 5, 7, 8 and 9, and keep 6
        sketch = EvaluationSketch(("c0", "c1"), 19, {"aa": 2, "ab": 4, "ba": 4, "bb": 9})
        spec = PerLabelSpec(Fraction(2, 3), Fraction(1, 3), strict=False)
        trace = run_alarm(sketch, spec, refine=True)
        assert [q_a for q_a, flag in enumerate(trace.safe) if flag] == [0, 1, 2, 3, 4, 6]
        assert referee_safe_hypotheses(sketch, spec, refine=True) == [0, 1, 2, 3, 4, 6]
        assert passes == {"_class_run": 3}

    def test_a_few_passes_settle_a_wide_window(self, passes):
        # three independent classifiers, each right 3 times in 4 on either
        # label: no condition can bind, so one class covers the window
        ids = ("r1", "r2", "r3")
        params = IndependentParams(HALF, (Fraction(3, 4),) * 3, (Fraction(3, 4),) * 3)
        sketch = sketch_from_decisions(generate_decisions(ids, params, 20_000, 1)[0], ids)
        window = count_safe_hypotheses(sketch, DEFAULT)
        assert window > 10_000
        assert count_safe_hypotheses(sketch, DEFAULT, refine=True) == window
        assert passes == {"_class_run": 1}

    def test_dead_ends_judge_each_hypothesis(self, passes):
        # the last classifier always answers against the first, so the pairs
        # refute every hypothesis of the window, two classes at a time
        flip = {"a": "b", "b": "a"}
        counts = {
            x + y + flip[x]: 50 + 7 * k
            for k, (x, y) in enumerate(itertools.product("ab", repeat=2))
        }
        sketch = EvaluationSketch(("x0", "x1", "x2"), sum(counts.values()), counts)
        window = count_safe_hypotheses(sketch, DEFAULT)
        assert window > 100
        assert count_safe_hypotheses(sketch, DEFAULT, refine=True) == 0
        assert passes == {"_class_run": 2}

    @pytest.mark.parametrize("ids, patterns", [
        (("x0", "x1", "x2"), ADVERSARIAL),
        (("x0", "x1", "x2", "x3"), ("aaab", "abbb", "baaa", "bbba")),
    ], ids=["N=3", "N=4"])
    def test_dead_ends_at_huge_q_take_constant_work(self, passes, ids, patterns):
        # the last classifier answers against the first on each of 4 * 10**15
        # items: two classes settle the whole window
        sketch = EvaluationSketch(ids, 4 * 10**15, dict.fromkeys(patterns, 10**15))
        assert count_safe_hypotheses(sketch, DEFAULT) > 10**15
        assert count_safe_hypotheses(sketch, DEFAULT, refine=True) == 0
        assert passes == {"_class_run": 2}

    def test_a_cycle_that_stops_refuting_gets_a_fresh_closure(self, passes):
        # window [0, 6]: 0 and 6 are safe as the window's ends; of the three
        # classes, the pairs keep 3 and refute 1, 2, 4 and 5
        sketch = EvaluationSketch(("c0", "c1", "c2"), 6, {"abb": 2, "baa": 2, "bba": 2})
        spec = PerLabelSpec(Fraction(1, 3), Fraction(1, 3), strict=False)
        assert count_safe_hypotheses(sketch, spec) == 7
        trace = run_alarm(sketch, spec, refine=True)
        assert [q_a for q_a, flag in enumerate(trace.safe) if flag] == [0, 3, 6]
        assert referee_safe_hypotheses(sketch, spec, refine=True) == [0, 3, 6]
        assert passes == {"_class_run": 3}

    def test_the_period_takes_every_denominator(self, passes):
        # two classifiers that answer against each other, with thresholds in
        # halves and in quarters: the pairs keep 0, 2 and 4 of the window
        # [0, 6], and a period of 2, from the label-a threshold alone, would
        # keep 6 too
        sketch = EvaluationSketch(("c0", "c1"), 8, {"ab": 3, "ba": 5})
        spec = PerLabelSpec(HALF, Fraction(1, 4), strict=False)
        assert count_safe_hypotheses(sketch, spec) == 7
        trace = run_alarm(sketch, spec, refine=True)
        assert [q_a for q_a, flag in enumerate(trace.safe) if flag] == [0, 2, 4]
        assert referee_safe_hypotheses(sketch, spec, refine=True) == [0, 2, 4]
        assert passes == {"_class_run": 4}

    @pytest.mark.parametrize("threshold, unsafe", [
        (THIRD, 4), (Fraction(2, 5), 6), (Fraction(5, 11), 12), (Fraction(499, 1000), 500),
    ])
    def test_pinned_pairs_at_huge_q(self, passes, threshold, unsafe):
        # x0 and x2 answer against each other, so their pair bounds pin
        # x0 + x2 to the hypothesis; the d + 1 unsafe hypotheses at
        # q = 4 * 10**15 are as many as the referee finds at q = 4000
        spec = PerLabelSpec(threshold, threshold)
        ids = ("x0", "x1", "x2")
        sketch = EvaluationSketch(ids, 4 * 10**15, dict.fromkeys(ADVERSARIAL, 10**15))
        assert count_safe_hypotheses(sketch, spec, refine=True) == 4 * 10**15 + 1 - unsafe
        assert passes == {"_class_run": threshold.denominator}
        small = EvaluationSketch(ids, 4000, dict.fromkeys(ADVERSARIAL, 1000))
        assert len(referee_safe_hypotheses(small, spec, refine=True)) == 4001 - unsafe

    def test_an_agreeing_pair_at_huge_q(self, passes):
        # both classifiers give the same answer on each of 10**15 items: every
        # hypothesis of the window is safe, in one class
        sketch = EvaluationSketch(("u", "v"), 10**15, {"aa": 5 * 10**14, "bb": 5 * 10**14})
        assert count_safe_hypotheses(sketch, DEFAULT, refine=True) == 10**15 - 1
        assert count_safe_hypotheses(sketch, DEFAULT) == 10**15 - 1
        assert passes == {"_class_run": 1}

    def test_a_large_denominator_that_cannot_bind(self, passes):
        # threshold 123457/10**6 on 10**7 items: no condition can bind, so one
        # class settles every hypothesis, not one per residue mod 10**6
        spec = PerLabelSpec(Fraction(123457, 10**6), Fraction(123457, 10**6))
        counts = {"aaa": 3 * 10**6, "bbb": 3 * 10**6}
        counts.update(dict.fromkeys(("aab", "abb", "bab", "bba"), 10**6))
        sketch = EvaluationSketch(("x0", "x1", "x2"), 10**7, counts)
        assert count_safe_hypotheses(sketch, spec, refine=True) == 10**7 + 1
        assert passes == {"_class_run": 1}


def _cli_summary(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    lines = out.getvalue().splitlines()
    return code, lines[-2], lines[-1]


class TestCliAgainstTrace:
    @given(sketches(min_size=2, max_size=3, max_count=5), SPECS, st.data())
    @settings(max_examples=80, deadline=None)
    def test_alarm_output_matches_trace(self, tmp_path_factory, sketch, spec, data):
        path = str(tmp_path_factory.mktemp("cli") / "s.json")
        save_sketch(sketch, path)
        refine = data.draw(st.booleans())
        qa_range = data.draw(
            st.none() | st.tuples(st.integers(0, sketch.q), st.integers(0, sketch.q)).map(sorted)
        )
        argv = ["alarm", path, "--no-strict"] if not spec.strict else ["alarm", path]
        if isinstance(spec, PerLabelSpec):
            # the CLI spec is symmetric, so audit with the label-a threshold
            spec = PerLabelSpec(spec.threshold_a, spec.threshold_a, spec.strict)
            argv += ["--spec-per-label", str(spec.threshold_a)]
        else:
            argv += ["--spec-overall", str(spec.threshold)]
        if refine:
            argv.append("--refine-pairs")
        trace = run_alarm(sketch, spec, refine=refine)
        lo, hi = qa_range or (0, sketch.q)
        if qa_range:
            argv += ["--qa-range", str(lo), str(hi)]
        safe = safe_in(trace, lo, hi)
        verdict = Verdict.NOT_TRIGGERED if safe else Verdict.TRIGGERED
        want = (
            EXIT_TRIGGERED if safe == 0 else EXIT_OK,
            f"safe hypotheses: {safe} of {hi - lo + 1}",
            f"verdict: {verdict.value}",
        )
        assert _cli_summary(argv) == want
        trace_path = path.replace(".json", "-trace.json")
        assert _cli_summary(argv + ["--trace", trace_path]) == want
