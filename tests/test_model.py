from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscheck import (
    FLIP_MODES,
    LABEL_A,
    LABEL_B,
    EvaluationPoint,
    EvaluationSketch,
    IndependentParams,
    Marginals,
    OverallSpec,
    PerLabelSpec,
    SketchError,
    all_patterns,
    flip_labels,
    flip_position,
    generate_decisions,
    marginalize,
    other_label,
    pair_counts,
    point_axiom_violations,
    sketch_from_decisions,
    sketch_point,
    validate_sketch,
)

from ._referees import referee_flip_labels, referee_sketch_entries, referee_validate_sketch
from ._strategies import raw_sketches, sketches


class TestBasics:
    def test_other_label(self):
        assert other_label(LABEL_A) == LABEL_B
        assert other_label(LABEL_B) == LABEL_A
        with pytest.raises(SketchError):
            other_label("c")

    def test_all_patterns(self):
        assert all_patterns(1) == ["a", "b"]
        assert all_patterns(2) == ["aa", "ab", "ba", "bb"]
        assert len(all_patterns(3)) == 8
        assert all_patterns(3) == sorted(all_patterns(3))

    def test_flip_position(self):
        assert flip_position("ab", 0) == "bb"
        assert flip_position("ab", 1) == "aa"
        assert flip_position("aba", 2) == "abb"


class TestSketchConstruction:
    def test_single_item_both_respond_a(self):
        sketch = EvaluationSketch(("u", "v"), 1, {"aa": 1})
        assert sketch.q == 1
        assert sketch.size == 2
        assert dict(sketch.counts) == {"aa": 1}
        assert sketch.truth_split is None
        assert validate_sketch(sketch) == []

    def test_from_decisions_one_classifier(self):
        sketch = sketch_from_decisions(
            {"i1": {"u": "a"}, "i2": {"u": "b"}}, ("u",)
        )
        assert sketch.q == 2
        assert dict(sketch.counts) == {"a": 1, "b": 1}
        assert validate_sketch(sketch) == []

    def test_from_decisions_with_truth(self):
        sketch = sketch_from_decisions(
            {"i1": {"u": "a", "v": "b"}, "i2": {"u": "a", "v": "a"}},
            ("u", "v"),
            truth={"i1": "a", "i2": "b"},
        )
        assert dict(sketch.counts) == {"ab": 1, "aa": 1}
        assert dict(sketch.truth_split) == {"ab": (1, 0), "aa": (0, 1)}

    def test_from_decisions_errors(self):
        with pytest.raises(SketchError):
            sketch_from_decisions({}, ("u",))
        with pytest.raises(SketchError):
            sketch_from_decisions({"i1": {}}, ("u",))
        with pytest.raises(SketchError):
            sketch_from_decisions({"i1": {"u": "yes"}}, ("u",))
        with pytest.raises(SketchError):
            sketch_from_decisions({"i1": {"u": "a"}}, ("u",), truth={})
        with pytest.raises(SketchError):
            sketch_from_decisions({"i1": {"u": "a"}}, ("u",), truth={"i1": "A"})

    def test_zero_counts_dropped(self):
        with_zero = EvaluationSketch(("u",), 2, {"a": 2, "b": 0})
        without = EvaluationSketch(("u",), 2, {"a": 2})
        assert with_zero == without
        assert "b" not in with_zero.counts

    def test_zero_split_entries_dropped_but_empty_split_is_not_none(self):
        sketch = EvaluationSketch(("u",), 1, {"a": 1}, {"a": (1, 0), "b": (0, 0)})
        assert dict(sketch.truth_split) == {"a": (1, 0)}
        assert sketch.truth_split is not None

    def test_truth_split_entries_are_pairs(self):
        for entry in (5, None, "ab", [1], (1, 0, 0), {"x": 1, "y": 0}, (True, 0), (1.0, 0)):
            with pytest.raises(SketchError, match="must be a pair of integers"):
                EvaluationSketch(("u",), 1, {"a": 1}, {"a": entry})
        sketch = EvaluationSketch(("u",), 1, {"a": 1}, {"a": [1, 0], "b": [0, 0]})
        assert dict(sketch.truth_split) == {"a": (1, 0)}

    @pytest.mark.parametrize("counts, split, message", [
        ({"ab": 1}, None, "bad pattern key 'ab': want length 1 over alphabet 'ab'"),
        ({3: 1}, None, "bad pattern key 3: want length 1 over alphabet 'ab'"),
        ({"a": 1}, {"c": (1, 0)}, "bad pattern key 'c': want length 1 over alphabet 'ab'"),
        ({"a": 1.0}, None, "count for pattern 'a' must be an integer"),
        ({"a": True}, None, "count for pattern 'a' must be an integer"),
        ({"a": 1}, {"a": (1, True)}, "truth split for pattern 'a' must be a pair of integers"),
        ({"a": 1}, {"a": [1, 0, 0]}, "truth split for pattern 'a' must be a pair of integers"),
    ])
    def test_refusal_messages(self, counts, split, message):
        with pytest.raises(SketchError) as refused:
            EvaluationSketch(("u",), 1, counts, split)
        assert str(refused.value) == message

    @pytest.mark.parametrize("counts, split, message", [
        # pattern order, not the mapping's order
        ({"bb": "1", "ab": 1.5}, None, "count for pattern 'ab' must be an integer"),
        ({"ba": 1, "ac": None}, None, "bad pattern key 'ac': want length 2 over alphabet 'ab'"),
        # an entry's key before its value
        ({"aab": 1.0}, None, "bad pattern key 'aab': want length 2 over alphabet 'ab'"),
        # the counts before the truth split
        ({"bb": None}, {"aa": [1]}, "count for pattern 'bb' must be an integer"),
        ({"bb": 1}, {"ba": (1,), "aa": None},
         "truth split for pattern 'aa' must be a pair of integers"),
    ])
    def test_first_bad_entry_is_named(self, counts, split, message):
        with pytest.raises(SketchError) as refused:
            EvaluationSketch(("u", "v"), 1, counts, split)
        assert str(refused.value) == message

    def test_counts_immutable(self):
        sketch = EvaluationSketch(("u",), 1, {"a": 1})
        with pytest.raises(TypeError):
            sketch.counts["a"] = 2  # type: ignore[index]

    def test_bad_construction(self):
        with pytest.raises(SketchError):
            EvaluationSketch((), 1, {})
        with pytest.raises(SketchError):
            EvaluationSketch(("u", "u"), 1, {"aa": 1})
        with pytest.raises(SketchError):
            EvaluationSketch(("u",), 0, {})
        with pytest.raises(SketchError):
            EvaluationSketch(("u",), 1, {"ab": 1})
        with pytest.raises(SketchError):
            EvaluationSketch(("u",), 1, {"c": 1})
        with pytest.raises(SketchError):
            EvaluationSketch(("u",), 1, {"a": True})
        with pytest.raises(SketchError):
            EvaluationSketch(("u",), 1, {"a": 1}, {"a": (1,)})

    def test_index_of(self):
        sketch = EvaluationSketch(("u", "v"), 1, {"aa": 1})
        assert sketch.index_of("v") == 1
        with pytest.raises(SketchError):
            sketch.index_of("w")


# what a sketch entry may be handed besides a good one: keys that are too
# short or too long, hold a character other than a/b, or are no string, and
# values of every JSON-ish type
def bad_keys(size):
    return st.one_of(
        st.text("ab", max_size=size + 2).filter(lambda key: len(key) != size),
        st.text("abc A\u2028", min_size=size, max_size=size),
        st.integers(-2, 2), st.none(), st.floats(allow_nan=False),
        st.tuples(st.just("a")), st.binary(max_size=2),
    )


SCALARS = st.one_of(
    st.integers(-2, 3), st.booleans(), st.floats(), st.text("ab1", max_size=2), st.none()
)
BAD_VALUES = st.one_of(SCALARS, st.lists(SCALARS, min_size=1, max_size=3),
                       st.tuples(SCALARS, SCALARS))
GOOD_COUNTS = st.one_of(st.just(0), st.integers(-2, 5))
GOOD_SPLITS = st.one_of(st.just((0, 0)), st.tuples(st.integers(-1, 3), st.integers(-1, 3)),
                        st.lists(st.integers(0, 2), min_size=2, max_size=2))


@st.composite
def sketch_entries(draw):
    """(roster size, counts, truth split), each mapping good but for up to
    two drawn entries, any of which may also be good."""
    size = draw(st.integers(1, 3))
    patterns = all_patterns(size)

    def entries(good):
        keys = draw(st.lists(st.sampled_from(patterns), unique=True, max_size=len(patterns)))
        drawn = {key: draw(good) for key in keys}
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            key = draw(st.sampled_from(patterns) if draw(st.integers(0, 2)) else bad_keys(size))
            drawn[key] = draw(st.one_of(good, BAD_VALUES))
        return drawn

    counts = entries(GOOD_COUNTS)
    return size, counts, None if draw(st.booleans()) else entries(GOOD_SPLITS)


class TestSketchEntriesAgainstReferee:
    """Each entry checked by string and type operations alone keeps what
    one check call per entry kept, or refuses with the same message."""

    @settings(max_examples=500, deadline=None)
    @given(sketch_entries())
    def test_drawn_entries(self, entries):
        size, counts, split = entries
        roster = ("u", "v", "w")[:size]
        try:
            want = referee_sketch_entries(size, counts, split)
        except SketchError as exc:
            with pytest.raises(SketchError) as refused:
                EvaluationSketch(roster, 1, counts, split)
            assert str(refused.value) == str(exc)
            return
        sketch = EvaluationSketch(roster, 1, counts, split)

        def items(mapping):  # in order, so the kept order is pinned too
            return None if mapping is None else list(mapping.items())

        assert (items(sketch.counts), items(sketch.truth_split)) == tuple(map(items, want))


class TestValidation:
    def test_count_sum_mismatch(self):
        sketch = EvaluationSketch(("u",), 3, {"a": 1, "b": 1})
        assert validate_sketch(sketch) == [
            "pattern counts do not sum to Q (got 2, expected 3)"
        ]

    def test_truth_split_mismatch(self):
        sketch = EvaluationSketch(("u",), 2, {"a": 2}, {"a": (1, 0)})
        assert validate_sketch(sketch) == ["truth split mismatch for pattern a (1+0 != 2)"]

    def test_split_for_absent_pattern(self):
        sketch = EvaluationSketch(("u",), 1, {"a": 1}, {"a": (1, 0), "b": (1, 0)})
        assert validate_sketch(sketch) == ["truth split mismatch for pattern b (1+0 != 0)"]

    def test_negative_count(self):
        sketch = EvaluationSketch(("u",), 1, {"a": 2, "b": -1})
        problems = validate_sketch(sketch)
        assert "negative count for pattern b" in problems

    def test_negative_split(self):
        sketch = EvaluationSketch(("u",), 1, {"a": 1}, {"a": (2, -1)})
        problems = validate_sketch(sketch)
        assert "negative truth split for pattern a" in problems

    @given(sketches(with_truth=True))
    def test_generated_sketches_are_valid(self, sketch):
        assert validate_sketch(sketch) == []


class TestFixtureStatistics:
    def test_marginals(self, grading_sketch):
        assert marginalize(grading_sketch, "claude") == Marginals(146, 135)
        assert marginalize(grading_sketch, "mistral") == Marginals(27, 254)
        assert marginalize(grading_sketch, "gpt4") == Marginals(234, 47)

    def test_pair_counts_sum_to_q(self, grading_sketch):
        pair = pair_counts(grading_sketch, "mistral", "gpt4")
        assert sum(pair.values()) == 281
        assert pair["aa"] == 12 + 14  # aaa + baa

    def test_pair_counts_needs_distinct(self, grading_sketch):
        with pytest.raises(SketchError):
            pair_counts(grading_sketch, "claude", "claude")

    def test_truth_prevalence(self, grading_sketch):
        assert sketch_point(grading_sketch).q_a == 237

    def test_correct_counts(self, grading_sketch):
        # claude, mistral, gpt4; pairs by roster index
        point = sketch_point(grading_sketch)
        assert point.correct_a == (136, 26, 211)
        assert point.correct_b == (34, 43, 21)
        assert dict(point.pair_correct) == {(0, 1): (12, 33), (0, 2): (125, 19), (1, 2): (26, 20)}

    def test_truth_helpers_require_split(self, grading_bare):
        with pytest.raises(SketchError, match="no truth split"):
            sketch_point(grading_bare)


ACCURACIES = st.sampled_from([0, Fraction(1, 2), Fraction(4, 5), 1])


class TestSketchPoint:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8),
        st.sampled_from([0, Fraction(1, 3), 1]),
        st.integers(1, 200),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_matches_a_tally_of_the_items(self, size, p_a, q, seed, data):
        # p_a of 0 or 1 leaves one label with no items
        acc = st.lists(ACCURACIES, min_size=size, max_size=size)
        params = IndependentParams(p_a, data.draw(acc), data.draw(acc))
        ids = tuple(f"c{k}" for k in range(size))
        decisions, truth = generate_decisions(ids, params, q, seed)
        q_a = 0
        right = {LABEL_A: [0] * size, LABEL_B: [0] * size}
        both = {LABEL_A: {}, LABEL_B: {}}
        for item, row in decisions.items():
            label = truth[item]
            q_a += label == LABEL_A
            got = [k for k, cid in enumerate(ids) if row[cid] == label]
            for k in got:
                right[label][k] += 1
                for m in got:
                    if k < m:
                        both[label][k, m] = both[label].get((k, m), 0) + 1
        pairs = {
            (k, m): (both[LABEL_A].get((k, m), 0), both[LABEL_B].get((k, m), 0))
            for k in range(size) for m in range(k + 1, size)
        }
        sketch = sketch_from_decisions(decisions, ids, truth)
        assert sketch_point(sketch) == EvaluationPoint(
            q_a, right[LABEL_A], right[LABEL_B], pairs
        )

    def test_unvalidated_split_is_summed_as_it_is(self):
        empty = EvaluationSketch(("u", "v"), 1, {"aa": 1}, {})
        assert sketch_point(empty) == EvaluationPoint(0, (0, 0), (0, 0), {(0, 1): (0, 0)})
        odd = EvaluationSketch(("u",), 3, {"a": 1}, {"a": (-2, 1), "b": (4, 5)})
        assert sketch_point(odd) == EvaluationPoint(2, (-2,), (5,), {})


class TestFlip:
    def test_global_flip_swaps_marginals(self, grading_sketch):
        flipped = flip_labels(grading_sketch, "gpt4", "global")
        assert marginalize(flipped, "gpt4") == Marginals(47, 234)
        # the others are untouched
        assert marginalize(flipped, "claude") == Marginals(146, 135)
        assert flipped.q == grading_sketch.q

    def test_global_flip_involution(self, grading_sketch):
        twice = flip_labels(
            flip_labels(grading_sketch, "mistral", "global"), "mistral", "global"
        )
        assert twice == grading_sketch

    def test_truth_flip_changes_correctness(self, grading_sketch):
        # making mistral right on every true-a item it used to miss
        flipped = flip_labels(grading_sketch, "mistral", "true-a")
        point = sketch_point(flipped)
        assert (point.correct_a[1], point.correct_b[1]) == (237 - 26, 43)
        assert marginalize(flipped, "mistral").r_a == 27 - 26 + (237 - 26)

    def test_truth_flip_requires_split(self, grading_bare):
        with pytest.raises(SketchError):
            flip_labels(grading_bare, "mistral", "true-a")

    def test_truth_flip_rejects_inconsistent_split(self):
        sketch = EvaluationSketch(("u",), 2, {"a": 2}, {"a": (1, 0)})
        with pytest.raises(SketchError):
            flip_labels(sketch, "u", "true-b")

    def test_unknown_mode(self, grading_sketch):
        with pytest.raises(SketchError):
            flip_labels(grading_sketch, "claude", "sideways")

    @given(sketches(with_truth=True), st.sampled_from(FLIP_MODES))
    def test_every_mode_is_an_involution(self, sketch, mode):
        cid = sketch.classifiers[0]
        assert flip_labels(flip_labels(sketch, cid, mode), cid, mode) == sketch

    @given(sketches(with_truth=True))
    def test_truth_flips_compose_to_global(self, sketch):
        cid = sketch.classifiers[-1]
        via_truth = flip_labels(flip_labels(sketch, cid, "true-a"), cid, "true-b")
        assert via_truth == flip_labels(sketch, cid, "global")


def outcome(call, *args):
    """What a call gives: its result, or the message of its SketchError."""
    try:
        return call(*args)
    except SketchError as exc:
        return f"SketchError: {exc}"


UNSOUND = {
    "negative count": EvaluationSketch(("u",), 1, {"a": 2, "b": -1}, {"a": (1, 1)}),
    "wrong sum": EvaluationSketch(("u", "v"), 4, {"ab": 1, "ba": 2}, {"ab": (1, 0), "ba": (0, 2)}),
    "key missing from split": EvaluationSketch(("u", "v"), 3, {"ab": 1, "ba": 2}, {"ab": (1, 0)}),
    "key missing from counts": EvaluationSketch(("u",), 1, {"a": 1}, {"a": (1, 0), "b": (0, 2)}),
    "negative split part": EvaluationSketch(("u", "v"), 3, {"aa": 3}, {"aa": (4, -1)}),
    "no split": EvaluationSketch(("u", "v"), 2, {"aa": 1, "bb": 2}),
}


class TestAgainstReferees:
    """``validate_sketch`` and ``flip_labels`` against the straight
    walks over every pattern in ``tests/_referees.py``."""

    def check(self, sketch):
        assert validate_sketch(sketch) == referee_validate_sketch(sketch)
        for cid in sketch.classifiers:
            for mode in FLIP_MODES:
                assert outcome(flip_labels, sketch, cid, mode) == outcome(
                    referee_flip_labels, sketch, cid, mode
                )

    @pytest.mark.parametrize("sketch", UNSOUND.values(), ids=UNSOUND)
    def test_unsound_sketches(self, sketch):
        assert referee_validate_sketch(sketch)
        self.check(sketch)

    @settings(max_examples=500, deadline=None)
    @given(raw_sketches())
    def test_drawn_sketches(self, sketch):
        self.check(sketch)


class TestEvaluationPoint:
    def test_shape_checks(self):
        with pytest.raises(SketchError):
            EvaluationPoint(1, (1,), (1, 2))
        with pytest.raises(SketchError):
            EvaluationPoint(1, (1, 1), (1, 1), {(1, 0): (0, 0)})
        with pytest.raises(SketchError):
            EvaluationPoint(1, (1, 1), (1, 1), {(0, 2): (0, 0)})

    # the audit's subset check keeps every count inside its lattice bounds
    SINGLE = EvaluationSketch(("u",), 5, {"a": 4, "b": 1})
    # a pair table on 4 items that the points below fit
    PAIR = EvaluationSketch(("u", "v"), 4, {"aa": 2, "ba": 1, "bb": 1})

    def test_bound_violations(self):
        point = EvaluationPoint(3, (4,), (0,))
        assert point_axiom_violations(self.SINGLE, point) == [
            "classifier u: correct_a=4 outside feasible interval [2, 3]",
            "classifier u: correct_b=0, but the responses force 2",
        ]
        assert point_axiom_violations(self.SINGLE, EvaluationPoint(6, (0,), (0,))) == [
            "q_a=6 outside [0, 5]"
        ]
        # a q_a out of range ends the audit before any classifier is checked
        assert point_axiom_violations(self.SINGLE, EvaluationPoint(-5, (1,), (0,))) == [
            "q_a=-5 outside [0, 5]"
        ]
        assert point_axiom_violations(self.SINGLE, EvaluationPoint(7, (0,), (1,))) == [
            "q_a=7 outside [0, 5]"
        ]

    def test_pair_bounds(self):
        point = EvaluationPoint(2, (1, 2), (1, 1), {(0, 1): (2, 0)})
        assert point_axiom_violations(self.PAIR, point) == [
            "pair (u, v): joint true-a correctness 2 outside feasible window [1, 1]"
        ]
        point = EvaluationPoint(2, (1, 2), (1, 1), {(0, 1): (1, -1)})
        assert point_axiom_violations(self.PAIR, point) == [
            "pair (u, v): joint true-b correctness -1, but the responses force 1"
        ]

    def test_clean_point(self):
        point = EvaluationPoint(2, (1, 2), (1, 1), {(0, 1): (1, 1)})
        assert point_axiom_violations(self.PAIR, point) == []


class TestSpecs:
    def test_threshold_range(self):
        with pytest.raises(ValueError):
            PerLabelSpec(Fraction(3, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            OverallSpec(Fraction(-1, 2))
        OverallSpec(Fraction(1))  # boundary is allowed
