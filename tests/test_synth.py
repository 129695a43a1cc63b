from fractions import Fraction

import pytest

from crosscheck import (
    IndependentParams,
    SketchError,
    generate_decisions,
    sketch_from_decisions,
    validate_sketch,
)

BALANCED = IndependentParams(
    Fraction(1, 2), (Fraction(3, 4),) * 3, (Fraction(3, 4),) * 3
)


def test_same_seed_same_table():
    first = generate_decisions(("u", "v", "w"), BALANCED, 100, 42)
    second = generate_decisions(("u", "v", "w"), BALANCED, 100, 42)
    assert first == second


def test_different_seeds_differ():
    first, _ = generate_decisions(("u", "v", "w"), BALANCED, 60, 1)
    second, _ = generate_decisions(("u", "v", "w"), BALANCED, 60, 2)
    assert first != second


def test_frozen_small_draw():
    decisions, truth = generate_decisions(("u", "v", "w"), BALANCED, 4, 11)
    assert decisions == {
        "item-1": {"u": "a", "v": "a", "w": "b"},
        "item-2": {"u": "b", "v": "a", "w": "a"},
        "item-3": {"u": "b", "v": "b", "w": "b"},
        "item-4": {"u": "b", "v": "b", "w": "a"},
    }
    assert truth == {"item-1": "b", "item-2": "a", "item-3": "b", "item-4": "a"}


def test_certain_parameters_are_certain():
    ones = (Fraction(1),) * 2
    params = IndependentParams(Fraction(1), ones, ones)
    decisions, truth = generate_decisions(("u", "v"), params, 5, 0)
    assert all(t == "a" for t in truth.values())
    assert all(row == {"u": "a", "v": "a"} for row in decisions.values())

    params = IndependentParams(Fraction(0), ones, ones)
    _, truth = generate_decisions(("u", "v"), params, 5, 0)
    assert all(t == "b" for t in truth.values())


def test_item_id_width_tracks_q():
    decisions, _ = generate_decisions(("u",), IndependentParams(
        Fraction(1, 2), (Fraction(1, 2),), (Fraction(1, 2),)
    ), 10, 3)
    ids = sorted(decisions)
    assert ids[0] == "item-01"
    assert ids[-1] == "item-10"
    assert len(ids) == 10


def test_roster_must_match_params():
    with pytest.raises(SketchError):
        generate_decisions(("u", "v"), BALANCED, 5, 0)


def test_q_must_be_positive():
    with pytest.raises(SketchError):
        generate_decisions(("u", "v", "w"), BALANCED, 0, 0)


def test_tables_sketch_cleanly():
    decisions, truth = generate_decisions(("u", "v", "w"), BALANCED, 200, 9)
    sketch = sketch_from_decisions(decisions, ("u", "v", "w"), truth)
    assert sketch.q == 200
    assert validate_sketch(sketch) == []
    assert sketch.truth_split is not None
