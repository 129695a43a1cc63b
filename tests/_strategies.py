"""Shared hypothesis strategies and small random-model helpers."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from crosscheck import (
    EvaluationPoint,
    EvaluationSketch,
    IndependentParams,
    PerLabelSpec,
    SafetySpec,
    all_patterns,
    generate_decisions,
    sketch_from_decisions,
)

from ._referees import safe_threshold

ROSTER = ("c1", "c2", "c3")


@st.composite
def sketches(draw, min_size=1, max_size=3, max_count=4, with_truth=False):
    size = draw(st.integers(min_size, max_size))
    patterns = all_patterns(size)
    counts = {p: draw(st.integers(0, max_count)) for p in patterns}
    if sum(counts.values()) == 0:
        counts[draw(st.sampled_from(patterns))] = 1
    total = sum(counts.values())
    split = None
    if with_truth:
        split = {}
        for pattern, n in counts.items():
            true_a = draw(st.integers(0, n))
            split[pattern] = (true_a, n - true_a)
    return EvaluationSketch(ROSTER[:size], total, counts, split)


@st.composite
def raw_sketches(draw):
    """Sketches sound or not: a sound sketch with or without a split, and
    maybe some counts or split entries set to small values of either
    sign, split keys dropped, or a q that is not the counts' sum."""
    sketch = draw(sketches(with_truth=draw(st.booleans())))
    counts = dict(sketch.counts)
    split = None if sketch.truth_split is None else dict(sketch.truth_split)
    pattern = st.sampled_from(all_patterns(sketch.size))
    small = st.integers(-2, 3)
    for key in draw(st.lists(pattern, max_size=2)):
        counts[key] = draw(small)
    if split is not None:
        for key in draw(st.lists(pattern, max_size=2)):
            split[key] = draw(st.tuples(small, small))
        for key in draw(st.lists(pattern, max_size=2)):
            split.pop(key, None)
    q = draw(st.sampled_from([sketch.q, sum(counts.values()), sketch.q + 1]))
    return EvaluationSketch(sketch.classifiers, max(q, 1), counts, split)


def probabilities(max_denominator=16):
    return st.fractions(
        min_value=0, max_value=1, max_denominator=max_denominator
    )


@st.composite
def independent_params(draw, size=3, max_denominator=12):
    # Keeps away from the degenerate surfaces so round trips stay two-point.
    p_a = draw(
        st.fractions(
            min_value=Fraction(1, max_denominator),
            max_value=1 - Fraction(1, max_denominator),
            max_denominator=max_denominator,
        )
    )
    acc_a = []
    acc_b = []
    for _ in range(size):
        a = draw(probabilities(max_denominator))
        b = draw(
            probabilities(max_denominator).filter(lambda x, a=a: x + a != 1)
        )
        acc_a.append(a)
        acc_b.append(b)
    return IndependentParams(p_a, tuple(acc_a), tuple(acc_b))


def random_sketch(rng: random.Random, size: int, q_max: int) -> EvaluationSketch:
    """Uniform-pattern random sketch with per-item ground truth."""
    patterns = all_patterns(size)
    q = rng.randint(1, q_max)
    counts: dict = {}
    split: dict = {}
    for _ in range(q):
        pattern = rng.choice(patterns)
        counts[pattern] = counts.get(pattern, 0) + 1
        a_part, b_part = split.get(pattern, (0, 0))
        if rng.random() < 0.5:
            split[pattern] = (a_part + 1, b_part)
        else:
            split[pattern] = (a_part, b_part + 1)
    return EvaluationSketch(ROSTER[:size], q, counts, split)


def random_params(rng: random.Random, size: int = 3) -> IndependentParams:
    """Random rational parameter point off the degenerate surfaces."""
    while True:
        den = rng.randint(2, 64)
        p_a = Fraction(rng.randint(1, den - 1), den)
        if 0 < p_a < 1:
            break
    acc_a = []
    acc_b = []
    for _ in range(size):
        while True:
            a = Fraction(rng.randint(0, 64), 64)
            b = Fraction(rng.randint(0, 64), 64)
            if a + b != 1:
                acc_a.append(a)
                acc_b.append(b)
                break
    return IndependentParams(p_a, tuple(acc_a), tuple(acc_b))


def point_meets(point: EvaluationPoint, spec: SafetySpec, q: int) -> bool:
    """Would every classifier at this ground truth satisfy the requirement?"""
    need = safe_threshold(spec, q, point.q_a)
    if isinstance(spec, PerLabelSpec):
        return all(c >= need.min_correct_a for c in point.correct_a) and all(
            c >= need.min_correct_b for c in point.correct_b
        )
    return all(
        c_a + c_b >= need.min_correct_total
        for c_a, c_b in zip(point.correct_a, point.correct_b)
    )


def inject_pair_covariance(
    params: IndependentParams,
    gamma_a: Fraction,
    gamma_b: Fraction,
    check_cells: bool = True,
) -> dict[str, Fraction]:
    """Pattern frequencies where classifiers 1 and 2 are correlated.

    Within each true label, the second and third classifiers' joint cell
    gets a correction of the given size, positive on agreement patterns
    and negative otherwise, so their marginals are untouched.  With
    ``check_cells`` (the default) a correction pushing a conditional
    cell outside [0, 1] raises; without it the mixture may still be a
    valid frequency vector, which the caller must confirm.
    """
    if params.size < 3:
        raise ValueError("need at least three classifiers to correlate a pair")
    out: dict[str, Fraction] = {}
    for pattern in all_patterns(params.size):
        total = Fraction(0)
        for label, weight, gamma, acc in (
            ("a", params.p_a, gamma_a, params.accuracy_a),
            ("b", 1 - params.p_a, gamma_b, params.accuracy_b),
        ):
            base = [
                acc[k] if char == label else 1 - acc[k]
                for k, char in enumerate(pattern)
            ]
            sign = 1 if pattern[1] == pattern[2] else -1
            cell = base[1] * base[2] + sign * gamma
            if check_cells and not 0 <= cell <= 1:
                raise ValueError(f"correlated cell {cell} outside [0, 1]")
            prob = cell
            for k in range(len(base)):
                if k not in (1, 2):
                    prob *= base[k]
            total += weight * prob
        out[pattern] = total
    return out



def generate_for_acceptance(seed: int) -> EvaluationSketch:
    """Truth-split sketch drawn from a fixed three-classifier profile."""
    params = IndependentParams(
        Fraction(1, 2), (Fraction(3, 4),) * 3, (Fraction(2, 3),) * 3
    )
    roster = ("g1", "g2", "g3")
    decisions, truth = generate_decisions(roster, params, 60, seed)
    return sketch_from_decisions(decisions, roster, truth)
