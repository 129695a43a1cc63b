"""Closed-form recovery of error-independent classifier parameters.

Three conditionally independent binary classifiers observed on enough
items determine their own accuracies and the label prevalence up to a
single global ambiguity: relabeling which side is "a".  This module
implements that recovery in exact rational arithmetic.  When the
observed frequencies do not admit an in-range, real, rational solution,
the solver reports a diagnosis instead of inventing numbers; that
report is the assumption-failure alarm, not an error condition.
:func:`parse_params` reads the parameter file that ``generate`` draws
from.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Mapping, NamedTuple

from .model import (
    LABEL_A,
    EvaluationSketch,
    SketchError,
    _rational,
    _Value,
    all_patterns,
    validate_sketch,
)
from .persist import FormatError, _load_json, _require_keys


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root, or None when the value is not a rational square."""
    if value < 0:
        return None
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num != value.numerator or den * den != value.denominator:
        return None
    return Fraction(num, den)


class IndependentParams(_Value):
    """A full parameter point: prevalence and per-label accuracies, each an
    int, a Fraction or an "n/d" string (the accuracies in lists or tuples),
    kept as Fractions in [0, 1]."""

    p_a: Fraction
    accuracy_a: tuple[Fraction, ...]
    accuracy_b: tuple[Fraction, ...]

    def __init__(
        self, p_a: Fraction, accuracy_a: tuple[Fraction, ...], accuracy_b: tuple[Fraction, ...]
    ) -> None:
        if not all(isinstance(x, (list, tuple)) for x in (accuracy_a, accuracy_b)):
            raise SketchError("the accuracies must be lists or tuples")
        p = _rational(p_a, "probabilities")
        acc_a = tuple(_rational(x, "probabilities") for x in accuracy_a)
        acc_b = tuple(_rational(x, "probabilities") for x in accuracy_b)
        if len(acc_a) != len(acc_b) or not acc_a:
            raise SketchError("need matching, non-empty accuracy tuples")
        if not 0 <= p <= 1 or any(not 0 <= x <= 1 for x in acc_a + acc_b):
            raise SketchError("probabilities must lie in [0, 1]")
        self._store(p, acc_a, acc_b)

    @property
    def size(self) -> int:
        return len(self.accuracy_a)

    def mirror(self) -> "IndependentParams":
        """The observationally indistinguishable relabeled point.

        Swapping which side is called "a" turns accuracy on true-b into
        error on true-a and vice versa, so the accuracy tuples cross:
        new accuracy_a[i] = 1 - old accuracy_b[i].
        """
        return IndependentParams(
            1 - self.p_a,
            tuple(1 - x for x in self.accuracy_b),
            tuple(1 - x for x in self.accuracy_a),
        )

    def _sort_key(self) -> tuple:
        return (self.p_a, *self.accuracy_a)


def parse_params(text: str) -> tuple[tuple[str, ...] | None, IndependentParams]:
    """Parameter file for generation: prevalence plus per-label accuracies.

    Returns optional classifier ids (None when the file does not name
    them) and the parameter point.  Rationals are "n/d" strings.
    :func:`generate_decisions` checks the ids.
    """
    obj = _load_json(text)
    _require_keys(
        obj, ("p_a", "accuracy_a", "accuracy_b"), ("classifiers",), "params file"
    )
    ids = obj.get("classifiers")
    # a tuple of a string would be a roster of its characters
    if "classifiers" in obj and not isinstance(ids, list):
        raise FormatError("params file: 'classifiers' must be a list")
    try:
        params = IndependentParams(obj["p_a"], obj["accuracy_a"], obj["accuracy_b"])
    except SketchError as exc:
        raise FormatError(f"bad parameters: {exc}") from None
    return None if ids is None else tuple(ids), params


def forward_model(params: IndependentParams) -> dict[str, Fraction]:
    """Joint decision pattern frequencies the parameters imply.

    Responses are independent given the true label; position k of each
    pattern key is classifier k.  Frequencies always sum to exactly 1.
    """
    out: dict[str, Fraction] = {}
    p_b = 1 - params.p_a
    for pattern in all_patterns(params.size):
        on_a = Fraction(1)
        on_b = Fraction(1)
        for k, char in enumerate(pattern):
            # responding "a" is correct on true-a items, wrong on true-b
            if char == LABEL_A:
                on_a *= params.accuracy_a[k]
                on_b *= 1 - params.accuracy_b[k]
            else:
                on_a *= 1 - params.accuracy_a[k]
                on_b *= params.accuracy_b[k]
        out[pattern] = params.p_a * on_a + p_b * on_b
    return out


class Diagnosis(enum.Enum):
    """Why the observed frequencies fail the independent model."""

    DEGENERATE = "degenerate"
    NON_REAL = "non_real"
    IRRATIONAL_VALUE = "irrational_value"
    OUT_OF_RANGE = "out_of_range"


class IndependentSolution(NamedTuple):
    """Either the two observationally equivalent points, or a refusal.

    A successful solve always yields exactly two parameter points that
    generate identical frequencies; telling them apart needs outside
    knowledge, so both are reported, ordered by (prevalence, first
    classifier's true-a accuracy) descending.
    """

    primary: IndependentParams | None
    mirror: IndependentParams | None
    diagnosis: Diagnosis | None = None
    witness: str | None = None

    @property
    def consistent(self) -> bool:
        return self.diagnosis is None

    @classmethod
    def inconsistent(cls, diagnosis: Diagnosis, witness: str) -> "IndependentSolution":
        return cls(None, None, diagnosis, witness)


def _frequencies(source: EvaluationSketch | Mapping[str, Fraction]) -> dict[str, Fraction]:
    patterns = all_patterns(3)
    if isinstance(source, EvaluationSketch):
        if source.size != 3:
            raise SketchError("the solver handles exactly three classifiers")
        problems = validate_sketch(source)
        if problems:
            raise SketchError("invalid sketch: " + "; ".join(problems))
        return {p: Fraction(source.counts.get(p, 0), source.q) for p in patterns}
    freqs = {p: Fraction(0) for p in patterns}
    for key in source:
        if key not in freqs:
            raise SketchError(f"bad pattern key {key!r}: want length 3 over alphabet 'ab'")
        freqs[key] = _rational(source[key], "frequencies")
    if any(v < 0 for v in freqs.values()):
        raise SketchError("frequencies must be non-negative")
    if sum(freqs.values()) != 1:
        raise SketchError(f"frequencies must sum to 1, got {sum(freqs.values())}")
    return freqs


def solve_independent(
    source: EvaluationSketch | Mapping[str, Fraction],
) -> IndependentSolution:
    """Recover prevalence and accuracies from three classifiers' joint
    decision frequencies, assuming errors independent given the label.

    Works entirely in exact arithmetic.  The closed form takes square
    roots twice; whenever a needed root is not a rational square the
    answer is IRRATIONAL_VALUE, the signal that the independence
    assumption (or the data) does not hold exactly.  DEGENERATE means
    some pair carries no correlation signal, NON_REAL that no real
    parameters exist, OUT_OF_RANGE that the unique real candidates are
    not probabilities.
    """
    freqs = _frequencies(source)
    f = [Fraction(0)] * 3
    for pattern, value in freqs.items():
        for k in range(3):
            if pattern[k] == LABEL_A:
                f[k] += value
    pair_f = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        total = Fraction(0)
        for pattern, value in freqs.items():
            if pattern[i] == LABEL_A and pattern[j] == LABEL_A:
                total += value
        pair_f[(i, j)] = total
    delta = {key: pair_f[key] - f[key[0]] * f[key[1]] for key in pair_f}
    f123 = freqs["aaa"]
    t = (
        f123
        - f[0] * pair_f[(1, 2)]
        - f[1] * pair_f[(0, 2)]
        - f[2] * pair_f[(0, 1)]
        + 2 * f[0] * f[1] * f[2]
    )

    for (i, j), value in delta.items():
        if value == 0:
            return IndependentSolution.inconsistent(
                Diagnosis.DEGENERATE,
                f"classifiers {i} and {j} show zero decision covariance; "
                "their accuracy gap or the prevalence balance vanishes",
            )
    d12, d13, d23 = delta[(0, 1)], delta[(0, 2)], delta[(1, 2)]
    product = d12 * d13 * d23
    if product < 0:
        return IndependentSolution.inconsistent(
            Diagnosis.NON_REAL,
            "pairwise covariances have inconsistent signs "
            f"({d12}, {d13}, {d23}); every squared accuracy gap would be negative",
        )
    k = t * t / product
    u_sq = k / (4 + k)
    u = rational_sqrt(u_sq)
    if u is None:
        return IndependentSolution.inconsistent(
            Diagnosis.IRRATIONAL_VALUE,
            f"prevalence imbalance squared is {u_sq}, not a rational square",
        )
    pq = (1 - u_sq) / 4
    gaps: list[Fraction] = []
    for i, g_num, g_den in ((0, d12 * d13, d23), (1, d12 * d23, d13), (2, d13 * d23, d12)):
        g = g_num / g_den
        d_sq = g / pq
        root = rational_sqrt(d_sq)
        if root is None:
            return IndependentSolution.inconsistent(
                Diagnosis.IRRATIONAL_VALUE,
                f"classifier {i} squared accuracy gap is {d_sq}, not a rational square",
            )
        gaps.append(root)

    def sign(x: Fraction) -> int:
        return (x > 0) - (x < 0)

    lead = sign(t) * sign(d12 * d13) if t != 0 else 1
    gaps[0] *= lead
    gaps[1] *= lead * sign(d12)
    gaps[2] *= lead * sign(d13)
    p = (1 - u) / 2
    q = 1 - p
    acc_a: list[Fraction] = []
    resp_a_on_b: list[Fraction] = []
    for i in range(3):
        a_i = f[i] + q * gaps[i]
        b_i = f[i] - p * gaps[i]
        for name, value in ((f"true-a accuracy of classifier {i}", a_i),
                            (f"true-b accuracy of classifier {i}", 1 - b_i)):
            if not 0 <= value <= 1:
                return IndependentSolution.inconsistent(
                    Diagnosis.OUT_OF_RANGE,
                    f"{name} solves to {value}, outside [0, 1]",
                )
        acc_a.append(a_i)
        resp_a_on_b.append(b_i)
    candidate = IndependentParams(
        p, tuple(acc_a), tuple(1 - b for b in resp_a_on_b)
    )
    other = candidate.mirror()
    first, second = sorted(
        (candidate, other), key=IndependentParams._sort_key, reverse=True
    )
    if forward_model(first) != freqs:
        raise RuntimeError(
            "solver produced parameters that do not reproduce the input; "
            "this is a bug, not a property of the data"
        )
    return IndependentSolution(first, second)
