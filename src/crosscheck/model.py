"""Exact count statistics for joint binary decisions on a shared test.

The observable record of an evaluation is a sketch: for every joint
decision pattern the classifiers can produce, the number of test items
that produced it, optionally split by the true label when an answer key
is available.  Counts are plain Python integers and ratios appear only
as `fractions.Fraction` values; nothing in this module touches floats.

This module holds what every command loads: the sketch, its marginals,
pair tables and checks, the safety specs and the value types they share.
A sketch is built from decisions in :mod:`crosscheck.tables`, and the
evaluation point a truth split realizes is read in
:mod:`crosscheck.axioms`.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from fractions import Fraction
from types import MappingProxyType
from typing import Literal, NamedTuple

LABEL_A = "a"
LABEL_B = "b"
LABELS = (LABEL_A, LABEL_B)

FlipMode = Literal["global", "true-a", "true-b"]
FLIP_MODES: tuple[FlipMode, ...] = ("global", "true-a", "true-b")


class SketchError(ValueError):
    """Structurally invalid sketch data or a bad argument to a sketch op."""


def _is_int(value: object) -> bool:
    """An int, never a bool (which ``isinstance`` counts as one)."""
    return type(value) is int


def _is_ints(value: object, pair: bool = False) -> bool:
    """A list or tuple of ints, never bools (two of them if ``pair``)."""
    return (
        isinstance(value, (list, tuple))
        and (not pair or len(value) == 2)
        and all(map(_is_int, value))
    )


def _roster(ids: object) -> tuple[str, ...]:
    """A list or tuple of distinct non-empty strings, as a tuple."""
    if not isinstance(ids, (list, tuple)) or not all(isinstance(c, str) and c for c in ids):
        raise SketchError("classifier ids must be a list or tuple of non-empty strings")
    if len(set(ids)) != len(ids):
        raise SketchError("classifier ids must be unique")
    return tuple(ids)


def _rational(value: object, what: str) -> Fraction:
    """An int, a Fraction, or a string "n/d" or decimal such as "0.75",
    never a float or a bool.  A string with an exponent is refused: a few
    characters such as "1e100000000" would spell an integer of 10**8
    digits, which takes longer to build than any run should."""
    exponent = isinstance(value, str) and ("e" in value or "E" in value)
    if isinstance(value, (int, Fraction, str)) and not isinstance(value, bool) and not exponent:
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise SketchError(
        f"{what} must be ints, Fractions, or 'n/d' or decimal strings with no exponent"
    )


class _Value:
    """Base of the immutable value types that check their input.

    A subclass declares its fields as class annotations, checks its
    arguments in ``__init__`` and ends it with one call to
    :meth:`_store`.  A record equals only a record of its own class with
    equal fields; its hash and its repr are over the fields, and it
    refuses assignment and deletion.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def _store(self, *values: object) -> None:
        """Keep ``values`` as the fields, in their declared order."""
        # one attribute at a time: on CPython 3.11 a bulk update of
        # ``__dict__`` leaves every later field load about four times slower
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def other_label(label: str) -> str:
    if label == LABEL_A:
        return LABEL_B
    if label == LABEL_B:
        return LABEL_A
    raise SketchError(f"unknown label {label!r}; expected one of {LABELS}")


def all_patterns(size: int) -> list[str]:
    """All 2**size joint decision patterns in lexicographic order."""
    return ["".join(p) for p in itertools.product(LABELS, repeat=size)]


def flip_position(pattern: str, index: int) -> str:
    return pattern[:index] + other_label(pattern[index]) + pattern[index + 1 :]


class Marginals(NamedTuple):
    """How often one classifier said each label across the whole test."""

    r_a: int
    r_b: int


class IntInterval(NamedTuple):
    """Closed integer interval [lo, hi]; empty when lo > hi."""

    lo: int
    hi: int

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi


class EvaluationSketch(_Value):
    """Counts of joint decision patterns produced on a test of ``q`` items.

    ``counts`` maps pattern strings over the alphabet "ab" (position k
    is classifier k's response) to item counts.  ``truth_split``
    optionally refines each pattern count into a pair (items whose true
    label is a, items whose true label is b).  Zero entries are dropped
    on construction so equal sketches compare equal; instances are
    immutable after construction.

    Construction checks only structure: a list or tuple of distinct
    non-empty string ids, a positive int q, and mappings from patterns of
    the roster's length to ints and to pairs of ints.  Numeric consistency
    is the job of :func:`validate_sketch`, so that deliberately
    inconsistent sketches can still be built and reported.
    """

    classifiers: tuple[str, ...]
    q: int
    counts: Mapping[str, int]
    truth_split: Mapping[str, tuple[int, int]] | None

    def __init__(
        self,
        classifiers: Sequence[str],
        q: int,
        counts: Mapping[str, int],
        truth_split: Mapping[str, tuple[int, int]] | None = None,
    ) -> None:
        ids = _roster(classifiers)
        if not ids:
            raise SketchError("a sketch needs at least one classifier")
        if not _is_int(q) or q < 1:
            raise SketchError("q must be a positive integer")
        if not isinstance(counts, Mapping) or not isinstance(truth_split, Mapping | None):
            raise SketchError("counts and truth split must map patterns to counts")
        # each entry costs only C-level work, no Python call: a key is a
        # string of the roster's length that strips to nothing over "ab"
        size = len(ids)
        bad_key = "bad pattern key {!r}: want length %d over alphabet 'ab'" % size
        kept: dict[str, int] = {}
        for pattern in sorted(counts, key=str):  # a non-str key reaches the check
            if not isinstance(pattern, str) or len(pattern) != size or pattern.strip("ab"):
                raise SketchError(bad_key.format(pattern))
            value = counts[pattern]
            if type(value) is not int:
                raise SketchError(f"count for pattern {pattern!r} must be an integer")
            if value:
                kept[pattern] = value
        split: dict[str, tuple[int, int]] | None = None
        if truth_split is not None:
            split = {}
            for pattern in sorted(truth_split, key=str):
                if not isinstance(pattern, str) or len(pattern) != size or pattern.strip("ab"):
                    raise SketchError(bad_key.format(pattern))
                entry = truth_split[pattern]
                if not (
                    isinstance(entry, (list, tuple)) and len(entry) == 2
                    and type(entry[0]) is int and type(entry[1]) is int
                ):
                    raise SketchError(
                        f"truth split for pattern {pattern!r} must be a pair of integers"
                    )
                if entry[0] or entry[1]:
                    split[pattern] = (entry[0], entry[1])
        self._store(
            ids, q, MappingProxyType(kept), None if split is None else MappingProxyType(split)
        )

    @property
    def size(self) -> int:
        return len(self.classifiers)

    def index_of(self, classifier: str) -> int:
        try:
            return self.classifiers.index(classifier)
        except ValueError:
            raise SketchError(
                f"unknown classifier {classifier!r}; roster is {list(self.classifiers)}"
            ) from None


def marginalize(sketch: EvaluationSketch, classifier: str) -> Marginals:
    """Response totals (said a, said b) for one classifier."""
    idx = sketch.index_of(classifier)
    r_a = 0
    r_b = 0
    for pattern, n in sketch.counts.items():
        if pattern[idx] == LABEL_A:
            r_a += n
        else:
            r_b += n
    return Marginals(r_a, r_b)


def pair_counts(sketch: EvaluationSketch, first: str, second: str) -> dict[str, int]:
    """Joint decision counts for an ordered pair, keyed "aa".."bb"."""
    i = sketch.index_of(first)
    j = sketch.index_of(second)
    if i == j:
        raise SketchError("pair counts need two distinct classifiers")
    out = {"aa": 0, "ab": 0, "ba": 0, "bb": 0}
    for pattern, n in sketch.counts.items():
        out[pattern[i] + pattern[j]] += n
    return out


def validate_sketch(sketch: EvaluationSketch) -> list[str]:
    """Numeric consistency violations, empty when the sketch is sound."""
    counts, split = sketch.counts, sketch.truth_split
    # the constructor keeps counts and split in pattern order, so one walk
    # in that order words the problems in pattern order with no sort
    problems = [f"negative count for pattern {p}" for p, n in counts.items() if n < 0]
    total = sum(counts.values())
    if total != sketch.q:
        problems.append(f"pattern counts do not sum to Q (got {total}, expected {sketch.q})")
    if split is not None:
        same_keys = split.keys() == counts.keys()
        for pattern in counts if same_keys else sorted(counts.keys() | split.keys()):
            n_a, n_b = split.get(pattern, (0, 0))
            if n_a < 0 or n_b < 0:
                problems.append(f"negative truth split for pattern {pattern}")
            expected = counts.get(pattern, 0)
            if n_a + n_b != expected:
                problems.append(
                    f"truth split mismatch for pattern {pattern} "
                    f"({n_a}+{n_b} != {expected})"
                )
    return problems


def flip_labels(
    sketch: EvaluationSketch, classifier: str, mode: FlipMode
) -> EvaluationSketch:
    """Relabel one classifier's responses.

    "global" swaps the classifier's letter in every pattern.  "true-a"
    and "true-b" swap it only on items whose true label is a (resp. b),
    and therefore need a truth split.  Every mode is an involution.
    """
    if mode not in FLIP_MODES:
        raise SketchError(f"unknown flip mode {mode!r}; expected one of {FLIP_MODES}")
    idx = sketch.index_of(classifier)
    if mode == "global":
        counts = {flip_position(p, idx): n for p, n in sketch.counts.items()}
        split = None
        if sketch.truth_split is not None:
            split = {flip_position(p, idx): v for p, v in sketch.truth_split.items()}
        return EvaluationSketch(sketch.classifiers, sketch.q, counts, split)
    if sketch.truth_split is None:
        raise SketchError(f"flip mode {mode!r} needs a truth split")
    mismatch = [p for p in validate_sketch(sketch) if "truth split" in p]
    if mismatch:
        raise SketchError(
            "cannot apply a truth-conditioned flip to an inconsistent sketch: "
            + "; ".join(mismatch)
        )
    # the check above leaves no counted pattern outside the split; each
    # entry sends its true-a part to one key and its true-b part to the other
    moved: dict[str, list[int]] = {}
    for pattern, (n_a, n_b) in sketch.truth_split.items():
        flipped = flip_position(pattern, idx)
        to_a, to_b = (flipped, pattern) if mode == "true-a" else (pattern, flipped)
        moved.setdefault(to_a, [0, 0])[0] += n_a
        moved.setdefault(to_b, [0, 0])[1] += n_b
    counts = {p: a + b for p, (a, b) in moved.items()}
    return EvaluationSketch(sketch.classifiers, sketch.q, counts, moved)


def _thresholds(strict: object, **named: object) -> list[Fraction]:
    """A spec's thresholds as Fractions in [0, 1] (each an int, a
    Fraction or an "n/d" string), in the order named; refuses a
    ``strict`` that is not a bool."""
    if not isinstance(strict, bool):
        raise SketchError("strict must be a bool")
    kept = []
    for name, value in named.items():
        t = _rational(value, "thresholds")
        if not 0 <= t <= 1:
            # no digits: a value past 4300 of them cannot be printed
            raise SketchError(f"{name} outside [0, 1]")
        kept.append(t)
    return kept


class PerLabelSpec(_Value):
    """Require accuracy above a threshold on each label separately.

    With ``strict`` set (the default) the comparison is a strict
    inequality; a label with no items is vacuously satisfied.
    """

    threshold_a: Fraction
    threshold_b: Fraction
    strict: bool

    def __init__(
        self, threshold_a: Fraction, threshold_b: Fraction, strict: bool = True
    ) -> None:
        self._store(
            *_thresholds(strict, threshold_a=threshold_a, threshold_b=threshold_b), strict
        )


class OverallSpec(_Value):
    """Require prevalence-weighted overall accuracy above a threshold."""

    threshold: Fraction
    strict: bool

    def __init__(self, threshold: Fraction, strict: bool = True) -> None:
        self._store(*_thresholds(strict, threshold=threshold), strict)


SafetySpec = PerLabelSpec | OverallSpec
