"""The value types' contract: immutable records that compare, hash and
print by their fields, built positionally or by keyword alike."""

from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType

import pytest

from crosscheck import (
    AlarmTrace,
    DecisionRecord,
    Diagnosis,
    EvaluationPoint,
    EvaluationSketch,
    IndependentParams,
    IndependentSolution,
    IngestResult,
    IntInterval,
    OverallSpec,
    PerLabelSpec,
    PSpaceStats,
    QaSlice,
    SummaryClaims,
    SummaryReport,
    run_alarm,
)
from crosscheck.model import _Value

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
_TRACE = run_alarm(
    EvaluationSketch(("u", "v"), 4, {"aa": 2, "bb": 1, "ab": 1}), PerLabelSpec(HALF, HALF)
)

# (type, positional arguments, hashable)
CASES = [
    (EvaluationSketch, (("u", "v"), 2, {"ab": 1, "ba": 1}, {"ab": (1, 0), "ba": (0, 1)}), False),
    (EvaluationPoint, (1, (1, 0), (0, 1), {(0, 1): (0, 0)}), False),
    (EvaluationPoint, (1, (1,), (0,)), True),
    (PerLabelSpec, (HALF, THIRD, False), True),
    (OverallSpec, (HALF, True), True),
    (PSpaceStats, (
        ("u", "v"), HALF, HALF, (HALF, None), (THIRD, None),
        MappingProxyType({("u", "v"): THIRD}), MappingProxyType({("u", "v"): None}),
        MappingProxyType({("u", "v"): HALF}),
    ), False),
    (IntInterval, (0, 2), True),
    (QaSlice, (1, (IntInterval(0, 1),), (IntInterval(0, 0),), True, False), True),
    (AlarmTrace, tuple(getattr(_TRACE, name) for name in AlarmTrace._fields), True),
    (IndependentParams, (HALF, (Fraction(3, 4),), (Fraction(2, 3),)), True),
    (IndependentSolution, (None, None, Diagnosis.DEGENERATE, "no signal"), True),
    (SummaryClaims, ({"u": (1, 1)}, EvaluationPoint(1, (1,), (0,))), False),
    (SummaryReport, (("a violation",), False), True),
    (IngestResult, (
        (DecisionRecord("i1", MappingProxyType({"u": "a"})),), (("i2", "empty answer"),)
    ), False),
]


@pytest.mark.parametrize(
    "cls, args, hashable", CASES, ids=[f"{cls.__name__}-{k}" for k, (cls, *_) in enumerate(CASES)]
)
def test_value_types_are_immutable_records(cls, args, hashable):
    record, same = cls(*args), cls(*args)
    fields = cls._fields
    assert record == same
    assert cls(**dict(zip(fields, args))) == record
    if hashable:
        assert hash(record) == hash(same)
    else:
        with pytest.raises(TypeError):
            hash(record)
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in text for name in fields)
    for name in fields:
        kept = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, kept)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is kept
    if issubclass(cls, _Value):
        values = tuple(getattr(record, name) for name in fields)
        assert record != values
        assert record != namedtuple(cls.__name__, fields)(*values)
        with pytest.raises(AttributeError):
            record.extra = 1
