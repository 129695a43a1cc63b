import pathlib
import warnings

import pytest

from crosscheck import EvaluationSketch, load_sketch

# Hypothesis builds the patch it prints for a falsified property with
# libcst, whose import of mypy_extensions.TypedDict warns; under -W error
# that warning aborts the whole session instead of reporting the failure.
# Import it once here with only that third-party warning silenced.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

GRADING_COUNTS = {
    "aaa": 12,
    "aba": 121,
    "abb": 13,
    "baa": 14,
    "bab": 1,
    "bba": 87,
    "bbb": 33,
}
GRADING_SPLIT = {
    "aaa": (12, 0),
    "aba": (113, 8),
    "abb": (11, 2),
    "baa": (14, 0),
    "bab": (0, 1),
    "bba": (72, 15),
    "bbb": (15, 18),
}
GRADING_ROSTER = ("claude", "mistral", "gpt4")
GRADING_Q = 281


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def grading_sketch() -> EvaluationSketch:
    return load_sketch(FIXTURES / "llm_grading.json")


@pytest.fixture(scope="session")
def grading_bare(grading_sketch: EvaluationSketch) -> EvaluationSketch:
    # Same table with the ground-truth column withheld.
    return EvaluationSketch(
        grading_sketch.classifiers, grading_sketch.q, dict(grading_sketch.counts)
    )
