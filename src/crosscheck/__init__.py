"""Logical-consistency auditing for ensembles of binary classifiers.

Given only the joint decision counts a group of classifiers produced on
a shared test, this package computes what their unobservable accuracies
could possibly be, raises an alarm when a safety requirement is
logically impossible to meet, and, for three error-independent
classifiers, recovers prevalence and accuracies exactly.

Every export is imported from its module on first use, so a process
loads only the modules it runs.
"""

from __future__ import annotations

import importlib
from typing import Callable, Mapping

__version__ = "0.1.0"

# module -> the names it exports here
_EXPORTS = {
    "alarm": ("AlarmTrace", "QaSlice", "Verdict", "min_count_above", "run_alarm"),
    "axioms": (
        "EvaluationPoint", "PSpaceStats", "feasible_interval_label_a",
        "feasible_interval_label_b", "point_axiom_violations", "pspace_stats", "sketch_point",
    ),
    "independent": (
        "Diagnosis", "IndependentParams", "IndependentSolution", "forward_model",
        "parse_params", "rational_sqrt", "solve_independent",
    ),
    "model": (
        "FLIP_MODES", "LABEL_A", "LABEL_B", "LABELS", "EvaluationSketch", "IntInterval",
        "Marginals", "OverallSpec", "PerLabelSpec", "SafetySpec", "SketchError",
        "all_patterns", "flip_labels", "flip_position", "marginalize", "other_label",
        "pair_counts", "validate_sketch",
    ),
    "oracle": (
        "DEFAULT_SPLIT_BUDGET", "SummaryClaims", "SummaryReport", "check_summary",
        "enumerate_evaluations", "evaluation_count", "parse_claims",
    ),
    "persist": (
        "FormatError", "IngestError", "atomic_write_text", "emit_trace", "load_sketch",
        "parse_sketch", "parse_trace", "save_sketch", "sketch_to_text", "trace_to_csv_text",
        "trace_to_json_text",
    ),
    "svg": ("render_traces",),
    "synth": ("generate_decisions",),
    "tables": (
        "DecisionRecord", "IngestResult", "decisions_to_csv_text", "ingest",
        "records_to_decisions", "sketch_from_decisions",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def _on_first_use(
    namespace: dict, exports: Mapping[str, tuple[str, ...]]
) -> Callable[[str], object]:
    """A module ``__getattr__`` (PEP 562) for the module whose globals
    are ``namespace``: it imports a name of ``exports`` (module of this
    package -> names) from its module, and keeps it in ``namespace``, so
    that the next lookup finds it there."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = importlib.import_module(f"{__name__}.{home[name]}")
        namespace[name] = value = getattr(module, name)
        return value

    return __getattr__


__getattr__ = _on_first_use(globals(), _EXPORTS)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
