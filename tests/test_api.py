"""The public surface, pinned: a name added to or dropped from
``crosscheck.__all__`` must be made here too, so the change shows in
review."""

import crosscheck

PUBLIC = [
    "AlarmTrace", "DEFAULT_SPLIT_BUDGET", "DecisionRecord", "Diagnosis",
    "EvaluationPoint", "EvaluationSketch", "FLIP_MODES", "FormatError",
    "IndependentParams", "IndependentSolution", "IngestError", "IngestResult",
    "IntInterval", "LABELS", "LABEL_A", "LABEL_B", "Marginals", "OverallSpec",
    "PSpaceStats", "PerLabelSpec", "QaSlice", "SafetySpec", "SketchError",
    "SummaryClaims", "SummaryReport", "Verdict", "all_patterns", "atomic_write_text",
    "check_summary", "decisions_to_csv_text", "emit_trace", "enumerate_evaluations",
    "evaluation_count", "feasible_interval_label_a", "feasible_interval_label_b",
    "flip_labels", "flip_position", "forward_model", "generate_decisions", "ingest",
    "load_sketch", "marginalize", "min_count_above", "other_label", "pair_counts",
    "parse_claims", "parse_params", "parse_sketch", "parse_trace", "point_axiom_violations",
    "pspace_stats", "rational_sqrt", "records_to_decisions", "render_traces", "run_alarm",
    "save_sketch",
    "sketch_from_decisions", "sketch_point", "sketch_to_text", "solve_independent",
    "trace_to_csv_text", "trace_to_json_text", "validate_sketch",
]


def test_public_names_are_pinned():
    assert sorted(crosscheck.__all__) == PUBLIC
    assert len(set(crosscheck.__all__)) == len(crosscheck.__all__)


def test_every_public_name_resolves():
    for name in crosscheck.__all__:
        assert hasattr(crosscheck, name), name
