"""Command-line front end.

Exit codes are part of the interface: 0 for success, 2 when an alarm
run ends Triggered (so pipelines can branch on the verdict), and 1 for
usage, file, or data errors.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from fractions import Fraction
from functools import cache
from typing import NoReturn, Sequence

from . import _on_first_use
from .model import (
    FLIP_MODES,
    OverallSpec,
    PerLabelSpec,
    SketchError,
    _rational,
    flip_labels,
    marginalize,
    validate_sketch,
)
from .persist import (
    FormatError,
    IngestError,
    atomic_write_text,
    emit_trace,
    load_sketch,
    save_sketch,
)

# What only some subcommands run is imported on its first use, through
# this module's __getattr__.  The commands look these names up on the
# module (``_cli.run_alarm``), never as bare globals or local imports, so
# that a replacement set on ``crosscheck.cli`` is the one they call.
__getattr__ = _on_first_use(globals(), {
    "alarm": ("Verdict", "check_qa_range", "count_safe_hypotheses", "run_alarm"),
    "axioms": ("pspace_stats",),
    "independent": ("parse_params", "solve_independent"),
    "oracle": (
        "DEFAULT_SPLIT_BUDGET", "SummaryClaims", "check_summary", "enumerate_evaluations",
        "evaluation_count", "parse_claims",
    ),
    "synth": ("generate_decisions",),
    "tables": (
        "decisions_to_csv_text", "ingest", "records_to_decisions", "sketch_from_decisions",
    ),
})
_cli = sys.modules[__name__]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TRIGGERED = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for the
    alarm verdict, so usage problems exit 1 instead."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        return _rational(text, "thresholds")
    except SketchError:
        raise argparse.ArgumentTypeError(
            f"not an 'n/d' or decimal number with no exponent: {text!r}"
        ) from None


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


@cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: ``parse_args``
    never changes it."""
    parser = _Parser(prog="crosscheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="turn a decision table into a sketch file")
    p.add_argument("path", help="decision table file")
    p.add_argument("--format", choices=("csv", "jsonl"), required=True)
    p.add_argument(
        "--map",
        action="append",
        default=[],
        metavar="SOURCE=LABEL",
        help="map a source label to a or b; repeatable",
    )
    p.add_argument("--out", required=True, help="sketch file to write")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("sketch", help="print a sketch's marginals and statistics")
    p.add_argument("path", help="sketch file")
    p.set_defaults(func=_cmd_sketch)

    p = sub.add_parser("alarm", help="scan prevalence hypotheses for safety")
    p.add_argument("path", help="sketch file")
    spec = p.add_mutually_exclusive_group()
    spec.add_argument(
        "--spec-per-label",
        type=_fraction,
        default=None,
        metavar="T",
        help="required accuracy on each label (default 1/2)",
    )
    spec.add_argument(
        "--spec-overall",
        type=_fraction,
        default=None,
        metavar="T",
        help="required prevalence-weighted overall accuracy",
    )
    p.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="require strictly above the threshold (default) or at least it",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--pair", nargs=2, metavar=("I", "J"), help="audit two classifiers")
    mode.add_argument(
        "--ensemble", action="store_true", help="audit the whole roster (default)"
    )
    p.add_argument(
        "--refine-pairs",
        action="store_true",
        help="enforce pairwise coupling constraints inside each hypothesis",
    )
    p.add_argument(
        "--qa-range",
        nargs=2,
        type=int,
        metavar=("LO", "HI"),
        help="restrict the verdict to hypotheses in [LO, HI]",
    )
    p.add_argument("--trace", help="write the full trace (.csv or .json)")
    p.add_argument("--plot", help="write the full trace as a band plot (.svg)")
    p.set_defaults(func=_cmd_alarm)

    p = sub.add_parser("enumerate", help="walk the single-classifier outcome space")
    p.add_argument("--q", type=int, required=True, help="test size")
    p.add_argument("--count-only", action="store_true", help="print only the count")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="audit a sketch and optional claims about it")
    p.add_argument("path", help="sketch file")
    p.add_argument("--claims", help="claims file (marginals and/or a point)")
    p.add_argument(
        "--budget",
        type=_non_negative,
        # DEFAULT_SPLIT_BUDGET steps, read when verify runs
        default=None,
        help="give up the search for a claimed point after this many steps",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "solve-independent",
        help="recover prevalence and accuracies from three classifiers",
    )
    p.add_argument("path", help="sketch file with exactly three classifiers")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("generate", help="draw a synthetic labeled decision table")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--params", required=True, help="parameter file")
    p.add_argument("--q", type=int, required=True, help="number of items")
    p.add_argument("--out", help="write csv here instead of stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("flip", help="relabel one classifier's responses")
    p.add_argument("path", help="sketch file")
    p.add_argument("--classifier", required=True)
    p.add_argument("--mode", choices=FLIP_MODES, required=True)
    p.add_argument("--out", required=True, help="sketch file to write")
    p.set_defaults(func=_cmd_flip)

    return parser


def _parse_label_map(pairs: Sequence[str]) -> dict[str, str] | None:
    if not pairs:
        return None
    label_map: dict[str, str] = {}
    for pair in pairs:
        source, sep, target = pair.partition("=")
        if not sep or not source:
            raise IngestError(f"bad --map entry {pair!r}; want SOURCE=LABEL")
        label_map[source] = target
    return label_map


def _cmd_ingest(args: argparse.Namespace) -> int:
    result = _cli.ingest(args.path, args.format, _parse_label_map(args.map))
    if not result.records:
        raise IngestError("no usable records after ingestion")
    decisions, truth = _cli.records_to_decisions(result)
    sketch = _cli.sketch_from_decisions(decisions, result.roster, truth)
    save_sketch(sketch, args.out)
    print(f"kept {len(result.records)} items over {len(result.roster)} classifiers")
    for item_id, reason in result.dropped:
        print(f"dropped {item_id}: {reason}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_sketch(args: argparse.Namespace) -> int:
    sketch = load_sketch(args.path)
    problems = validate_sketch(sketch)
    print(f"q: {sketch.q}")
    print(f"classifiers: {', '.join(sketch.classifiers)}")
    for cid in sketch.classifiers:
        m = marginalize(sketch, cid)
        print(f"marginals {cid}: said-a {m.r_a}, said-b {m.r_b}")
    if problems:
        for problem in problems:
            print(f"violation: {problem}")
        return EXIT_ERROR
    if sketch.truth_split is not None:
        stats = _cli.pspace_stats(sketch)
        print(f"true-a items: {stats.p_a * sketch.q} of {sketch.q}")
        for idx, cid in enumerate(sketch.classifiers):
            print(
                f"accuracy {cid}: true-a {stats.accuracy_a[idx]}, "
                f"true-b {stats.accuracy_b[idx]}"
            )
        for (first, second), value in stats.delta.items():
            print(f"pattern covariance {first},{second}: {value}")
    return EXIT_OK


def _trace_format(path: str) -> str:
    lowered = path.lower()
    for fmt in ("csv", "json", "svg"):
        if lowered.endswith("." + fmt):
            return fmt
    raise FormatError(f"cannot infer a trace format from {path!r}")


def _cmd_alarm(args: argparse.Namespace) -> int:
    # check the output names first, so a bad one costs no work and no output
    trace_fmt = _trace_format(args.trace) if args.trace else None
    if trace_fmt == "svg":
        raise FormatError("--trace writes csv or json; use --plot for svg")
    if args.plot and _trace_format(args.plot) != "svg":
        raise FormatError("--plot writes svg; use --trace for csv or json")
    for out in (args.trace, args.plot):
        if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise FileNotFoundError(errno.ENOENT, "No such directory", out)
    sketch = load_sketch(args.path)
    lo, hi = _cli.check_qa_range(sketch.q, args.qa_range or (0, sketch.q))
    if args.spec_overall is not None:
        spec = OverallSpec(args.spec_overall, args.strict)
    else:
        threshold = (
            args.spec_per_label if args.spec_per_label is not None else Fraction(1, 2)
        )
        spec = PerLabelSpec(threshold, threshold, args.strict)
    pair = tuple(args.pair) if args.pair else None
    if args.trace or args.plot:
        trace = _cli.run_alarm(sketch, spec, pair=pair, refine=args.refine_pairs)
        safe = sum(trace.safe[lo : hi + 1])
    else:
        safe = _cli.count_safe_hypotheses(
            sketch, spec, pair=pair, refine=args.refine_pairs, qa_range=(lo, hi)
        )
    if args.qa_range:
        print(f"hypotheses restricted to [{lo}, {hi}]")
    if args.trace:
        emit_trace(trace, trace_fmt, args.trace)
        print(f"wrote {args.trace}")
    if args.plot:
        emit_trace(trace, "svg", args.plot)
        print(f"wrote {args.plot}")
    verdict = _cli.Verdict.NOT_TRIGGERED if safe else _cli.Verdict.TRIGGERED
    print(f"safe hypotheses: {safe} of {hi - lo + 1}")
    print(f"verdict: {verdict.value}")
    return EXIT_OK if safe else EXIT_TRIGGERED


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.count_only:
        print(_cli.evaluation_count(args.q))
        return EXIT_OK
    for point in _cli.enumerate_evaluations(args.q):
        print(f"{point.q_a} {point.correct_a[0]} {point.correct_b[0]}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    sketch = load_sketch(args.path)
    claims = _cli.SummaryClaims({})
    if args.claims:
        with open(args.claims, encoding="utf-8") as handle:
            claims = _cli.parse_claims(handle.read(), sketch)
    budget = _cli.DEFAULT_SPLIT_BUDGET if args.budget is None else args.budget
    report = _cli.check_summary(sketch, claims, budget=budget)
    for violation in report.violations:
        print(f"violation: {violation}")
    if report.undecided:
        print("note: ground-truth enumeration skipped (budget exceeded)")
    if report.ok:
        print("ok")
        return EXIT_OK
    return EXIT_ERROR


def _cmd_solve(args: argparse.Namespace) -> int:
    sketch = load_sketch(args.path)
    solution = _cli.solve_independent(sketch)
    if not solution.consistent:
        print(f"inconsistent: {solution.diagnosis.value}")
        print(f"witness: {solution.witness}")
        return EXIT_OK
    for name, params in (("primary", solution.primary), ("mirror", solution.mirror)):
        acc_a = ", ".join(str(x) for x in params.accuracy_a)
        acc_b = ", ".join(str(x) for x in params.accuracy_b)
        print(f"{name}: prevalence-a {params.p_a}; accuracy-a [{acc_a}]; "
              f"accuracy-b [{acc_b}]")
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    with open(args.params, encoding="utf-8") as handle:
        ids, params = _cli.parse_params(handle.read())
    if ids is None:
        ids = tuple(f"clf{k + 1}" for k in range(params.size))
    decisions, truth = _cli.generate_decisions(ids, params, args.q, args.seed)
    text = _cli.decisions_to_csv_text(decisions, ids, truth)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_flip(args: argparse.Namespace) -> int:
    sketch = load_sketch(args.path)
    flipped = flip_labels(sketch, args.classifier, args.mode)
    save_sketch(flipped, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_ERROR
    try:
        return args.func(args)
    # SketchError, FormatError and IngestError are ValueErrors
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:  # say, a trace of more hypotheses than memory holds
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
