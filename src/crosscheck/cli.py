"""Command-line front end.

Exit codes are part of the interface: 0 for success, 2 when an alarm
run ends Triggered (so pipelines can branch on the verdict), and 1 for
usage, file, or data errors.
"""

from __future__ import annotations

import errno
import os
import sys
from fractions import Fraction
from functools import cache
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, NoReturn, Sequence

if TYPE_CHECKING:
    import argparse

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


class _Refused(ValueError):
    """A command-line value a converter refuses, in the words the usage
    error gives after ``argument --option:``."""


def _fraction(text: str) -> Fraction:
    try:
        return _rational(text, "thresholds")
    except SketchError:
        raise _Refused(
            f"not an 'n/d' or decimal number with no exponent: {text!r}"
        ) from None


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise _Refused(f"not a non-negative integer: {text!r}")
    return value


def _parse_label_map(pairs: Sequence[str]) -> dict[str, str] | None:
    if not pairs:
        return None
    label_map: dict[str, str] = {}
    for pair in pairs:
        source, sep, target = pair.partition("=")
        if not sep or not source:
            raise IngestError(f"bad --map entry {pair!r}; want SOURCE=LABEL")
        if source in label_map:
            raise IngestError(f"--map gives source {source!r} twice")
        label_map[source] = target
    return label_map


def _cmd_ingest(args: SimpleNamespace) -> int:
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


def _cmd_sketch(args: SimpleNamespace) -> int:
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
                f"accuracy {cid}: true-a {_ratio(stats.accuracy_a[idx])}, "
                f"true-b {_ratio(stats.accuracy_b[idx])}"
            )
        for (first, second), value in stats.delta.items():
            print(f"pattern covariance {first},{second}: {value}")
    return EXIT_OK


def _ratio(value: Fraction | None) -> str:
    """An accuracy as ``sketch`` prints it: None, for a label with no
    items, is ``undefined``."""
    return "undefined" if value is None else str(value)


def _trace_format(path: str) -> str:
    lowered = path.lower()
    for fmt in ("csv", "json", "svg"):
        if lowered.endswith("." + fmt):
            return fmt
    raise FormatError(f"cannot infer a trace format from {path!r}")


def _cmd_alarm(args: SimpleNamespace) -> int:
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


def _cmd_enumerate(args: SimpleNamespace) -> int:
    if args.count_only:
        print(_cli.evaluation_count(args.q))
        return EXIT_OK
    for point in _cli.enumerate_evaluations(args.q):
        print(f"{point.q_a} {point.correct_a[0]} {point.correct_b[0]}")
    return EXIT_OK


def _cmd_verify(args: SimpleNamespace) -> int:
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


def _cmd_solve(args: SimpleNamespace) -> int:
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


def _cmd_generate(args: SimpleNamespace) -> int:
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


def _cmd_flip(args: SimpleNamespace) -> int:
    sketch = load_sketch(args.path)
    flipped = flip_labels(sketch, args.classifier, args.mode)
    save_sketch(flipped, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


class _Arg(NamedTuple):
    """One argument of a subcommand, as both argv readers take it."""

    flag: str  # an option's flag ("--out"), or a positional's name ("path")
    help: str | None = None
    kind: str = "store"  # "store", "store_true", "append" or "boolean" (--x / --no-x)
    nargs: int | None = None  # None: one value; n: a list of n values
    convert: Callable[[str], object] | None = None
    choices: tuple[str, ...] | None = None
    default: object = None
    required: bool = False
    group: str | None = None  # the options of one group exclude each other
    metavar: str | tuple[str, ...] | None = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


# Every subcommand: its help line, the function that runs it, and its
# arguments in the order help lists them.  main reads argv from this
# table (_read_argv), and build_parser builds argparse from it.
_COMMANDS: dict[str, tuple[str, Callable[[SimpleNamespace], int], tuple[_Arg, ...]]] = {
    "ingest": ("turn a decision table into a sketch file", _cmd_ingest, (
        _Arg("path", "decision table file"),
        _Arg("--format", choices=("csv", "jsonl"), required=True),
        _Arg("--map", "map a source label to a or b; repeatable", kind="append",
             default=[], metavar="SOURCE=LABEL"),
        _Arg("--out", "sketch file to write", required=True),
    )),
    "sketch": ("print a sketch's marginals and statistics", _cmd_sketch, (
        _Arg("path", "sketch file"),
    )),
    "alarm": ("scan prevalence hypotheses for safety", _cmd_alarm, (
        _Arg("path", "sketch file"),
        _Arg("--spec-per-label", "required accuracy on each label (default 1/2)",
             convert=_fraction, group="spec", metavar="T"),
        _Arg("--spec-overall", "required prevalence-weighted overall accuracy",
             convert=_fraction, group="spec", metavar="T"),
        _Arg("--strict", "require strictly above the threshold (default) or at least it",
             kind="boolean", default=True),
        _Arg("--pair", "audit two classifiers", nargs=2, group="mode", metavar=("I", "J")),
        _Arg("--ensemble", "audit the whole roster (default)", kind="store_true",
             default=False, group="mode"),
        _Arg("--refine-pairs", "enforce pairwise coupling constraints inside each hypothesis",
             kind="store_true", default=False),
        _Arg("--qa-range", "restrict the verdict to hypotheses in [LO, HI]", nargs=2,
             convert=int, metavar=("LO", "HI")),
        _Arg("--trace", "write the full trace (.csv or .json)"),
        _Arg("--plot", "write the full trace as a band plot (.svg)"),
    )),
    "enumerate": ("walk the single-classifier outcome space", _cmd_enumerate, (
        _Arg("--q", "test size", convert=int, required=True),
        _Arg("--count-only", "print only the count", kind="store_true", default=False),
    )),
    "verify": ("audit a sketch and optional claims about it", _cmd_verify, (
        _Arg("path", "sketch file"),
        _Arg("--claims", "claims file (marginals and/or a point)"),
        # None: DEFAULT_SPLIT_BUDGET steps, read when verify runs
        _Arg("--budget", "give up the search for a claimed point after this many steps",
             convert=_non_negative),
    )),
    "solve-independent": (
        "recover prevalence and accuracies from three classifiers", _cmd_solve, (
            _Arg("path", "sketch file with exactly three classifiers"),
        ),
    ),
    "generate": ("draw a synthetic labeled decision table", _cmd_generate, (
        _Arg("--seed", convert=int, required=True),
        _Arg("--params", "parameter file", required=True),
        _Arg("--q", "number of items", convert=int, required=True),
        _Arg("--out", "write csv here instead of stdout"),
    )),
    "flip": ("relabel one classifier's responses", _cmd_flip, (
        _Arg("path", "sketch file"),
        _Arg("--classifier", required=True),
        _Arg("--mode", choices=FLIP_MODES, required=True),
        _Arg("--out", "sketch file to write", required=True),
    )),
}


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives, read from
    ``_COMMANDS`` without argparse, or None for any argv this reader does
    not take exactly: no command, an option not spelled in full,
    ``--opt=value``, ``-h``, ``--``, a value that starts with '-', too few
    or too many values, a value its conversion or choices refuse, a
    missing required argument, two options of one exclusive group, or an
    option other than an append given twice.  main hands those to
    argparse, which words the help or the usage error."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    positionals = [arg for arg in arguments if arg.flag[0] != "-"]
    options = {arg.flag: arg for arg in arguments if arg.flag[0] == "-"}
    options.update({"--no-" + arg.flag[2:]: arg for arg in arguments if arg.kind == "boolean"})
    values = {
        arg.dest: list(arg.default) if arg.kind == "append" else arg.default
        for arg in arguments
    }
    seen: set[str] = set()
    groups: set[str] = set()
    at = 1
    while at < len(argv):
        token = argv[at]
        if token[:1] != "-":
            if not positionals:
                return None
            arg, count = positionals.pop(0), 1
        else:
            arg = options.get(token)
            if arg is None or arg.group in groups or (arg.dest in seen and arg.kind != "append"):
                return None
            if arg.group is not None:
                groups.add(arg.group)
            at += 1
            count = 0 if arg.kind in ("store_true", "boolean") else arg.nargs or 1
        raw = argv[at : at + count]
        at += count
        if len(raw) < count or any(text[:1] == "-" for text in raw):
            return None
        try:
            read = [arg.convert(text) for text in raw] if arg.convert else list(raw)
        except ValueError:
            return None
        if arg.choices is not None and any(value not in arg.choices for value in read):
            return None
        seen.add(arg.dest)
        if not count:
            values[arg.dest] = token == arg.flag
        elif arg.kind == "append":
            values[arg.dest].append(read[0])
        else:
            values[arg.dest] = read if arg.nargs else read[0]
    if positionals or any(arg.required and arg.dest not in seen for arg in arguments):
        return None
    return SimpleNamespace(command=argv[0], func=func, **values)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the ``_COMMANDS`` table, built once per
    process (``parse_args`` never changes it).  main parses with it only
    the argv that ``_read_argv`` does not take, so that help and every
    usage error keep argparse's words."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse exits 2 on usage errors; this tool reserves 2 for the
        alarm verdict, so usage problems exit 1 instead."""

        def error(self, message: str) -> NoReturn:
            self.print_usage(sys.stderr)
            self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")

    def typed(convert: Callable[[str], object]) -> Callable[[str], object]:
        def read(text: str) -> object:
            try:
                return convert(text)
            except _Refused as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        # argparse names the type in its words for any other refusal
        read.__name__ = convert.__name__
        return read

    parser = Parser(prog="crosscheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)
    for name, (summary, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        groups = {}
        for arg in arguments:
            settings: dict[str, object] = {
                "action": argparse.BooleanOptionalAction if arg.kind == "boolean" else arg.kind,
                "help": arg.help,
                "default": arg.default,
            }
            if arg.kind in ("store", "append"):
                settings.update(
                    nargs=arg.nargs, choices=arg.choices, metavar=arg.metavar,
                    type=typed(arg.convert) if arg.convert else None,
                )
            if arg.required:
                settings["required"] = True
            target = p
            if arg.group is not None:
                if arg.group not in groups:
                    groups[arg.group] = p.add_mutually_exclusive_group()
                target = groups[arg.group]
            target.add_argument(arg.flag, **settings)
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv, SimpleNamespace())
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else EXIT_ERROR
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone (`crosscheck enumerate | head -1`): nothing
        # to say, and the flush at exit writes to devnull, not to the pipe;
        # not 0, since what was written was not all read
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
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
