"""crosscheck benchmark: end-to-end and per-layer metrics of three workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload tall-audit --seed 1 --seconds 30 --trace 0

``--trace 0`` measures end to end.  It sets the workload up five
times (``setup_s`` is the package import plus the median set-up, a
set-up being input generation and one warm-up job), then runs jobs in a
closed loop, one client and one job in flight, for ``--seconds``: one
job of each class per cycle.  Each class reports its median job time
(``.p50``) and its tail: the highest percentile with at least ten
samples beyond it, printed with that percentile and the sample count.
``peak_rss_mib`` is the peak resident memory of the benchmark process,
which runs the in-process jobs, or for ``fixture-cli`` of its largest
child.

Times are calibrated: each is multiplied by a reference over the time a
fixed slice of pure-Python work took around it (``harness.calibrate``).
On a quiet host that factor is about one; on a shared host that slows
down for minutes at a time it keeps the figures steady.

``--trace 1`` measures the layers.  It alternates untraced and traced
passes over every job of the workload for ``--seconds`` (at least one
of each); a traced pass wraps crosscheck's public functions from
``tracer.py``.  Times are the median over traced passes of each layer's
self time per pass; counters come from the first traced pass, so they
repeat exactly for one seed.  ``trace.overhead_s`` is a traced pass's
time minus an untraced one's.  ``cli.interp_s`` and ``cli.import_s``
time fresh interpreters that run nothing and that import
``crosscheck.cli``.  Spans of the traced passes are written to
``.perfbench/spans-<workload>-<seed>.jsonl``.

Every job's output is checked (see ``workloads.py``): the first run of a
job in full, every later run for identical exit code, output and file
digests.  A job that fails a check, raises, exits with an unexpected
code or runs past its budget (``harness.JOB_BUDGET_S``) counts as
failed, and ``fail_ratio`` (printed, and equal to ``failed`` over
``attempted`` in the result) is their share.  ``--corrupt`` damages
every output before it is checked, to show that the checks catch it.
The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fixture-cli", "tall-audit", "wide-refine"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="damage every output before checking it")
    args = parser.parse_args(argv)
    if not (SRC / "crosscheck" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no crosscheck sources under {ROOT}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import crosscheck.cli as cli

    import_s = perf_counter() - start
    if Path(cli.__file__).resolve().parent != SRC / "crosscheck":
        print(f"error: imported crosscheck from {cli.__file__}", file=sys.stderr)
        return 1
    import harness

    try:
        runner, metrics = harness.measure(args.workload, args.seed, args.seconds,
                                          bool(args.trace), args.corrupt, cli, import_s)
    except harness.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    for line in runner.failures:
        print(f"failed: {line}")
    print(f"fail_ratio: {runner.failed / runner.attempted:.6f} "
          f"({runner.failed} of {runner.attempted} jobs)")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
