"""Job runner, checks bookkeeping and the two measurements.

See ``run.py`` for what is measured and how.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import CLASSES, WORKLOADS, Outcome, SetupError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
CHILD = HERE / "child.py"

SETUP_REPEATS = 5
# Typical jobs take well under a second; a job past this is stopped and failed.
JOB_BUDGET_S = 10.0
OVER_BUDGET = f"stopped after the {JOB_BUDGET_S} s budget"
# For the benchmark's own interpreter probes, which only start Python.
PROBE_TIMEOUT_S = 30.0
TAIL_BEYOND = 10
# Seconds calibrate() takes on the reference host when it is quiet (see
# context.json).  Every time is multiplied by this over the calibrations
# taken around it: a job's by the mean of the ones just before and after
# it.  A shared host that slows down for seconds or minutes at a time then
# moves the figures far less than it moves wall time.
CALIBRATION_REF_S = 0.001
# The same for a fresh job, whose time follows how fast the host starts
# processes rather than how fast it runs Python: seconds an interpreter
# that runs nothing takes on the reference host when it is quiet, over
# the mean of the ones started just before and after the job.
INTERPRETER_REF_S = 0.035
FRESH_SAMPLES = 7
ENTRY = "from crosscheck.cli import run; run()"
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import crosscheck.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = ("ingest", "verdict", "refine", "report", "cli")
PER_LAYER = (
    ("cli.interp_s", "s"), ("cli.import_s", "s"), ("cli.main_self_s", "s"),
    ("persist.ingest_s", "s"), ("persist.ingest_items", "count"),
    ("persist.load_sketch_s", "s"), ("persist.save_sketch_s", "s"),
    ("persist.trace_json_s", "s"), ("persist.trace_csv_s", "s"),
    ("persist.trace_bytes", "bytes"), ("persist.write_s", "s"),
    ("persist.write_bytes", "bytes"),
    ("model.sketch_build_s", "s"), ("model.marginalize_calls", "count"),
    ("model.marginalize_s", "s"), ("model.pair_counts_calls", "count"),
    ("model.pair_counts_s", "s"), ("model.validate_s", "s"),
    ("axioms.interval_calls", "count"), ("axioms.interval_s", "s"),
    ("axioms.pair_partner_calls", "count"), ("axioms.pair_partner_s", "s"),
    ("alarm.hypotheses", "count"), ("alarm.evaluate_qa_self_s", "s"),
    ("alarm.run_alarm_self_s", "s"), ("alarm.safe_ratio", "ratio"),
    ("alarm.partner_calls_per_hypothesis", "ratio"),
    ("svg.render_s", "s"), ("svg.bytes", "bytes"),
    ("independent.solve_s", "s"), ("oracle.check_summary_s", "s"),
    ("trace.pass_s", "s"), ("trace.overhead_s", "s"),
    ("trace.missing_wrappers", "count"),
)


class JobTimeout(Exception):
    """Raised by SIGALRM in an in-process job that ran past its budget."""


def _on_alarm(signum, frame):
    raise JobTimeout


class Runner:
    """Runs jobs one at a time, checks them and keeps the tally."""

    def __init__(self, cli, corrupt: bool) -> None:
        self.cli = cli
        self.corrupt = corrupt
        self.work = STATE
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.tracer = None
        self.fingerprints: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.calibrations: list[float] = []
        self.starts: list[float] = []

    def run(self, job) -> float:
        """Run and check one job; return its calibrated seconds."""
        for name in job.outputs:
            (self.work / name).unlink(missing_ok=True)
        execute = self._fresh if job.fresh else self._inprocess
        if self.tracer is None:
            out = execute(job)
        else:
            out = self.tracer.call(f"job.{job.cls}", execute, None, (job,), {})
        self._judge(job, out)
        if job.fresh:
            reference, seen, measure = INTERPRETER_REF_S, self.starts, self.start_interpreter
        else:
            reference, seen, measure = CALIBRATION_REF_S, self.calibrations, calibrate
        before = seen[-1] if seen else measure()
        seen.append(measure())
        return out.wall * reference * 2 / (before + seen[-1])

    def start_interpreter(self) -> float:
        """Wall seconds of a fresh interpreter that runs nothing."""
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=self.work, env=self.env,
                       capture_output=True, timeout=PROBE_TIMEOUT_S, check=True)
        return perf_counter() - start

    def _inprocess(self, job):
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, None
        start = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
            try:
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = self.cli.main(list(job.argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:
            error = OVER_BUDGET
        except Exception as exc:  # a raising job is a failed job, not a failed benchmark
            error = f"raised {type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        return Outcome(code, stdout.getvalue(), stderr.getvalue(), wall, error)

    def _fresh(self, job):
        if self.tracer is None:
            cmd = [sys.executable, "-c", ENTRY, *job.argv]
        else:
            dump = self.work / ".trace-child.json"
            dump.unlink(missing_ok=True)
            cmd = [sys.executable, str(CHILD), str(dump), *job.argv]
        start = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=JOB_BUDGET_S)
        except subprocess.TimeoutExpired:
            return Outcome(None, "", "", perf_counter() - start, OVER_BUDGET)
        wall = perf_counter() - start
        if self.tracer is not None and dump.exists():
            self.tracer.merge(json.loads(dump.read_text()))
        return Outcome(proc.returncode, proc.stdout, proc.stderr, wall)

    def _judge(self, job, out) -> None:
        self.attempted += 1
        if self.corrupt:
            _corrupt(self.work, job, out)
        if out.error:
            problems = [out.error]
        else:
            try:
                files = tuple(digest(self.work / name) for name in job.outputs)
            except OSError as exc:
                files = (str(exc),)
            fingerprint = (out.code, out.stdout, out.stderr, files)
            known = self.fingerprints.get(job.argv)
            if known is None:
                try:
                    problems = job.check(out)
                except (OSError, ValueError, LookupError, TypeError, ET.ParseError) as exc:
                    problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
                if not problems:
                    self.fingerprints[job.argv] = fingerprint
            elif known != fingerprint:
                problems = ["output differs from the first run of this job"]
            else:
                problems = []
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"crosscheck {' '.join(job.argv)}: {'; '.join(problems)}")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _corrupt(work: Path, job, out) -> None:
    """Damage one output the way a broken program might: truncate a
    written file, or garble the first line printed."""
    if job.outputs:
        path = work / job.outputs[0]
        if path.exists():
            data = path.read_bytes()
            path.write_bytes(data[: max(0, len(data) - 20)])
    else:
        out.stdout = "#" + out.stdout


def calibrate() -> float:
    """Seconds for a fixed slice of pure-Python work, the best of three."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        table: dict[int, int] = {}
        for i in range(3000):
            key = (i * 7919) % 1013
            table[key] = table.get(key, 0) + i
            f"{key}:{i}"
        best = min(best, perf_counter() - start)
    return best


def tail(values):
    """(value, percentile): the highest order statistic with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def schedule(jobs) -> list:
    """The pass order: classes interleaved, each class's jobs in turn."""
    by_class = [[j for j in jobs if j.cls == cls] for cls in CLASSES]
    order = []
    for k in range(max(len(group) for group in by_class)):
        order += [group[k] for group in by_class if k < len(group)]
    return order


def _import_seconds(runner) -> float:
    """Median seconds a fresh interpreter takes to import crosscheck.cli."""
    samples = []
    for _ in range(FRESH_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=runner.work,
                              env=runner.env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def set_up(name, seed, runner):
    """Build the inputs SETUP_REPEATS times, each followed by one warm-up
    job; return (jobs of the last set-up, median set-up seconds).  The
    input building is scaled by the calibrations taken around it."""
    build = WORKLOADS[name]
    times = []
    for k in range(SETUP_REPEATS):
        before = calibrate()
        start = perf_counter()
        work = STATE / f"work-{name}-{os.getpid()}-{k}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        os.chdir(work)
        runner.work = work
        jobs = build(ROOT, work, seed)
        built = (perf_counter() - start) * CALIBRATION_REF_S * 2 / (before + calibrate())
        times.append(built + runner.run(next(j for j in jobs if j.cls == "verdict")))
    return jobs, statistics.median(times)


def measure_end_to_end(name, seconds, runner, jobs, setup_s) -> dict:
    # One job of each class per cycle.  Within a class the first (heaviest)
    # job runs twice between each of the others, so it holds two thirds of
    # the class's samples: the median and the tail then both fall on that
    # job's own spread instead of jumping between jobs of different cost
    # as the sample count changes from run to run.
    rotation = []
    for cls in CLASSES:
        main, *rest = [j for j in jobs if j.cls == cls]
        rotation.append([j for other in rest for j in (main, main, other)] or [main])
    samples: dict[str, list[float]] = {cls: [] for cls in CLASSES}
    deadline = perf_counter() + seconds
    step = 0
    while perf_counter() < deadline:
        group = rotation[step % len(rotation)]
        job = group[(step // len(rotation)) % len(group)]
        step += 1
        samples[job.cls].append(runner.run(job))
    samples["cli"] = [wall for group in rotation if group[0].fresh
                      for wall in samples[group[0].cls]]
    metrics = {"setup_s": (setup_s, "s")}
    for cls in END_TO_END:
        values = samples[cls]
        p50 = statistics.median(values)
        value, pct = tail(values)
        metrics[f"{cls}_s.p50"] = (p50, "s")
        metrics[f"{cls}_s.tail"] = (value, "s")
        print(f"{cls}_s: p50 {p50:.6f} s, tail {value:.6f} s "
              f"(p{pct:.1f} of {len(values)} samples)")
    who = resource.RUSAGE_CHILDREN if name == "fixture-cli" else resource.RUSAGE_SELF
    metrics["peak_rss_mib"] = (resource.getrusage(who).ru_maxrss / 1024, "MiB")
    return metrics


def measure_layers(name, seed, seconds, runner, jobs) -> dict:
    interp_s = statistics.median(runner.start_interpreter() for _ in range(FRESH_SAMPLES))
    import_s = _import_seconds(runner)
    order = schedule(jobs)
    tracer = Tracer()
    plain, traced, snapshots = [], [], []
    deadline = perf_counter() + seconds
    missing: list[str] = []
    while not traced or perf_counter() < deadline:
        start = perf_counter()
        for job in order:
            runner.run(job)
        plain.append(perf_counter() - start)
        tracer.reset()
        missing = tracer.install()
        runner.tracer = tracer
        start = perf_counter()
        try:
            for job in order:
                runner.run(job)
        finally:
            runner.tracer = None
            tracer.uninstall()
        traced.append(perf_counter() - start)
        runner.calibrations.append(calibrate())
        snapshots.append((dict(tracer.self_s), dict(tracer.calls), dict(tracer.counts)))
    for target in missing:
        print(f"trace: wrapper target missing: {target}")

    def self_s(layer):
        return statistics.median(s.get(layer, 0.0) for s, _, _ in snapshots)

    _, calls, counts = snapshots[0]
    hypotheses = calls.get("alarm.evaluate_qa", 0)
    refined = counts.get("alarm.refined_hypotheses", 0)
    partner = calls.get("axioms.pair_partner", 0)
    values = {
        "cli.interp_s": interp_s,
        "cli.import_s": import_s,
        "cli.main_self_s": self_s("cli.main"),
        "persist.ingest_s": self_s("persist.ingest"),
        "persist.ingest_items": counts.get("persist.ingest_items", 0),
        "persist.load_sketch_s": self_s("persist.load_sketch"),
        "persist.save_sketch_s": self_s("persist.save_sketch"),
        "persist.trace_json_s": self_s("persist.trace_json"),
        "persist.trace_csv_s": self_s("persist.trace_csv"),
        "persist.trace_bytes": counts.get("persist.trace_bytes", 0),
        "persist.write_s": self_s("persist.write"),
        "persist.write_bytes": counts.get("persist.write_bytes", 0),
        "model.sketch_build_s": self_s("model.sketch_build"),
        "model.marginalize_calls": calls.get("model.marginalize", 0),
        "model.marginalize_s": self_s("model.marginalize"),
        "model.pair_counts_calls": calls.get("model.pair_counts", 0),
        "model.pair_counts_s": self_s("model.pair_counts"),
        "model.validate_s": self_s("model.validate"),
        "axioms.interval_calls": calls.get("axioms.interval", 0),
        "axioms.interval_s": self_s("axioms.interval"),
        "axioms.pair_partner_calls": partner,
        "axioms.pair_partner_s": self_s("axioms.pair_partner"),
        "alarm.hypotheses": hypotheses,
        "alarm.evaluate_qa_self_s": self_s("alarm.evaluate_qa"),
        "alarm.run_alarm_self_s": self_s("alarm.run_alarm"),
        "alarm.safe_ratio": counts.get("alarm.safe", 0) / hypotheses if hypotheses else 0.0,
        "alarm.partner_calls_per_hypothesis": partner / refined if refined else 0.0,
        "svg.render_s": self_s("svg.render"),
        "svg.bytes": counts.get("svg.bytes", 0),
        "independent.solve_s": self_s("independent.solve"),
        "oracle.check_summary_s": self_s("oracle.check_summary"),
        "trace.pass_s": statistics.median(plain),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        "trace.missing_wrappers": len(missing),
    }
    print(f"traced passes: {len(traced)}, untraced passes: {len(plain)}, "
          f"{len(order)} jobs per pass")
    spans_path = STATE / f"spans-{name}-{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span_id, parent, layer, start, end in tracer.spans:
            handle.write(json.dumps({"id": span_id, "parent": parent, "layer": layer,
                                     "start": start, "end": end}) + "\n")
    print(f"wrote {len(tracer.spans)} spans to {spans_path.relative_to(ROOT)} "
          f"({tracer.spans_dropped} past the cap not kept)")
    return {metric: (values[metric], unit) for metric, unit in PER_LAYER}


def measure(name, seed, seconds, traced, corrupt, cli, import_s):
    """Set the workload up, measure it; return (runner, metrics)."""
    signal.signal(signal.SIGALRM, _on_alarm)
    STATE.mkdir(exist_ok=True)
    runner = Runner(cli, corrupt)
    try:
        import_s *= CALIBRATION_REF_S / statistics.median(calibrate() for _ in range(5))
        jobs, setup_s = set_up(name, seed, runner)
        # Park the benchmark's own objects outside the collector's reach, so
        # the garbage collections inside an in-process job cost what they
        # would in a crosscheck process of its own.
        gc.collect()
        gc.freeze()
        if not traced:
            return runner, measure_end_to_end(name, seconds, runner, jobs, import_s + setup_s)
        metrics = measure_layers(name, seed, seconds, runner, jobs)
        scale = CALIBRATION_REF_S / statistics.median(runner.calibrations)
        return runner, {metric: (value * scale if unit == "s" else value, unit)
                        for metric, (value, unit) in metrics.items()}
    finally:
        os.chdir(ROOT)
        for work in STATE.glob(f"work-{name}-{os.getpid()}-*"):
            shutil.rmtree(work, ignore_errors=True)
