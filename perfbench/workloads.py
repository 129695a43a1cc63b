"""The benchmark's workloads: inputs made from a seed, jobs, output checks.

Every input is written here, before timing, from the seed alone; the
program sees only those files and its argv.  Each job knows how to check
its own output against what the benchmark knows independently: pattern
counts and the generator's truth, counted here without crosscheck code,
plus the golden values the README documents for the shipped fixture.

Three workloads, each a closed loop with one client and one job in
flight.  Every job belongs to one class, which names the end-to-end
metric its wall time feeds: ``ingest`` (decision table to sketch file),
``verdict`` (sketch to printed verdict, unrefined, no trace), ``refine``
(the same with ``--refine-pairs``), ``report`` (an alarm that writes a
trace or a plot) and ``other`` (the remaining subcommands, timed only as
fresh processes).  A job marked ``fresh`` runs as a new ``crosscheck``
process and also feeds ``cli_s``.

``fixture-cli``
    The shipped LLM-grading fixture (q=281, N=3), every subcommand in a
    fresh process.  Compute is a few milliseconds per command while
    interpreter start plus import is about a hundred, so this is the one
    workload where the CLI process and its import dominate.
``tall-audit``
    N=3 tables of q=2500 items drawn from the independent model, run
    in-process through ``crosscheck.cli.main``: one meets the default
    spec, one makes the alarm fire.  Only 8 patterns, so every cost
    scales with q: ingest, the per-hypothesis sweep and trace
    serialization.  Refinement takes its cheap path here (the first
    candidate succeeds), so it is the no-change control for work on the
    refinement search.  At q=20000 a job takes about a second, too few
    jobs per run for a tail, so q is smaller.
``wide-refine``
    Sketches where per-hypothesis work dominates: N=8, q=1200 with over
    200 of 256 patterns occupied (``marginalize`` over every pattern at
    every hypothesis), and ``--refine-pairs`` on adversarial N=3 and N=4
    sketches whose last classifier is the complement of the first, so
    the backtracking search exhausts every candidate, plus a benign N=8
    one.  Ingest of an N=8, q=4800 table and three fresh processes keep
    every end-to-end metric defined.

The first job of each class is its heaviest; the benchmark times it
most often (see ``harness.measure_end_to_end``).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from crosscheck.independent import IndependentParams
from crosscheck.synth import generate_decisions

# Bound before any tracer wraps persist.trace_to_json_text, so the
# round-trip check never counts as traced work.
from crosscheck.persist import parse_trace, trace_to_json_text

CLASSES = ("ingest", "verdict", "refine", "report", "other")
DEFAULT_SPEC = ("per-label", Fraction(1, 2))
SAFE_LINE = re.compile(r"safe hypotheses: (\d+) of (\d+)")


class SetupError(RuntimeError):
    """Generated inputs do not have the property the workload relies on."""


@dataclass
class Outcome:
    """What one job did: exit code, output streams and wall seconds."""

    code: int | None
    stdout: str
    stderr: str
    wall: float
    error: str | None = None


@dataclass
class Job:
    """One crosscheck command; ``check`` lists what is wrong with an outcome."""

    cls: str
    argv: tuple[str, ...]
    fresh: bool
    outputs: tuple[str, ...]
    check: Callable[[Outcome], list[str]]


# ------------------------------------------------------------ known truth

@dataclass(frozen=True)
class Table:
    """A sketch as the benchmark counted it, with the truth when known.

    ``split`` maps each occurring pattern to (true-a items, true-b items).
    """

    roster: tuple[str, ...]
    counts: dict[str, int]
    split: dict[str, tuple[int, int]] | None = None

    @property
    def q(self) -> int:
        return sum(self.counts.values())

    @property
    def q_a(self) -> int:
        return sum(a for a, _ in self.split.values())

    def marginals(self, cid: str) -> tuple[int, int]:
        i = self.roster.index(cid)
        r_a = sum(n for p, n in self.counts.items() if p[i] == "a")
        return r_a, self.q - r_a

    def correct(self, cid: str) -> tuple[int, int]:
        i = self.roster.index(cid)
        on_a = sum(a for p, (a, _) in self.split.items() if p[i] == "a")
        on_b = sum(b for p, (_, b) in self.split.items() if p[i] == "b")
        return on_a, on_b

    def joint_correct(self, first: str, second: str) -> tuple[int, int]:
        i, j = self.roster.index(first), self.roster.index(second)
        on_a = sum(a for p, (a, _) in self.split.items() if p[i] == p[j] == "a")
        on_b = sum(b for p, (_, b) in self.split.items() if p[i] == p[j] == "b")
        return on_a, on_b

    def covariance(self, first: str, second: str) -> Fraction:
        i, j = self.roster.index(first), self.roster.index(second)
        both_a = sum(n for p, n in self.counts.items() if p[i] == p[j] == "a")
        q = self.q
        return Fraction(both_a, q) - Fraction(
            self.marginals(first)[0] * self.marginals(second)[0], q * q
        )

    def meets(self, ids, spec) -> bool:
        """Does the truth satisfy ``spec`` (strict) for every id?"""
        kind, threshold = spec
        q_a, q_b = self.q_a, self.q - self.q_a
        for cid in ids:
            c_a, c_b = self.correct(cid)
            if kind == "overall":
                if not Fraction(c_a + c_b, self.q) > threshold:
                    return False
            elif not (
                (q_a == 0 or Fraction(c_a, q_a) > threshold)
                and (q_b == 0 or Fraction(c_b, q_b) > threshold)
            ):
                return False
        return True

    def flipped(self, cid: str) -> Table:
        i = self.roster.index(cid)

        def flip(p: str) -> str:
            return p[:i] + ("b" if p[i] == "a" else "a") + p[i + 1:]

        return Table(
            self.roster,
            {flip(p): n for p, n in self.counts.items()},
            {flip(p): s for p, s in self.split.items()},
        )

    def sketch_obj(self, with_split: bool) -> dict:
        obj: dict = {
            "classifiers": list(self.roster),
            "q": self.q,
            "counts": dict(sorted(self.counts.items())),
        }
        if with_split:
            obj["truth_split"] = {p: list(s) for p, s in sorted(self.split.items())}
        return obj


def table_from_items(roster, decisions, truth) -> Table:
    counts: dict[str, int] = {}
    split: dict[str, list[int]] = {}
    for item, row in decisions.items():
        pattern = "".join(row[cid] for cid in roster)
        counts[pattern] = counts.get(pattern, 0) + 1
        entry = split.setdefault(pattern, [0, 0])
        entry[0 if truth[item] == "a" else 1] += 1
    return Table(tuple(roster), counts, {p: (a, b) for p, (a, b) in split.items()})


def write_sketch(path: Path, table: Table, with_split: bool = True) -> None:
    path.write_text(json.dumps(table.sketch_obj(with_split)), encoding="utf-8")


def write_table_csv(path: Path, roster, decisions, truth) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["item_id", *roster, "truth"])
    for item in sorted(decisions):
        writer.writerow([item, *(decisions[item][cid] for cid in roster), truth[item]])
    path.write_text(buffer.getvalue(), encoding="utf-8")


def write_table_jsonl(path: Path, roster, decisions, truth) -> None:
    lines = [
        json.dumps({"item_id": item, "responses": decisions[item], "truth": truth[item]})
        for item in sorted(decisions)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def adversarial_table(n: int, q: int, rng: random.Random, moves: int) -> Table:
    """N classifiers where the last one always answers against the first.

    Starts from equal counts over the 2^(N-1) free patterns and applies
    ``moves`` seeded steps that keep every classifier's response totals,
    so the seed changes the joint structure but not the marginals.  No
    truth can make the first and last classifier both better than half
    on a label, so the refined alarm must fire.
    """
    free = ["".join(p) for p in itertools.product("ab", repeat=n - 1)]

    def complement(p: str) -> str:
        return "".join("b" if c == "a" else "a" for c in p)

    counts = {p: q // len(free) for p in free}
    for _ in range(moves):
        up, down = rng.choice(free), rng.choice(free)
        if down in (up, complement(up)) or not counts[down] or not counts[complement(down)]:
            continue
        counts[up] += 1
        counts[complement(up)] += 1
        counts[down] -= 1
        counts[complement(down)] -= 1
    roster = tuple(f"x{k}" for k in range(n))
    return Table(
        roster,
        {p + ("b" if p[0] == "a" else "a"): c for p, c in counts.items() if c},
    )


# ----------------------------------------------------------------- checks

class Audit:
    """Cross-job consistency over one question (sketch, roster, spec).

    Every job answering the same question must report the same safe
    count; a trace's safe set must match its printed count; refined safe
    hypotheses must be a subset of the unrefined ones.
    """

    def __init__(self) -> None:
        self.counts: dict = {}
        self.sets: dict = {}

    def record(self, question, refined: bool, count: int, safe) -> list[str]:
        problems = []
        key = (question, refined)
        if self.counts.setdefault(key, count) != count:
            problems.append(f"safe count {count} differs from {self.counts[key]} "
                            "printed by another job on the same question")
        if safe is not None and self.sets.setdefault(key, safe) != safe:
            problems.append("safe set differs from another job on the same question")
        plain, tight = self.counts.get((question, False)), self.counts.get((question, True))
        if plain is not None and tight is not None and tight > plain:
            problems.append(f"refined safe count {tight} exceeds unrefined {plain}")
        plain, tight = self.sets.get((question, False)), self.sets.get((question, True))
        if plain is not None and tight is not None and not tight <= plain:
            problems.append("refined safe hypotheses are not a subset of the unrefined ones")
        return problems


def _truth_problems(table: Table, ids, row_a, row_b, safe: bool, meets) -> list[str]:
    """At the true q_a every true correct count lies in its interval."""
    problems = []
    for cid, (lo_a, hi_a), (lo_b, hi_b) in zip(ids, row_a, row_b):
        c_a, c_b = table.correct(cid)
        if not (lo_a <= c_a <= hi_a and lo_b <= c_b <= hi_b):
            problems.append(f"true correct counts of {cid} ({c_a}, {c_b}) fall outside "
                            f"[{lo_a}, {hi_a}] x [{lo_b}, {hi_b}] at the true q_a")
    if meets and not safe:
        problems.append("the truth meets the spec but its hypothesis is marked unsafe")
    return problems


def _check_trace_json(path: Path, table, ids, mode, refine, meets):
    text = path.read_text(encoding="utf-8")
    obj = json.loads(text)
    problems = []
    if (obj["q"], obj["classifiers"], obj["mode"]) != (table.q, list(ids), mode):
        problems.append("trace header does not match the job")
    slices = obj["slices"]
    if [s["q_a"] for s in slices] != list(range(table.q + 1)):
        return problems + ["trace does not hold one slice per hypothesis"], None
    if any(s["refined"] != refine for s in slices):
        problems.append("trace slices carry the wrong refined flag")
    if table.split is not None:
        s = slices[table.q_a]
        problems += _truth_problems(table, ids, s["intervals_a"], s["intervals_b"],
                                    s["safe_exists"], meets)
    if trace_to_json_text(parse_trace(text)) != text:
        problems.append("trace does not round-trip through parse_trace")
    safe = frozenset(s["q_a"] for s in slices if s["safe_exists"])
    verdict = "not_triggered" if safe else "triggered"
    if obj["verdict"] != verdict:
        problems.append(f"trace verdict {obj['verdict']} but {len(safe)} safe slices")
    return problems, safe


def _check_trace_csv(path: Path, table, ids, meets):
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    header = ["q_a"]
    for cid in ids:
        header += [f"{cid}_lo_a", f"{cid}_hi_a", f"{cid}_lo_b", f"{cid}_hi_b"]
    header.append("safe_exists")
    if not rows or rows[0] != header:
        return ["csv trace header does not match the job"], None
    body = rows[1:]
    if any(len(row) != len(header) for row in body) or [
        row[0] for row in body
    ] != [str(k) for k in range(table.q + 1)]:
        return ["csv trace does not hold one full row per hypothesis"], None
    problems = []
    if table.split is not None:
        row = [int(x) for x in body[table.q_a]]
        cells = [row[1 + 4 * k: 5 + 4 * k] for k in range(len(ids))]
        problems += _truth_problems(table, ids, [c[:2] for c in cells],
                                    [c[2:] for c in cells], row[-1] == 1, meets)
    return problems, frozenset(int(row[0]) for row in body if row[-1] == "1")


def _check_svg(path: Path) -> list[str]:
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    if not root.tag.endswith("svg"):
        return ["plot is not an svg document"]
    return []


class JobList:
    """Collects one workload's jobs, each with its check bound to the work dir."""

    def __init__(self, work: Path, fresh: bool) -> None:
        self.work = work
        self.fresh = fresh
        self.audit = Audit()
        self.jobs: list[Job] = []

    def add(self, cls, argv, check, outputs=(), fresh=None) -> None:
        self.jobs.append(Job(cls, tuple(argv), self.fresh if fresh is None else fresh,
                             tuple(outputs), check))

    def alarm(self, cls, sketch: str, table: Table, *, pair=None, refine=False,
              spec=DEFAULT_SPEC, qa_range=None, trace=None, plot=None, expect=None,
              ensemble_flag=False) -> None:
        """An alarm job; ``expect`` pins (safe count or None, verdict or None)."""
        argv = ["alarm", f"{sketch}.json"]
        if pair:
            argv += ["--pair", *pair]
        elif ensemble_flag:
            argv.append("--ensemble")
        if spec != DEFAULT_SPEC:
            argv += [f"--spec-{spec[0]}", str(spec[1])]
        if refine:
            argv.append("--refine-pairs")
        if qa_range:
            argv += ["--qa-range", str(qa_range[0]), str(qa_range[1])]
        if trace:
            argv += ["--trace", trace]
        if plot:
            argv += ["--plot", plot]
        ids = tuple(pair) if pair else table.roster
        meets = table.meets(ids, spec) if table.split is not None else None
        work, audit = self.work, self.audit

        def check(out: Outcome) -> list[str]:
            lines = out.stdout.splitlines()
            found = SAFE_LINE.fullmatch(lines[-2]) if len(lines) >= 2 else None
            if not found:
                return [f"unexpected output {out.stdout[-200:]!r}"]
            safe, total = int(found[1]), int(found[2])
            verdict = "not_triggered" if safe else "triggered"
            lo, hi = qa_range or (0, table.q)
            problems = []
            if total != hi - lo + 1 or safe > total:
                problems.append(f"safe hypotheses: {safe} of {total}")
            if lines[-1] != f"verdict: {verdict}":
                problems.append(f"{lines[-1]!r} after {safe} safe hypotheses")
            if out.code != (2 if verdict == "triggered" else 0):
                problems.append(f"exit code {out.code} for verdict {verdict}")
            head = [f"hypotheses restricted to [{lo}, {hi}]"] if qa_range else []
            head += [f"wrote {path}" for path in (trace, plot) if path]
            if lines[:-2] != head or out.stderr:
                problems.append(f"unexpected output {out.stdout!r} {out.stderr!r}")
            if expect is not None:
                want_safe, want_verdict = expect
                if want_safe is not None and safe != want_safe:
                    problems.append(f"{safe} safe hypotheses, expected {want_safe}")
                if want_verdict is not None and verdict != want_verdict:
                    problems.append(f"verdict {verdict}, expected {want_verdict}")
            if meets and verdict != "not_triggered":
                problems.append("the truth meets the spec but the alarm fired")
            safe_set = None
            if trace and trace.endswith(".json"):
                found_problems, safe_set = _check_trace_json(
                    work / trace, table, ids, "pair" if pair else "ensemble", refine, meets)
                problems += found_problems
            elif trace:
                found_problems, safe_set = _check_trace_csv(work / trace, table, ids, meets)
                problems += found_problems
            if plot:
                problems += _check_svg(work / plot)
            if not qa_range:
                problems += audit.record((sketch, ids, spec), refine, safe, safe_set)
            return problems

        self.add(cls, argv, check, [p for p in (trace, plot) if p])

    def ingest(self, source: str, fmt: str, out: str, table: Table, maps=(),
               exact: bytes | None = None) -> None:
        argv = ["ingest", source, "--format", fmt]
        for m in maps:
            argv += ["--map", m]
        argv += ["--out", out]
        work = self.work

        def check(result: Outcome) -> list[str]:
            problems = []
            want = f"kept {table.q} items over {len(table.roster)} classifiers\nwrote {out}\n"
            if (result.code, result.stdout, result.stderr) != (0, want, ""):
                problems.append(f"exit {result.code}, output {result.stdout!r}")
            data = (work / out).read_bytes()
            if exact is not None and data != exact:
                problems.append("ingested sketch is not byte-identical to the shipped one")
            if json.loads(data) != table.sketch_obj(True):
                problems.append("ingested sketch counts differ from the table's")
            return problems

        self.add("ingest", argv, check, [out])

    def sketch(self, sketch: str, table: Table, fresh=None) -> None:
        want = [f"q: {table.q}", f"classifiers: {', '.join(table.roster)}"]
        for cid in table.roster:
            r_a, r_b = table.marginals(cid)
            want.append(f"marginals {cid}: said-a {r_a}, said-b {r_b}")
        q_a, q_b = table.q_a, table.q - table.q_a
        want.append(f"true-a items: {q_a} of {table.q}")
        for cid in table.roster:
            c_a, c_b = table.correct(cid)
            want.append(f"accuracy {cid}: true-a {Fraction(c_a, q_a)}, "
                        f"true-b {Fraction(c_b, q_b)}")
        for first, second in itertools.combinations(table.roster, 2):
            want.append(f"pattern covariance {first},{second}: "
                        f"{table.covariance(first, second)}")

        def check(out: Outcome) -> list[str]:
            if (out.code, out.stdout.splitlines(), out.stderr) != (0, want, ""):
                return [f"sketch output differs: exit {out.code}, {out.stdout[:200]!r}"]
            return []

        self.add("other", ["sketch", f"{sketch}.json"], check, fresh=fresh)

    def verify(self, sketch: str, claims: str | None = None, fresh=None) -> None:
        """A verify job on a sound sketch (and true claims): it must pass."""
        notes = {"note: ground-truth enumeration skipped (budget exceeded)",
                 "some ground truth realizes the sketch: yes"}

        def check(out: Outcome) -> list[str]:
            lines = out.stdout.splitlines()
            if out.code != 0 or lines[-1:] != ["ok"] or not set(lines[:-1]) <= notes:
                return [f"verify: exit {out.code}, output {out.stdout!r}"]
            return []

        argv = ["verify", f"{sketch}.json"] + (["--claims", claims] if claims else [])
        self.add("other", argv, check, fresh=fresh)

    def solve(self, sketch: str, expect: str | None = None, fresh=None) -> None:
        """A solve-independent job; ``expect`` pins its first line."""

        def check(out: Outcome) -> list[str]:
            heads = [line.partition(":")[0] for line in out.stdout.splitlines()]
            if out.code != 0 or heads not in (["primary", "mirror"],
                                              ["inconsistent", "witness"]):
                return [f"solve-independent: exit {out.code}, output {out.stdout!r}"]
            if expect is not None and out.stdout.splitlines()[0] != expect:
                return [f"solve-independent: expected {expect!r}, got {out.stdout!r}"]
            return []

        self.add("other", ["solve-independent", f"{sketch}.json"], check, fresh=fresh)


# -------------------------------------------------------------- workloads

def fixture_cli(root: Path, work: Path, seed: int) -> list[Job]:
    rng = random.Random(seed)
    with open(root / "fixtures" / "llm_grading_decisions.csv", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    # the seed shuffles the rows; ingest sorts by item id, so its output is fixed
    rng.shuffle(rows)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    (work / "decisions.csv").write_text(buffer.getvalue(), encoding="utf-8")
    shipped = (root / "fixtures" / "llm_grading.json").read_bytes()
    (work / "grading.json").write_bytes(shipped)

    label = {"incorrect": "a", "correct": "b"}
    roster = tuple(header[1:-1])
    decisions = {r[0]: {cid: label[x] for cid, x in zip(roster, r[1:-1])} for r in rows}
    table = table_from_items(roster, decisions, {r[0]: label[r[-1]] for r in rows})
    pairs = {f"{a},{b}": list(table.joint_correct(a, b))
             for a, b in itertools.combinations(roster, 2)}
    claims = {
        "marginals": {cid: list(table.marginals(cid)) for cid in roster},
        "point": {
            "q_a": table.q_a,
            "correct_a": [table.correct(cid)[0] for cid in roster],
            "correct_b": [table.correct(cid)[1] for cid in roster],
            "pair_correct": pairs,
        },
    }
    (work / "claims.json").write_text(json.dumps(claims), encoding="utf-8")

    b = JobList(work, fresh=True)
    b.ingest("decisions.csv", "csv", "ingested.json", table,
             maps=("incorrect=a", "correct=b"), exact=shipped)
    # golden verdicts: the first two are the README's worked examples
    b.alarm("verdict", "grading", table, pair=("claude", "mistral"), expect=(42, "not_triggered"))
    b.alarm("verdict", "grading", table, pair=("mistral", "gpt4"), expect=(0, "triggered"))
    b.alarm("verdict", "grading", table, pair=("claude", "gpt4"), expect=(94, "not_triggered"))
    b.alarm("verdict", "grading", table, qa_range=(100, 200), ensemble_flag=True,
            expect=(0, "triggered"))
    b.alarm("refine", "grading", table, pair=("claude", "mistral"), refine=True)
    b.alarm("refine", "grading", table, refine=True, expect=(0, "triggered"))
    b.alarm("report", "grading", table, pair=("claude", "mistral"), refine=True,
            trace="refined.json", plot="refined.svg")
    b.alarm("report", "grading", table, pair=("claude", "mistral"), refine=True,
            trace="refined.csv")
    b.alarm("report", "grading", table, pair=("claude", "mistral"), trace="plain.json",
            expect=(42, "not_triggered"))
    b.sketch("grading", table)

    b.verify("grading")
    b.verify("grading", claims="claims.json")
    b.solve("grading", expect="inconsistent: non_real")
    flipped = table.flipped("claude")

    def check_flip(out: Outcome) -> list[str]:
        if (out.code, out.stdout) != (0, "wrote flipped.json\n"):
            return [f"flip: exit {out.code}, output {out.stdout!r}"]
        if json.loads((work / "flipped.json").read_text()) != flipped.sketch_obj(True):
            return ["flipped sketch counts differ from the table's"]
        return []

    b.add("other", ["flip", "grading.json", "--classifier", "claude", "--mode", "global",
                    "--out", "flipped.json"], check_flip, ["flipped.json"])
    return b.jobs


def _drawn(roster, params, q, seed) -> tuple[dict, dict, Table]:
    decisions, truth = generate_decisions(roster, params, q, seed)
    return decisions, truth, table_from_items(roster, decisions, truth)


TALL_Q = 2500
# meets the default spec with room to spare
TALL_GOOD = IndependentParams(
    Fraction(2, 5),
    (Fraction(3, 4), Fraction(7, 10), Fraction(4, 5)),
    (Fraction(4, 5), Fraction(3, 4), Fraction(7, 10)),
)
# c1 says "a" on most items and c2 on few, so no hypothesis suits both
TALL_SPLIT = IndependentParams(
    Fraction(1, 2),
    (Fraction(19, 20), Fraction(1, 5), Fraction(3, 4)),
    (Fraction(1, 5), Fraction(19, 20), Fraction(3, 4)),
)


def tall_audit(root: Path, work: Path, seed: int) -> list[Job]:
    roster = ("c1", "c2", "c3")
    good_d, good_t, good = _drawn(roster, TALL_GOOD, TALL_Q, 2 * seed)
    split_d, split_t, split = _drawn(roster, TALL_SPLIT, TALL_Q, 2 * seed + 1)
    write_table_csv(work / "good.csv", roster, good_d, good_t)
    write_table_jsonl(work / "good.jsonl", roster, good_d, good_t)
    write_table_csv(work / "split.csv", roster, split_d, split_t)
    write_sketch(work / "good.json", good)
    write_sketch(work / "split.json", split)
    specs = (DEFAULT_SPEC, ("per-label", Fraction(3, 5)), ("overall", Fraction(3, 5)))
    if not all(good.meets(roster, spec) for spec in specs):
        raise SetupError("the 'good' table does not meet every spec it is audited with")
    if split.meets(("c1", "c2"), DEFAULT_SPEC):
        raise SetupError("the 'split' table meets the default spec")

    b = JobList(work, fresh=False)
    b.ingest("good.jsonl", "jsonl", "ingest-good-jsonl.json", good)
    b.ingest("good.csv", "csv", "ingest-good.json", good)
    b.ingest("split.csv", "csv", "ingest-split.json", split)
    b.alarm("verdict", "good", good)
    for pair in itertools.combinations(roster, 2):
        b.alarm("verdict", "good", good, pair=pair)
    b.alarm("verdict", "good", good, spec=specs[1])
    b.alarm("verdict", "good", good, spec=specs[2])
    b.alarm("verdict", "split", split, expect=(None, "triggered"))
    b.alarm("refine", "good", good, refine=True)
    b.alarm("report", "good", good, refine=True, trace="refined.json")
    b.alarm("report", "good", good, trace="plain.json", plot="plain.svg")
    b.alarm("report", "split", split, trace="split-trace.csv")
    b.sketch("good", good, fresh=True)
    b.verify("good", fresh=True)
    b.solve("good", fresh=True)
    return b.jobs


WIDE_Q = 1200
WIDE_REFINE_Q = 200
# a job of a few milliseconds would time the host's jitter more than ingest
WIDE_INGEST_Q = 4800
WIDE = IndependentParams(
    Fraction(1, 2),
    tuple(Fraction(x, 20) for x in (15, 14, 16, 15, 14, 16, 15, 14)),
    tuple(Fraction(x, 20) for x in (14, 16, 15, 14, 16, 15, 14, 16)),
)
# (classifiers, q) of the adversarial refinement sketches
ADVERSARIAL = ((3, 160), (4, 64))
# Few moves: at N=4 the search cost varies by 6% between seeds with 2
# moves and by 10% with 4.
ADVERSARIAL_MOVES = 2


def wide_refine(root: Path, work: Path, seed: int) -> list[Job]:
    roster = tuple(f"w{k}" for k in range(1, 9))
    _, _, wide = _drawn(roster, WIDE, WIDE_Q, 3 * seed)
    _, _, small = _drawn(roster, WIDE, WIDE_REFINE_Q, 3 * seed + 1)
    big_d, big_t, big = _drawn(roster, WIDE, WIDE_INGEST_Q, 3 * seed + 3)
    write_table_jsonl(work / "big.jsonl", roster, big_d, big_t)
    write_table_csv(work / "big.csv", roster, big_d, big_t)
    write_sketch(work / "wide.json", wide)
    write_sketch(work / "small.json", small)
    if not (wide.meets(roster, DEFAULT_SPEC) and small.meets(roster, DEFAULT_SPEC)):
        raise SetupError("a wide table does not meet the default spec")
    rng = random.Random(3 * seed + 2)
    adversarial = []
    for n, q in ADVERSARIAL:
        table = adversarial_table(n, q, rng, ADVERSARIAL_MOVES)
        write_sketch(work / f"adv{n}.json", table, with_split=False)
        adversarial.append((f"adv{n}", table))

    b = JobList(work, fresh=False)
    b.ingest("big.jsonl", "jsonl", "ingest-big-jsonl.json", big)
    b.ingest("big.csv", "csv", "ingest-big.json", big)
    b.alarm("verdict", "wide", wide)
    b.alarm("verdict", "wide", wide, spec=("per-label", Fraction(3, 5)))
    b.alarm("verdict", "wide", wide, pair=("w1", "w8"))
    for name, table in adversarial:
        b.alarm("refine", name, table, refine=True, expect=(0, "triggered"))
    b.alarm("refine", "small", small, refine=True)
    b.alarm("report", "wide", wide, trace="wide-trace.json", plot="wide-trace.svg")
    b.alarm("report", "small", small, refine=True, trace="small-refined.json")
    b.alarm("report", "small", small, trace="small-plain.csv")
    b.sketch("wide", wide, fresh=True)
    b.verify("wide", fresh=True)
    b.solve(adversarial[0][0], fresh=True)
    return b.jobs


WORKLOADS = {
    "fixture-cli": fixture_cli,
    "tall-audit": tall_audit,
    "wide-refine": wide_refine,
}
