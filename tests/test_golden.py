"""Byte-for-byte pins of the alarm's user-visible output on the fixture.

The README's worked `alarm` examples are pinned as exact stdout and exit
code; the trace and plot files as SHA-256 digests of their bytes; the
help and usage-error text as exact stdout, stderr and exit code.  Any
drift in verdicts, counts, trace serialization or plot layout fails
here.  A deliberate change updates these values and says so in
CHANGES.md; to recompute a digest, run the command and `sha256sum` the
file it wrote.
"""

import hashlib
import sys

import pytest

from crosscheck.cli import EXIT_OK, EXIT_TRIGGERED, main

README_EXAMPLES = [
    (
        ("--pair", "mistral", "gpt4"),
        EXIT_TRIGGERED,
        "safe hypotheses: 0 of 282\nverdict: triggered\n",
    ),
    (
        ("--pair", "claude", "mistral"),
        EXIT_OK,
        "safe hypotheses: 42 of 282\nverdict: not_triggered\n",
    ),
    (
        ("--ensemble", "--qa-range", "100", "200"),
        EXIT_TRIGGERED,
        "hypotheses restricted to [100, 200]\n"
        "safe hypotheses: 0 of 101\nverdict: triggered\n",
    ),
]

# (alarm options, {file format: sha256 of its bytes}, exit code, summary)
TRACE_FILES = [
    (
        (),
        {
            "json": "170162dbe7ffda5453e686c87a8c9e7cc40b200e0f17153805e33d4388de9b8e",
            "csv": "a459c527f5e36bdbe0cd52438d7c3d14008b34bc2ec1f541e672c17585376a9c",
            "svg": "688448e2f1d577bd4cfba62f4a3692350b9ff0503dcdb483964199aa463647b8",
        },
        EXIT_TRIGGERED,
        "safe hypotheses: 0 of 282\nverdict: triggered\n",
    ),
    (
        ("--pair", "claude", "mistral", "--refine-pairs"),
        {
            "json": "c05cf65f8416190239f152aa0c0fdf2535e4a0f707eee36696f141a9d9924172",
            "csv": "ea10caed9bacecf126c0564b94cde6c3b4a3bef3478a1898c88f690b1b24fa9c",
            "svg": "008880f1d22c26521894acec5baaf47faf3060a3ce28c83bb7c2d64d63c5aaa9",
        },
        EXIT_OK,
        "safe hypotheses: 42 of 282\nverdict: not_triggered\n",
    ),
    (
        # the one pin whose safe set comes from refining three classifiers
        ("--ensemble", "--refine-pairs", "--spec-overall", "3/5"),
        {
            "json": "192eaa3926278ac4caf9e6039b196b171484fb26ce13ea1d7af59bff5215e5c6",
            "csv": "ece9ddc02008f3ad4b2c80476eba42da62d2b3198ecde3e5be615358c26c996c",
            "svg": "5b46bb9f4ee84b07f3fac6b05f804c66414d071480628f5f3e364658540d2b0b",
        },
        EXIT_OK,
        "safe hypotheses: 18 of 282\nverdict: not_triggered\n",
    ),
    (
        ("--pair", "claude", "gpt4", "--spec-overall", "1/2", "--no-strict"),
        {
            "json": "15522b28f76b9943ff29c05c9065957cf73a585614ee33dacb88a44773443d9a",
            "csv": "0e3759f986358af6dad51c16260b25f484b3d19817c780bc62a98c4d051fcb43",
            "svg": "3780f036786cf5a63f47979e432832ed51f1b2a7e69c01620866ccea54593188",
        },
        EXIT_OK,
        "safe hypotheses: 188 of 282\nverdict: not_triggered\n",
    ),
]


@pytest.fixture
def grading_path(fixtures_dir):
    return str(fixtures_dir / "llm_grading.json")


@pytest.mark.parametrize(("options", "code", "stdout"), README_EXAMPLES)
def test_readme_alarm_examples(capsys, grading_path, options, code, stdout):
    assert main(["alarm", grading_path, *options]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (stdout, "")


@pytest.mark.parametrize(("options", "digests", "code", "summary"), TRACE_FILES)
def test_trace_and_plot_bytes(capsys, tmp_path, grading_path, options, digests, code, summary):
    paths = {fmt: str(tmp_path / f"trace.{fmt}") for fmt in digests}
    for extra in (
        ["--trace", paths["json"], "--plot", paths["svg"]],
        ["--trace", paths["csv"]],
    ):
        assert main(["alarm", grading_path, *options, *extra]) == code
        wrote = "".join(f"wrote {path}\n" for path in extra[1::2])
        assert capsys.readouterr().out == wrote + summary
    for fmt, digest in digests.items():
        with open(paths[fmt], "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == digest, fmt


# A q=5 000 table built through the CLI, so the refined window holds
# thousands of hypotheses: (alarm options, stdout, sha256 of the trace JSON)
LARGE_Q_REFINED = [
    (
        (),
        "safe hypotheses: 4841 of 5001\nverdict: not_triggered\n",
        "827e63ea08871956627635a0020b7e70c519bfc76950a6ed9e5254f87bea88f0",
    ),
    (
        ("--spec-overall", "3/5"),
        "safe hypotheses: 3920 of 5001\nverdict: not_triggered\n",
        "a1bee82406c900520eeaf607ea02693869c5e635abe4f9b609595213b8094685",
    ),
]


@pytest.fixture(scope="module")
def large_q_sketch(tmp_path_factory, fixtures_dir):
    work = tmp_path_factory.mktemp("large-q")
    table, sketch = str(work / "table.csv"), str(work / "sketch.json")
    params = str(fixtures_dir / "independent_demo.json")
    argv = ["generate", "--params", params, "--q", "5000", "--seed", "1", "--out", table]
    assert main(argv) == EXIT_OK
    assert main(["ingest", table, "--format", "csv", "--out", sketch]) == EXIT_OK
    return sketch


@pytest.mark.parametrize(
    ("options", "stdout", "digest"), LARGE_Q_REFINED, ids=["default", "overall-3/5"]
)
def test_large_q_refined_alarm(capsys, tmp_path, large_q_sketch, options, stdout, digest):
    argv = ["alarm", large_q_sketch, "--refine-pairs", *options]
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == (stdout, "")
    trace = str(tmp_path / "trace.json")
    assert main([*argv, "--trace", trace]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {trace}\n" + stdout
    with open(trace, "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == digest


# What each help request and three usage errors print at COLUMNS=80, as
# (exit code, stdout, stderr) on Python 3.11 and 3.12: argparse words them,
# from a parser built out of the same table the commands read argv from.
USAGE_TEXT = {
    ('--help',): (
        0,
        """\
usage: crosscheck [-h]
                  {ingest,sketch,alarm,enumerate,verify,solve-independent,generate,flip}
                  ...

Command-line front end. Exit codes are part of the interface: 0 for success, 2
when an alarm run ends Triggered (so pipelines can branch on the verdict), and
1 for usage, file, or data errors.

positional arguments:
  {ingest,sketch,alarm,enumerate,verify,solve-independent,generate,flip}
    ingest              turn a decision table into a sketch file
    sketch              print a sketch's marginals and statistics
    alarm               scan prevalence hypotheses for safety
    enumerate           walk the single-classifier outcome space
    verify              audit a sketch and optional claims about it
    solve-independent   recover prevalence and accuracies from three
                        classifiers
    generate            draw a synthetic labeled decision table
    flip                relabel one classifier's responses

options:
  -h, --help            show this help message and exit
""",
        '',
    ),
    ('ingest', '--help'): (
        0,
        """\
usage: crosscheck ingest [-h] --format {csv,jsonl} [--map SOURCE=LABEL] --out
                         OUT
                         path

positional arguments:
  path                  decision table file

options:
  -h, --help            show this help message and exit
  --format {csv,jsonl}
  --map SOURCE=LABEL    map a source label to a or b; repeatable
  --out OUT             sketch file to write
""",
        '',
    ),
    ('sketch', '--help'): (
        0,
        """\
usage: crosscheck sketch [-h] path

positional arguments:
  path        sketch file

options:
  -h, --help  show this help message and exit
""",
        '',
    ),
    ('alarm', '--help'): (
        0,
        """\
usage: crosscheck alarm [-h] [--spec-per-label T | --spec-overall T]
                        [--strict | --no-strict] [--pair I J | --ensemble]
                        [--refine-pairs] [--qa-range LO HI] [--trace TRACE]
                        [--plot PLOT]
                        path

positional arguments:
  path                  sketch file

options:
  -h, --help            show this help message and exit
  --spec-per-label T    required accuracy on each label (default 1/2)
  --spec-overall T      required prevalence-weighted overall accuracy
  --strict, --no-strict
                        require strictly above the threshold (default) or at
                        least it
  --pair I J            audit two classifiers
  --ensemble            audit the whole roster (default)
  --refine-pairs        enforce pairwise coupling constraints inside each
                        hypothesis
  --qa-range LO HI      restrict the verdict to hypotheses in [LO, HI]
  --trace TRACE         write the full trace (.csv or .json)
  --plot PLOT           write the full trace as a band plot (.svg)
""",
        '',
    ),
    ('enumerate', '--help'): (
        0,
        """\
usage: crosscheck enumerate [-h] --q Q [--count-only]

options:
  -h, --help    show this help message and exit
  --q Q         test size
  --count-only  print only the count
""",
        '',
    ),
    ('verify', '--help'): (
        0,
        """\
usage: crosscheck verify [-h] [--claims CLAIMS] [--budget BUDGET] path

positional arguments:
  path             sketch file

options:
  -h, --help       show this help message and exit
  --claims CLAIMS  claims file (marginals and/or a point)
  --budget BUDGET  give up the search for a claimed point after this many
                   steps
""",
        '',
    ),
    ('solve-independent', '--help'): (
        0,
        """\
usage: crosscheck solve-independent [-h] path

positional arguments:
  path        sketch file with exactly three classifiers

options:
  -h, --help  show this help message and exit
""",
        '',
    ),
    ('generate', '--help'): (
        0,
        """\
usage: crosscheck generate [-h] --seed SEED --params PARAMS --q Q [--out OUT]

options:
  -h, --help       show this help message and exit
  --seed SEED
  --params PARAMS  parameter file
  --q Q            number of items
  --out OUT        write csv here instead of stdout
""",
        '',
    ),
    ('flip', '--help'): (
        0,
        """\
usage: crosscheck flip [-h] --classifier CLASSIFIER --mode
                       {global,true-a,true-b} --out OUT
                       path

positional arguments:
  path                  sketch file

options:
  -h, --help            show this help message and exit
  --classifier CLASSIFIER
  --mode {global,true-a,true-b}
  --out OUT             sketch file to write
""",
        '',
    ),
    (): (
        1,
        '',
        """\
usage: crosscheck [-h]
                  {ingest,sketch,alarm,enumerate,verify,solve-independent,generate,flip}
                  ...
crosscheck: error: the following arguments are required: command
""",
    ),
    ('alarm', 'X', '--qa-range', '5'): (
        1,
        '',
        """\
usage: crosscheck alarm [-h] [--spec-per-label T | --spec-overall T]
                        [--strict | --no-strict] [--pair I J | --ensemble]
                        [--refine-pairs] [--qa-range LO HI] [--trace TRACE]
                        [--plot PLOT]
                        path
crosscheck alarm: error: argument --qa-range: expected 2 arguments
""",
    ),
    ('alarm', 'X', '--spec-per-label', '1/2', '--spec-overall', '1/2'): (
        1,
        '',
        """\
usage: crosscheck alarm [-h] [--spec-per-label T | --spec-overall T]
                        [--strict | --no-strict] [--pair I J | --ensemble]
                        [--refine-pairs] [--qa-range LO HI] [--trace TRACE]
                        [--plot PLOT]
                        path
crosscheck alarm: error: argument --spec-overall: not allowed with argument --spec-per-label
""",
    ),
}

# Python 3.10's BooleanOptionalAction adds " (default: True)" to a help line
PY310 = {
    ('alarm', '--help'): (
        0,
        """\
usage: crosscheck alarm [-h] [--spec-per-label T | --spec-overall T]
                        [--strict | --no-strict] [--pair I J | --ensemble]
                        [--refine-pairs] [--qa-range LO HI] [--trace TRACE]
                        [--plot PLOT]
                        path

positional arguments:
  path                  sketch file

options:
  -h, --help            show this help message and exit
  --spec-per-label T    required accuracy on each label (default 1/2)
  --spec-overall T      required prevalence-weighted overall accuracy
  --strict, --no-strict
                        require strictly above the threshold (default) or at
                        least it (default: True)
  --pair I J            audit two classifiers
  --ensemble            audit the whole roster (default)
  --refine-pairs        enforce pairwise coupling constraints inside each
                        hypothesis
  --qa-range LO HI      restrict the verdict to hypotheses in [LO, HI]
  --trace TRACE         write the full trace (.csv or .json)
  --plot PLOT           write the full trace as a band plot (.svg)
""",
        '',
    ),
}

# Python 3.13 breaks long usage lines at other places
PY313 = {
    ('--help',): (
        0,
        """\
usage: crosscheck [-h]
                  {ingest,sketch,alarm,enumerate,verify,solve-independent,generate,flip} ...

Command-line front end. Exit codes are part of the interface: 0 for success, 2
when an alarm run ends Triggered (so pipelines can branch on the verdict), and
1 for usage, file, or data errors.

positional arguments:
  {ingest,sketch,alarm,enumerate,verify,solve-independent,generate,flip}
    ingest              turn a decision table into a sketch file
    sketch              print a sketch's marginals and statistics
    alarm               scan prevalence hypotheses for safety
    enumerate           walk the single-classifier outcome space
    verify              audit a sketch and optional claims about it
    solve-independent   recover prevalence and accuracies from three
                        classifiers
    generate            draw a synthetic labeled decision table
    flip                relabel one classifier's responses

options:
  -h, --help            show this help message and exit
""",
        '',
    ),
    ('ingest', '--help'): (
        0,
        """\
usage: crosscheck ingest [-h] --format {csv,jsonl} [--map SOURCE=LABEL]
                         --out OUT
                         path

positional arguments:
  path                  decision table file

options:
  -h, --help            show this help message and exit
  --format {csv,jsonl}
  --map SOURCE=LABEL    map a source label to a or b; repeatable
  --out OUT             sketch file to write
""",
        '',
    ),
    ('flip', '--help'): (
        0,
        """\
usage: crosscheck flip [-h] --classifier CLASSIFIER
                       --mode {global,true-a,true-b} --out OUT
                       path

positional arguments:
  path                  sketch file

options:
  -h, --help            show this help message and exit
  --classifier CLASSIFIER
  --mode {global,true-a,true-b}
  --out OUT             sketch file to write
""",
        '',
    ),
    (): (
        1,
        '',
        """\
usage: crosscheck [-h]
                  {ingest,sketch,alarm,enumerate,verify,solve-independent,generate,flip} ...
crosscheck: error: the following arguments are required: command
""",
    ),
}


def pinned_usage(argv):
    if sys.version_info[:2] == (3, 10):
        return PY310.get(argv, USAGE_TEXT[argv])
    if sys.version_info >= (3, 13):
        return PY313.get(argv, USAGE_TEXT[argv])
    return USAGE_TEXT[argv]


@pytest.mark.parametrize("argv", list(USAGE_TEXT), ids=lambda argv: " ".join(argv) or "none")
def test_help_and_usage_error_text(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(argv))
    assert (code, *capsys.readouterr()) == pinned_usage(argv)
