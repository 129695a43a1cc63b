"""What a process imports: the package resolves its exports on first use,
each subcommand loads only the modules it runs, and none loads the
``dataclasses`` framework or ``argparse``."""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import crosscheck

from .test_cli import DEMO_PARAMS, EXACT, GRADING, GRADING_CLAIMS, GRADING_CSV

SRC = pathlib.Path(crosscheck.__file__).resolve().parents[1]

# Runs main on argv in a fresh interpreter, then prints its exit code
# and the modules it loaded beyond those of a bare interpreter start.
LOADED = """\
import sys
bare = set(sys.modules)
import json
from crosscheck.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - bare)]))
"""


def fresh_python(script, *argv):
    """The last line a fresh interpreter running ``script`` prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return done.stdout.splitlines()[-1]


# Runs two alarms on the sketch at argv[1] and prints whether
# crosscheck.axioms was loaded before and after their slices were first
# read, and the sha256 of the slices' JSON.
SLICES = """\
import hashlib, json, sys
from fractions import Fraction
from crosscheck import OverallSpec, PerLabelSpec, load_sketch, run_alarm
sketch = load_sketch(sys.argv[1])
runs = [
    run_alarm(sketch, PerLabelSpec(Fraction(1, 2), Fraction(1, 2))),
    run_alarm(sketch, OverallSpec(Fraction(3, 4), False), pair=("claude", "mistral"), refine=True),
]
before = "crosscheck.axioms" in sys.modules
slices = json.dumps([run.slices for run in runs]).encode()
after = "crosscheck.axioms" in sys.modules
print(json.dumps([before, after, hashlib.sha256(slices).hexdigest()]))
"""


def fresh_loads(*argv):
    """main's exit code on argv in a fresh interpreter, and every module
    it loaded beyond a bare start."""
    code, modules = json.loads(fresh_python(LOADED, *argv))
    return code, set(modules)


def fresh_run(*argv):
    """main's exit code on argv in a fresh interpreter, and the crosscheck
    modules it loaded, named within the package."""
    code, modules = fresh_loads(*argv)
    return code, {
        m.removeprefix("crosscheck.") for m in modules if m.split(".")[0] == "crosscheck"
    }


class TestModulesLoaded:
    def test_import_alone_loads_no_submodule(self):
        listed = fresh_python("import sys, crosscheck; print(sorted(m for m in sys.modules "
                              "if m.split('.')[0] == 'crosscheck'))")
        assert listed == "['crosscheck']"

    def test_alarm_loads_only_the_sweep(self):
        code, modules = fresh_run("alarm", GRADING, "--pair", "claude", "mistral")
        assert code == 0
        assert modules == {"crosscheck", "cli", "model", "persist", "alarm"}

    def test_slices_load_the_intervals_on_first_read(self):
        """Only ``AlarmTrace.slices`` calls into axioms, which it imports on
        first read; the digest is of the slices as they were when alarm
        imported axioms at its own import."""
        before, after, digest = json.loads(fresh_python(SLICES, GRADING))
        assert (before, after) == (False, True)
        assert digest == "ce2bb90a6ee772e587b43ffc1ef22ceb5b933025a0871944b59e075086c637e4"

    def test_flip_loads_only_the_sketch(self, tmp_path):
        code, modules = fresh_run(
            "flip", GRADING, "--classifier", "claude", "--mode", "global",
            "--out", str(tmp_path / "flipped.json"),
        )
        assert code == 0
        assert modules == {"crosscheck", "cli", "model", "persist"}

    def test_ingest_loads_no_sweep(self, tmp_path):
        code, modules = fresh_run(
            "ingest", GRADING_CSV, "--format", "csv", "--map", "incorrect=a",
            "--map", "correct=b", "--out", str(tmp_path / "sketch.json"),
        )
        assert code == 0
        assert modules == {"crosscheck", "cli", "model", "persist", "tables"}

    def test_solve_independent_loads_no_alarm_or_oracle(self):
        code, modules = fresh_run("solve-independent", GRADING)
        assert code == 0
        assert "independent" in modules
        assert not modules & {"alarm", "oracle"}

    def test_verify_loads_no_solver_or_plot(self):
        code, modules = fresh_run("verify", GRADING)
        assert code == 0
        assert "oracle" in modules
        assert not modules & {"independent", "svg", "tables"}

    def test_verify_claims_loads_the_audit_alone(self):
        code, modules = fresh_run("verify", GRADING, "--claims", GRADING_CLAIMS)
        assert code == 0
        assert {"oracle", "axioms"} <= modules
        assert not modules & {"tables", "alarm", "independent"}

    def test_generate_loads_no_sweep_or_audit(self, tmp_path):
        code, modules = fresh_run(
            "generate", "--params", DEMO_PARAMS, "--q", "20", "--seed", "1",
            "--out", str(tmp_path / "generated.csv"),
        )
        assert code == 0
        assert {"independent", "synth", "tables"} <= modules
        assert not modules & {"alarm", "axioms", "oracle"}


# Every command of the console smoke run, plus a refined alarm that writes
# a trace and a plot; "{out}" is a fresh output directory.
COMMANDS = [
    (0, ["sketch", GRADING]),
    (0, ["alarm", GRADING, "--pair", "claude", "mistral"]),
    (2, ["alarm", GRADING, "--pair", "mistral", "gpt4"]),
    (0, ["alarm", GRADING, "--pair", "claude", "mistral", "--refine-pairs",
         "--trace", "{out}/trace.json", "--plot", "{out}/trace.svg"]),
    (0, ["ingest", GRADING_CSV, "--format", "csv", "--map", "incorrect=a",
         "--map", "correct=b", "--out", "{out}/sketch.json"]),
    (0, ["verify", GRADING]),
    (0, ["verify", GRADING, "--claims", GRADING_CLAIMS]),
    (0, ["solve-independent", EXACT]),
    (0, ["generate", "--params", DEMO_PARAMS, "--q", "20", "--seed", "1",
         "--out", "{out}/generated.csv"]),
    (0, ["flip", GRADING, "--classifier", "claude", "--mode", "global",
         "--out", "{out}/flipped.json"]),
    (0, ["enumerate", "--q", "3", "--count-only"]),
]


@pytest.mark.parametrize("code, argv", COMMANDS, ids=[" ".join(argv) for _, argv in COMMANDS])
def test_no_command_loads_the_dataclasses_framework(code, argv, tmp_path):
    """The value types are plain classes and named tuples, so no command
    pays for ``dataclasses`` and the ``inspect`` it imports; and main reads
    argv from its command table, so none pays for ``argparse`` and the
    ``gettext`` and ``locale`` that its messages load."""
    done, loaded = fresh_loads(*(arg.format(out=tmp_path) for arg in argv))
    assert done == code
    assert not loaded & {"dataclasses", "inspect", "argparse", "gettext", "locale"}


@pytest.mark.parametrize("code, argv", [
    (0, ["alarm", "--help"]),
    (1, ["alarm", GRADING, "--qa-range", "5"]),
    (1, []),
], ids=["help", "usage-error", "no-arguments"])
def test_help_and_usage_errors_import_argparse_when_asked(code, argv):
    done, loaded = fresh_loads(*argv)
    assert done == code
    assert "argparse" in loaded


class TestLazySurface:
    def test_every_name_is_its_modules_object(self):
        for module, names in crosscheck._EXPORTS.items():
            home = importlib.import_module(f"crosscheck.{module}")
            for name in names:
                assert getattr(crosscheck, name) is getattr(home, name), name

    def test_dir_covers_all(self):
        assert set(crosscheck.__all__) <= set(dir(crosscheck))

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from crosscheck import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(crosscheck.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            crosscheck.no_such_name
        with pytest.raises(ImportError):
            exec("from crosscheck import no_such_name", {})

    def test_ingest_stays_the_function_after_every_import(self):
        for info in pkgutil.iter_modules(crosscheck.__path__):
            importlib.import_module(f"crosscheck.{info.name}")
        assert callable(crosscheck.ingest)
        assert crosscheck.ingest is importlib.import_module("crosscheck.tables").ingest
        assert not set(crosscheck._EXPORTS) & set(crosscheck.__all__)
