"""What a process imports: the package resolves its exports on first use,
and each subcommand loads only the modules it runs."""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import crosscheck

from .test_cli import GRADING, GRADING_CSV

SRC = pathlib.Path(crosscheck.__file__).resolve().parents[1]

# Runs main on argv in a fresh interpreter, then prints its exit code
# and the crosscheck modules it loaded.
LOADED = """\
import json, sys
from crosscheck.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "crosscheck")]))
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


def fresh_run(*argv):
    code, modules = json.loads(fresh_python(LOADED, *argv))
    return code, {m.removeprefix("crosscheck.") for m in modules}


class TestModulesLoaded:
    def test_import_alone_loads_no_submodule(self):
        listed = fresh_python("import sys, crosscheck; print(sorted(m for m in sys.modules "
                              "if m.split('.')[0] == 'crosscheck'))")
        assert listed == "['crosscheck']"

    def test_alarm_loads_only_the_sweep(self):
        code, modules = fresh_run("alarm", GRADING, "--pair", "claude", "mistral")
        assert code == 0
        assert modules == {"crosscheck", "cli", "model", "persist", "axioms", "alarm"}

    def test_ingest_loads_no_sweep(self, tmp_path):
        code, modules = fresh_run(
            "ingest", GRADING_CSV, "--format", "csv", "--map", "incorrect=a",
            "--map", "correct=b", "--out", str(tmp_path / "sketch.json"),
        )
        assert code == 0
        assert "tables" in modules
        assert not modules & {"alarm", "axioms"}

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
