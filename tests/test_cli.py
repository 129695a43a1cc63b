"""End-to-end runs of the command line entry point.

Every test goes through main(argv) so argument parsing, exit codes, and
output formatting are exercised exactly as a shell user would see them.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crosscheck
from crosscheck import load_sketch, parse_trace, sketch_point
from crosscheck import cli
from crosscheck.cli import EXIT_ERROR, EXIT_OK, EXIT_TRIGGERED, build_parser, main

GRADING = "fixtures/llm_grading.json"
GRADING_CSV = "fixtures/llm_grading_decisions.csv"
# the fixture's true point: its marginals and all three pairs
GRADING_CLAIMS = "fixtures/llm_grading_claims.json"
EXACT = "fixtures/independent_exact.json"
DEMO_PARAMS = "fixtures/independent_demo.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSketch:
    def test_fixture_summary(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "sketch", str(fixtures_dir / "llm_grading.json"))
        assert code == EXIT_OK
        assert err == ""
        assert out.splitlines() == [
            "q: 281",
            "classifiers: claude, mistral, gpt4",
            "marginals claude: said-a 146, said-b 135",
            "marginals mistral: said-a 27, said-b 254",
            "marginals gpt4: said-a 234, said-b 47",
            "true-a items: 237 of 281",
            "accuracy claude: true-a 136/237, true-b 17/22",
            "accuracy mistral: true-a 26/237, true-b 43/44",
            "accuracy gpt4: true-a 211/237, true-b 21/44",
            "pattern covariance claude,mistral: -570/78961",
            "pattern covariance claude,gpt4: 3209/78961",
            "pattern covariance mistral,gpt4: 988/78961",
        ]

    def test_truthless_sketch_omits_truth_lines(self, capsys, tmp_path, grading_bare):
        from crosscheck import save_sketch

        path = tmp_path / "bare.json"
        save_sketch(grading_bare, str(path))
        code, out, _ = run(capsys, "sketch", str(path))
        assert code == EXIT_OK
        assert "true-a items" not in out
        assert "accuracy" not in out
        assert "pattern covariance" not in out

    def test_invalid_sketch_prints_its_violations_and_no_truth_lines(self, capsys, tmp_path):
        # the counts hold 8 items, not q = 10; the truth split matches them
        path = tmp_path / "short.json"
        path.write_text(json.dumps({
            "classifiers": ["u", "v"], "q": 10,
            "counts": {"aa": 2, "ab": 3, "ba": 1, "bb": 2},
            "truth_split": {"aa": [1, 1], "ab": [3, 0], "ba": [0, 1], "bb": [2, 0]},
        }))
        code, out, err = run(capsys, "sketch", str(path))
        assert code == EXIT_ERROR
        assert err == ""
        assert out.splitlines() == [
            "q: 10",
            "classifiers: u, v",
            "marginals u: said-a 5, said-b 3",
            "marginals v: said-a 3, said-b 5",
            "violation: pattern counts do not sum to Q (got 8, expected 10)",
        ]

    def test_label_with_no_items_has_undefined_accuracy(self, capsys, tmp_path):
        path = tmp_path / "no-true-a.json"
        path.write_text(json.dumps({
            "classifiers": ["x", "y"], "q": 3, "counts": {"ab": 2, "bb": 1},
            "truth_split": {"ab": [0, 2], "bb": [0, 1]},
        }))
        code, out, err = run(capsys, "sketch", str(path))
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[4:] == [
            "true-a items: 0 of 3",
            "accuracy x: true-a undefined, true-b 1/3",
            "accuracy y: true-a undefined, true-b 1",
            "pattern covariance x,y: 0",
        ]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "sketch", "nosuch.json")
        assert code == EXIT_ERROR
        assert err.startswith("error: ")


class TestAlarm:
    def test_pair_triggered_exit(self, capsys):
        code, out, _ = run(
            capsys, "alarm", GRADING, "--spec-per-label", "1/2",
            "--pair", "mistral", "gpt4",
        )
        assert code == EXIT_TRIGGERED
        assert "safe hypotheses: 0 of 282" in out
        assert "verdict: triggered" in out

    def test_pair_quiet_exit(self, capsys):
        code, out, _ = run(
            capsys, "alarm", GRADING, "--spec-per-label", "1/2",
            "--pair", "claude", "mistral",
        )
        assert code == EXIT_OK
        assert "safe hypotheses: 42 of 282" in out
        assert "verdict: not_triggered" in out

    def test_ensemble_triggered(self, capsys):
        code, out, _ = run(
            capsys, "alarm", GRADING, "--spec-per-label", "1/2", "--ensemble",
        )
        assert code == EXIT_TRIGGERED
        assert "verdict: triggered" in out

    def test_overall_spec_and_no_strict(self, capsys):
        code, out, _ = run(
            capsys, "alarm", GRADING, "--spec-overall", "1/3", "--no-strict",
            "--pair", "claude", "gpt4",
        )
        assert code in (EXIT_OK, EXIT_TRIGGERED)
        assert "verdict:" in out

    def test_refine_flag_accepted(self, capsys):
        code, out, _ = run(
            capsys, "alarm", GRADING, "--spec-per-label", "1/2",
            "--pair", "claude", "mistral", "--refine-pairs",
        )
        assert code == EXIT_OK
        assert "verdict: not_triggered" in out

    def test_qa_range_restricts_verdict(self, capsys):
        code, out, _ = run(
            capsys, "alarm", GRADING, "--spec-per-label", "1/2",
            "--pair", "claude", "mistral", "--qa-range", "100", "200",
        )
        assert code == EXIT_TRIGGERED
        assert "hypotheses restricted to [100, 200]" in out
        assert "safe hypotheses: 0 of 101" in out

    def test_trace_is_complete_despite_range(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, _, _ = run(
            capsys, "alarm", GRADING, "--spec-per-label", "1/2",
            "--pair", "claude", "mistral", "--qa-range", "100", "200",
            "--trace", str(trace_path),
        )
        assert code == EXIT_TRIGGERED
        trace = parse_trace(trace_path.read_text())  # refuses a partial trace
        assert len(trace.safe) == len(trace.slices) == 282
        # the full-range verdict differs from the restricted one
        assert trace.verdict.value == "not_triggered"

    def test_trace_csv(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys, "alarm", GRADING, "--spec-per-label", "1/2",
            "--ensemble", "--trace", str(trace_path),
        )
        assert code == EXIT_TRIGGERED
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 283
        assert lines[0].startswith("q_a,claude_lo_a")

    def test_plot_svg(self, capsys, tmp_path):
        plot_path = tmp_path / "bands.svg"
        code, _, _ = run(
            capsys, "alarm", GRADING, "--spec-per-label", "1/2",
            "--pair", "mistral", "gpt4", "--plot", str(plot_path),
        )
        assert code == EXIT_TRIGGERED
        svg = plot_path.read_text()
        assert svg.startswith("<svg ")
        assert "pair: mistral+gpt4" in svg

    def test_trace_refuses_svg(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "alarm", GRADING, "--spec-per-label", "1/2",
            "--ensemble", "--trace", str(tmp_path / "t.svg"),
        )
        assert code == EXIT_ERROR
        assert "use --plot for svg" in err

    def test_plot_refuses_csv(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "alarm", GRADING, "--spec-per-label", "1/2",
            "--ensemble", "--plot", str(tmp_path / "t.csv"),
        )
        assert code == EXIT_ERROR
        assert "use --trace for csv or json" in err

    @pytest.mark.parametrize("trace, plot, message", [
        ("t.csv", "t.png", "cannot infer a trace format from"),
        ("t.txt", None, "cannot infer a trace format from"),
        ("t.svg", "t.svg", "use --plot for svg"),
        ("t.json", "t.json", "use --trace for csv or json"),
        (None, "t.csv", "use --trace for csv or json"),
    ])
    def test_output_names_checked_before_any_work(
        self, capsys, tmp_path, trace, plot, message
    ):
        argv = ["alarm", GRADING, "--qa-range", "1", "2"]
        if trace:
            argv += ["--trace", str(tmp_path / trace)]
        if plot:
            argv += ["--plot", str(tmp_path / plot)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error:") and message in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_output_name_precedes_a_missing_sketch(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "alarm", str(tmp_path / "missing.json"),
            "--trace", str(tmp_path / "t.txt"),
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert "cannot infer a trace format" in err

    @pytest.mark.parametrize("flag, name", [("--trace", "t.json"), ("--plot", "t.svg")])
    def test_missing_output_directory_checked_before_any_work(
        self, capsys, tmp_path, flag, name
    ):
        target = str(tmp_path / "nodir" / name)
        code, out, err = run(capsys, "alarm", GRADING, "--qa-range", "1", "2", flag, target)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == f"error: [Errno 2] No such directory: {target!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_range_checked_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before checking --qa-range")

        monkeypatch.setattr(crosscheck.cli, "run_alarm", no_sweep)
        code, out, err = run(
            capsys, "alarm", GRADING, "--qa-range", "5", "300",
            "--trace", str(tmp_path / "t.json"),
        )
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: bad hypothesis range [5, 300] for q=281\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, name", [("--trace", "t.json"), ("--plot", "t.svg")])
    def test_trace_too_large_to_hold_is_an_error(self, capsys, tmp_path, flag, name):
        # q + 1 safe flags take 8 (q + 1) bytes, past what CPython asks the
        # allocator for at q = 2**61, so the list is refused before any memory
        half = 2**60
        sketch = tmp_path / "huge.json"
        sketch.write_text(json.dumps({
            "classifiers": ["u", "v"], "q": 2 * half, "counts": {"aa": half, "bb": half},
        }))
        code, out, err = run(capsys, "alarm", str(sketch), flag, str(tmp_path / name))
        assert (code, out, err) == (EXIT_ERROR, "", "error: out of memory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]

    @pytest.mark.parametrize("name, argv", [
        ("check_summary", ("verify", GRADING)),
        ("solve_independent", ("solve-independent", GRADING)),
        ("ingest", ("ingest", GRADING_CSV, "--format", "csv", "--out", "unused.json")),
    ])
    def test_replacement_on_the_cli_module_is_called(self, capsys, monkeypatch, name, argv):
        # the commands import these on first use, and must still call what
        # is set on crosscheck.cli in their place
        def replaced(*args, **kwargs):
            raise ValueError(f"replaced {name}")

        monkeypatch.setattr(crosscheck.cli, name, replaced)
        assert run(capsys, *argv) == (EXIT_ERROR, "", f"error: replaced {name}\n")

    def test_default_spec_is_per_label_half(self, capsys):
        code, out, _ = run(capsys, "alarm", GRADING, "--ensemble")
        assert code == EXIT_TRIGGERED
        explicit = run(
            capsys, "alarm", GRADING, "--spec-per-label", "1/2", "--ensemble",
        )
        assert (code, out) == (explicit[0], explicit[1])

    def test_pair_and_ensemble_exclusive(self, capsys):
        code, _, _ = run(
            capsys, "alarm", GRADING, "--spec-per-label", "1/2",
            "--pair", "claude", "mistral", "--ensemble",
        )
        assert code == EXIT_ERROR

    def test_bad_threshold(self, capsys):
        code, _, err = run(
            capsys, "alarm", GRADING, "--spec-per-label", "3/2", "--ensemble",
        )
        assert code == EXIT_ERROR
        assert err.startswith("error: ")


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--q", "3", "--count-only")
        assert code == EXIT_OK
        assert out == "20\n"

    def test_full_walk(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--q", "1")
        assert code == EXIT_OK
        assert out.splitlines() == ["0 0 0", "0 0 1", "1 0 0", "1 1 0"]

    def test_negative_q(self, capsys):
        code, _, err = run(capsys, "enumerate", "--q", "-1")
        assert code == EXIT_ERROR
        assert err.startswith("error: ")


def write_point_claims(tmp_path, q_a, correct_a, correct_b):
    path = tmp_path / "point.json"
    point = {"q_a": q_a, "correct_a": correct_a, "correct_b": correct_b}
    path.write_text(json.dumps({"point": point}))
    return str(path)


def shipped_claims_without(tmp_path, pair):
    """The shipped claims with ``pair`` ("first,second") left unnamed."""
    claims = json.loads(pathlib.Path(GRADING_CLAIMS).read_text())
    del claims["point"]["pair_correct"][pair]
    path = tmp_path / "claims.json"
    path.write_text(json.dumps(claims))
    return str(path)


# the ground truth whose true-a items are exactly the seven aaa items
EXACT_POINT = (7, [7, 7, 7], [16, 16, 16])


class TestVerify:
    def test_fixture_hits_budget(self, capsys, tmp_path):
        # a sound sketch is realized by some ground truth: nothing to search
        code, out, _ = run(capsys, "verify", GRADING)
        assert (code, out) == (EXIT_OK, "ok\n")
        # the true point passes the axioms, and the search confirms it in 7
        # steps, far inside the default budget
        true = sketch_point(load_sketch(GRADING))
        claims = write_point_claims(
            tmp_path, true.q_a, list(true.correct_a), list(true.correct_b)
        )
        code, out, _ = run(capsys, "verify", GRADING, "--claims", claims)
        assert (code, out) == (EXIT_OK, "ok\n")

    def test_shipped_claims_are_searched_under_a_raised_budget(self, capsys, tmp_path):
        # with one pair dropped the claims are searched: the sketch has
        # 1 993 031 040 split combinations, but the budget counts search
        # steps, so the default one confirms the true point
        claims = shipped_claims_without(tmp_path, "mistral,gpt4")
        code, out, _ = run(capsys, "verify", GRADING, "--claims", claims)
        assert (code, out) == (EXIT_OK, "ok\n")
        argv = ("verify", GRADING, "--claims", claims, "--budget", "2000000000")
        assert run(capsys, *argv) == (EXIT_OK, "ok\n", "")

    def test_budget_counts_search_steps(self, capsys, tmp_path):
        # the shipped claims name every pair, so the whole roster's window
        # settles them and no step is taken
        argv = ("verify", GRADING, "--claims", GRADING_CLAIMS, "--budget", "0")
        assert run(capsys, *argv) == (EXIT_OK, "ok\n", "")
        # with one pair dropped, one step per pattern of the fixture's
        # seven, with no backtracking
        claims = shipped_claims_without(tmp_path, "mistral,gpt4")
        argv = ("verify", GRADING, "--claims", claims, "--budget")
        assert run(capsys, *argv, "7") == (EXIT_OK, "ok\n", "")
        assert run(capsys, *argv, "6") == (
            EXIT_OK, "note: ground-truth enumeration skipped (budget exceeded)\nok\n", ""
        )

    def test_unclaimed_pairs_meet_the_alarms_pair_constraint(self, capsys, tmp_path):
        # each count lies in its own interval, but (claude, mistral) and
        # (mistral, gpt4) cannot reach their least true-a sums at q_a=237
        # (x_i + x_j >= 117 and >= 191), so their "bb" cells would need
        # 15 and 1 true-a items more than they hold
        claims = write_point_claims(tmp_path, 237, [102, 0, 190], [0, 17, 0])
        code, out, _ = run(capsys, "verify", GRADING, "--claims", claims)
        assert (code, out) == (EXIT_ERROR, (
            "violation: pair (claude, mistral): no joint true-a correctness fits "
            "the feasible window [0, -15]\n"
            "violation: pair (mistral, gpt4): no joint true-a correctness fits "
            "the feasible window [0, -1]\n"
        ))

    @pytest.mark.parametrize("where, value, out", [
        (("q_a",), 300, "q_a=300 outside [0, 281]\n"),
        (("correct_a", 0), 147, (
            "classifier claude: correct_a=147 outside feasible interval [102, 146]\n"
            "violation: classifier claude: correct_b=34, but the responses force 45\n"
        )),
        (("correct_b", 1), 44, "classifier mistral: correct_b=44, but the responses force 43\n"),
        # 32 is the j_b that a j_a of 13 forces, so only the window is broken
        (("pair_correct", "claude,mistral"), [13, 32], (
            "pair (claude, mistral): joint true-a correctness 13 "
            "outside feasible window [11, 12]\n"
        )),
        (("pair_correct", "claude,gpt4"), [125, 20], (
            "pair (claude, gpt4): joint true-b correctness 20, but the responses force 19\n"
        )),
        (("pair_correct", "claude,mistral"), [12, 1000000], (
            "pair (claude, mistral): joint true-b correctness 1000000, "
            "but the responses force 33\n"
        )),
        # every pair passes, but with (claude, mistral) at [11, 34] the
        # three pairs leave no joint true-a count for the whole roster
        (("pair_correct", "claude,mistral"), [11, 34], (
            "triple (claude, mistral, gpt4): no joint true-a correctness fits "
            "the feasible window [12, 11]\n"
        )),
    ], ids=["q_a", "correct_a", "correct_b", "joint_a", "joint_b", "joint_b_million", "triple"])
    def test_tampered_shipped_claims(self, capsys, tmp_path, where, value, out):
        claims = json.loads(pathlib.Path(GRADING_CLAIMS).read_text())
        *keys, last = where
        target = claims["point"]
        for key in keys:
            target = target[key]
        target[last] = value
        path = tmp_path / "claims.json"
        path.write_text(json.dumps(claims))
        code, printed, err = run(capsys, "verify", GRADING, "--claims", str(path))
        assert (code, printed, err) == (EXIT_ERROR, "violation: " + out, "")

    @pytest.mark.parametrize("keys", [
        ("mistral,claude", "claude,mistral"),
        ("claude,mistral", "mistral, claude"),
    ])
    def test_pair_claimed_twice_is_an_error(self, capsys, tmp_path, keys):
        true = sketch_point(load_sketch(GRADING))
        joint = true.pair_correct[(0, 1)]
        pairs = {keys[0]: [joint[0] + 50, joint[1]], keys[1]: list(joint)}
        pairs["claude,gpt4"] = list(true.pair_correct[(0, 2)])
        pairs["mistral,gpt4"] = list(true.pair_correct[(1, 2)])
        path = tmp_path / "claims.json"
        path.write_text(json.dumps({"point": {
            "q_a": true.q_a, "correct_a": list(true.correct_a),
            "correct_b": list(true.correct_b), "pair_correct": pairs,
        }}))
        code, out, err = run(capsys, "verify", GRADING, "--claims", str(path))
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("error: ") and "already claimed" in err

    def test_small_sketch_enumerates(self, capsys, tmp_path):
        claims = write_point_claims(tmp_path, *EXACT_POINT)
        code, out, _ = run(capsys, "verify", EXACT, "--claims", claims)
        assert (code, out) == (EXIT_OK, "ok\n")

    def test_raised_budget_overrides_default(self, capsys, tmp_path):
        claims = write_point_claims(tmp_path, *EXACT_POINT)
        code, out, _ = run(capsys, "verify", EXACT, "--claims", claims, "--budget", "1")
        assert code == EXIT_OK
        assert "note: ground-truth enumeration skipped (budget exceeded)" in out

    def test_default_budget_is_the_split_budget(self, capsys, tmp_path):
        # ROADMAP item 3's odd triangle: the claim passes every bound and
        # axiom check, and only the search finds no integer split for it
        sketch = tmp_path / "triangle.json"
        sketch.write_text(json.dumps({
            "classifiers": ["c1", "c2", "c3"], "q": 4,
            "counts": {"aab": 1, "aba": 1, "baa": 1, "bbb": 1},
        }))
        triangle = write_point_claims(tmp_path, 2, [1, 1, 1], [1, 1, 1])
        # the fixture's true point, confirmed in 7 steps
        true = sketch_point(load_sketch(GRADING))
        (tmp_path / "grading").mkdir()
        grading = write_point_claims(
            tmp_path / "grading", true.q_a, list(true.correct_a), list(true.correct_b)
        )
        budget = str(crosscheck.DEFAULT_SPLIT_BUDGET)
        for path, claims in ((str(sketch), triangle), (GRADING, grading)):
            answer = run(capsys, "verify", path, "--claims", claims)
            assert answer == run(capsys, "verify", path, "--claims", claims, "--budget", budget)
        assert run(capsys, "verify", str(sketch), "--claims", triangle) == (EXIT_ERROR, (
            "violation: claimed point is not realized by any ground truth with q_a=2\n"
        ), "")
        # the search takes 5 steps to refute it
        assert run(capsys, "verify", str(sketch), "--claims", triangle, "--budget", "1") == (
            EXIT_OK, "note: ground-truth enumeration skipped (budget exceeded)\nok\n", ""
        )

    def test_failed_point_gets_no_note(self, capsys, tmp_path):
        # the claim is refuted without a search, so the budget has no say
        claims = write_point_claims(tmp_path, 7, [7, 7], [16, 16])
        code, out, _ = run(capsys, "verify", EXACT, "--claims", claims, "--budget", "1")
        assert (code, out) == (
            EXIT_ERROR, "violation: point has 2 classifiers, sketch has 3\n"
        )

    def test_claims_pass(self, capsys, tmp_path):
        claims = tmp_path / "claims.json"
        claims.write_text(json.dumps({
            "marginals": {"claude": [146, 135], "gpt4": [234, 47]},
        }))
        code, out, _ = run(capsys, "verify", GRADING, "--claims", str(claims))
        assert code == EXIT_OK
        assert "violation:" not in out

    def test_claims_violation(self, capsys, tmp_path):
        claims = tmp_path / "claims.json"
        claims.write_text(json.dumps({"marginals": {"claude": [145, 136]}}))
        code, out, _ = run(capsys, "verify", GRADING, "--claims", str(claims))
        assert code == EXIT_ERROR
        assert (
            "violation: classifier claude: claimed totals (145, 136) "
            "differ from actual (146, 135)" in out
        )
        assert "ok" not in out.splitlines()


    @pytest.mark.parametrize(
        "claims",
        [
            {"point": {"q_a": "12", "correct_a": [1, 2, 3], "correct_b": [1, 2, 3]}},
            {"marginals": {"claude": ["x", None]}},
            {"marginals": [146, 135]},
            {"point": {"q_a": 12, "correct_a": "abc", "correct_b": [1, 2, 3]}},
        ],
    )
    def test_malformed_claims_are_errors(self, capsys, tmp_path, claims):
        path = tmp_path / "claims.json"
        path.write_text(json.dumps(claims))
        code, out, err = run(capsys, "verify", GRADING, "--claims", str(path))
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("budget", ["-1", "x"])
    def test_bad_budget_is_usage_error(self, capsys, budget):
        code, out, err = run(capsys, "verify", GRADING, f"--budget={budget}")
        assert code == EXIT_ERROR
        assert out == ""
        assert "error:" in err

class TestSolveIndependent:
    def test_consistent_fixture(self, capsys):
        code, out, _ = run(capsys, "solve-independent", EXACT)
        assert code == EXIT_OK
        assert out.splitlines() == [
            "primary: prevalence-a 1/2; accuracy-a [3/4, 3/4, 3/4]; "
            "accuracy-b [3/4, 3/4, 3/4]",
            "mirror: prevalence-a 1/2; accuracy-a [1/4, 1/4, 1/4]; "
            "accuracy-b [1/4, 1/4, 1/4]",
        ]

    def test_dependent_fixture_diagnosed(self, capsys):
        code, out, _ = run(capsys, "solve-independent", GRADING)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "inconsistent: non_real"
        assert lines[1].startswith("witness: ")
        assert "-570/78961" in lines[1]

    def test_wrong_size(self, capsys, tmp_path):
        from crosscheck import EvaluationSketch, save_sketch

        path = tmp_path / "two.json"
        save_sketch(EvaluationSketch(("u", "v"), 1, {"ab": 1}), str(path))
        code, _, err = run(capsys, "solve-independent", str(path))
        assert code == EXIT_ERROR
        assert err.startswith("error: ")


class TestGenerate:
    def test_deterministic(self, capsys):
        code, first, _ = run(
            capsys, "generate", "--seed", "7", "--params", DEMO_PARAMS,
            "--q", "40",
        )
        assert code == EXIT_OK
        code, second, _ = run(
            capsys, "generate", "--seed", "7", "--params", DEMO_PARAMS,
            "--q", "40",
        )
        assert code == EXIT_OK
        assert first == second
        code, third, _ = run(
            capsys, "generate", "--seed", "8", "--params", DEMO_PARAMS,
            "--q", "40",
        )
        assert third != first

    def test_out_file_ingestable(self, capsys, tmp_path):
        table = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "generate", "--seed", "3", "--params", DEMO_PARAMS,
            "--q", "25", "--out", str(table),
        )
        assert code == EXIT_OK
        assert f"wrote {table}" in out
        code, _, _ = run(
            capsys, "ingest", str(table), "--format", "csv",
            "--out", str(tmp_path / "sketch.json"),
        )
        assert code == EXIT_OK
        sketch = load_sketch(str(tmp_path / "sketch.json"))
        assert sketch.q == 25
        assert sketch.classifiers == ("r1", "r2", "r3")
        assert sketch.truth_split is not None

    def test_default_ids_when_params_lack_them(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "p_a": "1/2",
            "accuracy_a": ["3/4", "3/4", "3/4"],
            "accuracy_b": ["3/4", "3/4", "3/4"],
        }))
        code, out, _ = run(
            capsys, "generate", "--seed", "1", "--params", str(params),
            "--q", "2",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "item_id,clf1,clf2,clf3,truth"

    def test_params_field_of_wrong_type_is_an_error(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "p_a": "1/2", "accuracy_a": 5, "accuracy_b": ["3/4"],
        }))
        code, out, err = run(
            capsys, "generate", "--seed", "1", "--params", str(params), "--q", "2",
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("ids", [
        ["x", "x"], ["x", ""], ["x", 5], ["x"], ["x", "y", "z"],
    ])
    def test_ids_the_table_cannot_hold_are_an_error(self, capsys, tmp_path, ids):
        """A repeated, empty or non-string id, or one id too few or too many
        for the parameters, writes no table: its header could not be
        ingested."""
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "classifiers": ids, "p_a": "1/2",
            "accuracy_a": ["3/4", "3/4"], "accuracy_b": ["3/4", "3/4"],
        }))
        table = tmp_path / "table.csv"
        code, out, err = run(
            capsys, "generate", "--seed", "1", "--params", str(params), "--q", "2",
            "--out", str(table),
        )
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("error:")
        assert not table.exists()

    def test_params_booleans_are_an_error(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "p_a": True, "accuracy_a": [False], "accuracy_b": [True],
        }))
        code, out, err = run(
            capsys, "generate", "--seed", "1", "--params", str(params), "--q", "2",
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error:")


class TestIngestAndFlip:
    def test_fixture_csv_reproduces_canonical_sketch(self, capsys, tmp_path, fixtures_dir):
        out_path = tmp_path / "sketch.json"
        code, out, _ = run(
            capsys, "ingest", GRADING_CSV, "--format", "csv",
            "--map", "incorrect=a", "--map", "correct=b",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert "kept 281 items over 3 classifiers" in out
        assert f"wrote {out_path}" in out
        assert out_path.read_bytes() == (fixtures_dir / "llm_grading.json").read_bytes()

    def test_dropped_rows_reported(self, capsys, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("item_id,u,truth\nx1,a,a\nx2,,b\n")
        out_path = tmp_path / "sketch.json"
        code, out, _ = run(
            capsys, "ingest", str(table), "--format", "csv",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert "kept 1 items over 1 classifiers" in out
        assert "dropped x2: empty response for classifier u" in out

    def test_unmapped_label_fails(self, capsys, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("item_id,u\nx1,yes\n")
        code, _, err = run(
            capsys, "ingest", str(table), "--format", "csv",
            "--out", str(tmp_path / "s.json"),
        )
        assert code == EXIT_ERROR
        assert err.startswith("error: ")

    def test_oversized_cell_is_an_error_line(self, capsys, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("item_id,u\n" + "x" * 200_000 + ",a\n")
        code, out, err = run(
            capsys, "ingest", str(table), "--format", "csv",
            "--out", str(tmp_path / "s.json"),
        )
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: row 2: field larger than field limit (131072)\n"

    def test_generated_id_with_a_carriage_return_reads_back(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "classifiers": ["c\r1", "v"],
            "p_a": "1/2",
            "accuracy_a": ["3/4", "3/4"],
            "accuracy_b": ["3/4", "3/4"],
        }))
        table = tmp_path / "table.csv"
        out_path = tmp_path / "sketch.json"
        code, _, _ = run(
            capsys, "generate", "--seed", "1", "--params", str(params), "--q", "9",
            "--out", str(table),
        )
        assert code == EXIT_OK
        code, _, _ = run(capsys, "ingest", str(table), "--format", "csv", "--out", str(out_path))
        assert code == EXIT_OK
        assert load_sketch(str(out_path)).classifiers == ("c\r1", "v")

    @pytest.mark.parametrize("argv", [
        ("ingest", GRADING_CSV, "--format", "csv",
         "--map", "incorrect=a", "--map", "correct=b", "--out"),
        ("flip", GRADING, "--classifier", "gpt4", "--mode", "global", "--out"),
        ("generate", "--seed", "1", "--params", DEMO_PARAMS, "--q", "5", "--out"),
    ], ids=["ingest", "flip", "generate"])
    def test_missing_output_directory_named(self, capsys, tmp_path, argv):
        target = str(tmp_path / "nodir" / "out")
        code, out, err = run(capsys, *argv, target)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == f"error: [Errno 2] No such file or directory: {target!r}\n"

    def test_flip_twice_restores_bytes(self, capsys, tmp_path, fixtures_dir):
        once = tmp_path / "once.json"
        twice = tmp_path / "twice.json"
        code, _, _ = run(
            capsys, "flip", GRADING, "--classifier", "gpt4",
            "--mode", "global", "--out", str(once),
        )
        assert code == EXIT_OK
        code, _, _ = run(
            capsys, "flip", str(once), "--classifier", "gpt4",
            "--mode", "global", "--out", str(twice),
        )
        assert code == EXIT_OK
        assert twice.read_bytes() == (fixtures_dir / "llm_grading.json").read_bytes()

    def test_flip_marginals_move(self, capsys, tmp_path):
        flipped = tmp_path / "flipped.json"
        run(
            capsys, "flip", GRADING, "--classifier", "gpt4",
            "--mode", "global", "--out", str(flipped),
        )
        sketch = load_sketch(str(flipped))
        from crosscheck import marginalize

        assert marginalize(sketch, "gpt4") == (47, 234)

    def test_truth_flip_needs_split(self, capsys, tmp_path, grading_bare):
        from crosscheck import save_sketch

        bare = tmp_path / "bare.json"
        save_sketch(grading_bare, str(bare))
        code, _, err = run(
            capsys, "flip", str(bare), "--classifier", "gpt4",
            "--mode", "true-a", "--out", str(tmp_path / "x.json"),
        )
        assert code == EXIT_ERROR
        assert err.startswith("error: ")


class TestNestedJson:
    @pytest.mark.parametrize("argv", [
        ("sketch", "DEEP"),
        ("alarm", "DEEP"),
        ("verify", GRADING, "--claims", "DEEP"),
        ("generate", "--seed", "1", "--q", "2", "--params", "DEEP"),
        ("ingest", "DEEP", "--format", "jsonl", "--out", "OUT"),
    ], ids=["sketch", "alarm", "verify", "generate", "ingest"])
    def test_deep_nesting_is_an_error(self, capsys, tmp_path, argv):
        # deeper than the JSON decoder's recursion allows
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 5000)
        swap = {"DEEP": str(deep), "OUT": str(tmp_path / "out.json")}
        code, out, err = run(capsys, *(swap.get(arg, arg) for arg in argv))
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("error: ") and "nested too deeply" in err
        assert not (tmp_path / "out.json").exists()


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == EXIT_ERROR
        assert "invalid choice" in err

    def test_no_arguments(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_ERROR

    def test_module_entry_point(self):
        # ``python -m crosscheck.cli`` runs the same entry point as the script
        src = pathlib.Path(crosscheck.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "crosscheck.cli", "sketch", GRADING],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == EXIT_OK
        assert done.stdout.splitlines()[:2] == ["q: 281", "classifiers: claude, mistral, gpt4"]
        # the alarm's entry points are imported on first use there too
        done = subprocess.run(
            [sys.executable, "-m", "crosscheck.cli", "alarm", GRADING, "--pair", "mistral", "gpt4"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stderr) == (EXIT_TRIGGERED, "")
        assert done.stdout.endswith("verdict: triggered\n")

    def test_one_parser_serves_every_call(self, capsys, tmp_path, monkeypatch):
        # main reuses one parser per process, so each call must parse and
        # answer exactly as a parser built for it alone would: the second
        # --map list fails on "yes" unless the first one leaked into it
        table = tmp_path / "table.csv"
        table.write_text("item_id,u,v\nx1,yes,no\nx2,no,no\n")
        out = tmp_path / "sketch.json"
        calls = [
            ("ingest", str(table), "--format", "csv", "--map", "yes=a", "--map", "no=b",
             "--out", str(out)),
            ("ingest", str(table), "--format", "csv", "--map", "no=a", "--out", str(out)),
            ("alarm", GRADING, "--spec-per-label", "half"),
            ("alarm", "--help"),
        ]
        codes = []
        for argv in calls:
            cached = run(capsys, *argv), out.read_bytes()
            with monkeypatch.context() as patch:
                patch.setattr(cli, "build_parser", build_parser.__wrapped__)
                fresh = run(capsys, *argv), out.read_bytes()
            assert cached == fresh, argv
            codes.append(cached[0][0])
        assert codes == [EXIT_OK, EXIT_ERROR, EXIT_ERROR, EXIT_OK]
        assert build_parser() is build_parser()

    def test_exit_codes_are_distinct(self):
        assert (EXIT_OK, EXIT_ERROR, EXIT_TRIGGERED) == (0, 1, 2)

    @staticmethod
    def module_env(buffered):
        src = pathlib.Path(crosscheck.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        return env

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_reader_that_stops_after_one_line_leaves_stderr_empty(self, buffered):
        # `crosscheck enumerate --q 300 | head -1`: exit 1, since not all of
        # the output was read, and no "Broken pipe" or "Exception ignored"
        proc = subprocess.Popen(
            [sys.executable, "-m", "crosscheck.cli", "enumerate", "--q", "300"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.module_env(buffered),
        )
        assert proc.stdout.readline() == b"0 0 0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (EXIT_ERROR, b"")

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ("enumerate", "--q", "3", "--count-only"),
        ("alarm", GRADING, "--pair", "mistral", "gpt4"),
    ], ids=["enumerate", "alarm"])
    def test_output_to_a_pipe_already_closed_is_an_error_without_text(self, buffered, argv):
        # a short output sits in the buffer until main flushes it, so the
        # closed pipe shows there and not in the flush at exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "crosscheck.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=self.module_env(buffered), timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (EXIT_ERROR, b"")


# Every argv form that the benchmark's workloads and the README run: main
# reads each from the command table, without argparse.
TABLE_FORMS = [
    ("ingest", "decisions.csv", "--format", "csv", "--map", "incorrect=a", "--map", "correct=b",
     "--out", "ingested.json"),
    ("ingest", "good.jsonl", "--format", "jsonl", "--out", "ingest-good-jsonl.json"),
    ("alarm", "grading.json", "--pair", "claude", "mistral"),
    ("alarm", "grading.json", "--ensemble", "--qa-range", "100", "200"),
    ("alarm", "grading.json", "--pair", "claude", "mistral", "--refine-pairs"),
    ("alarm", "grading.json", "--refine-pairs"),
    ("alarm", "grading.json", "--pair", "claude", "mistral", "--refine-pairs",
     "--trace", "refined.json", "--plot", "refined.svg"),
    ("alarm", "grading.json", "--pair", "claude", "mistral", "--refine-pairs",
     "--trace", "refined.csv"),
    ("alarm", "grading.json", "--pair", "claude", "mistral", "--trace", "plain.json"),
    ("alarm", "good.json"),
    ("alarm", "good.json", "--spec-per-label", "3/5"),
    ("alarm", "good.json", "--spec-overall", "3/5"),
    ("alarm", "good.json", "--refine-pairs", "--trace", "refined.json"),
    ("alarm", "good.json", "--trace", "plain.json", "--plot", "plain.svg"),
    ("alarm", "split.json", "--trace", "split-trace.csv"),
    ("alarm", "small.json", "--trace", "small-plain.csv"),
    ("sketch", "grading.json"),
    ("verify", "grading.json"),
    ("verify", "grading.json", "--claims", "claims.json"),
    ("solve-independent", "grading.json"),
    ("flip", "grading.json", "--classifier", "claude", "--mode", "global", "--out", "flipped.json"),
    ("ingest", GRADING_CSV, "--format", "csv", "--map", "incorrect=a", "--map", "correct=b",
     "--out", "/tmp/grading.json"),
    ("sketch", GRADING),
    ("alarm", GRADING, "--pair", "mistral", "gpt4"),
    ("alarm", GRADING, "--ensemble", "--qa-range", "100", "200"),
    ("alarm", GRADING, "--refine-pairs", "--spec-per-label", "1/3"),
    ("alarm", GRADING, "--no-strict"),
    ("alarm", GRADING, "--trace", "out.csv"),
    ("alarm", GRADING, "--plot", "out.svg"),
    ("verify", GRADING),
    ("verify", GRADING, "--claims", "claims.json", "--budget", "10000000"),
    ("solve-independent", EXACT),
    ("enumerate", "--q", "3", "--count-only"),
    ("generate", "--params", DEMO_PARAMS, "--q", "20", "--seed", "1", "--out", "generated.csv"),
]

ARGUMENTS = {name: arguments for name, (_, _, arguments) in cli._COMMANDS.items()}
FLAGS = sorted(
    {arg.flag for arguments in ARGUMENTS.values() for arg in arguments if arg.flag[0] == "-"}
    | {"--no-strict", "-h", "--help", "--"}
)
NOISE = ("", "X", "-", "-1", "-x", "x", "1e5", "3/0", "1/2/3", "csvv", "Global", " 1", "1_0")


def values(arg):
    """Values ``arg`` takes, and now and then one that its conversion or
    choices refuse or that starts with '-'."""
    if arg.choices:
        return st.sampled_from((*arg.choices, *arg.choices, "csvv", "Global"))
    if arg.convert is int:
        return st.sampled_from(("0", "1", "7", "100", "200", "-1", "x", "1.5"))
    if arg.convert is not None:
        return st.sampled_from(("1/2", "3/5", "0.75", "1", "0", "4", "x", "1e5", "3/0", "-1"))
    return st.sampled_from(("X", "sketch.json", "a=b", "claude", "", "-x"))


@st.composite
def spelled(draw, arg):
    """One argument as the table spells it."""
    if arg.flag[0] != "-":
        return [draw(values(arg))]
    if arg.kind == "boolean":
        return [draw(st.sampled_from((arg.flag, "--no-" + arg.flag[2:])))]
    if arg.kind == "store_true":
        return [arg.flag]
    return [arg.flag, *(draw(values(arg)) for _ in range(arg.nargs or 1))]


# an exact flag, an abbreviation, --opt=value, a stray value or any text
STRAY = st.one_of(
    st.sampled_from(FLAGS),
    st.sampled_from(FLAGS).flatmap(
        lambda flag: st.integers(1, len(flag) - 1).map(lambda k: flag[:k])
    ),
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(NOISE)).map("=".join),
    st.sampled_from(NOISE),
    st.text(max_size=3),
)


@st.composite
def argvs(draw):
    """A command and most of its arguments spelled as the table takes them,
    in any order, then up to two edits: a stray token put in or put in
    place of another, a token taken out, or an argument given twice."""
    command = draw(st.sampled_from([*ARGUMENTS, "", "alar", "alarms", "-h", "--help"]))
    arguments = ARGUMENTS.get(command, ())
    argv = []
    for arg in draw(st.permutations(arguments)):
        needed = arg.required or arg.flag[0] != "-"
        if draw(st.sampled_from((True, True, True, False) if needed else (True, False))):
            argv += draw(spelled(arg))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "replace", "delete", "repeat")))
        if edit == "insert":
            argv.insert(at, draw(STRAY))
        elif edit == "replace" and argv:
            argv[min(at, len(argv) - 1)] = draw(STRAY)
        elif edit == "delete" and argv:
            del argv[min(at, len(argv) - 1)]
        elif edit == "repeat" and arguments:
            argv[at:at] = draw(spelled(draw(st.sampled_from(arguments))))
    return [command, *argv]


class TestArgvReader:
    @pytest.mark.parametrize("argv", TABLE_FORMS, ids=" ".join)
    def test_benchmark_and_readme_forms_take_the_table(self, argv):
        read = cli._read_argv(argv)
        assert read is not None
        assert vars(read) == vars(build_parser.__wrapped__().parse_args(argv))

    @settings(max_examples=1000, deadline=None)
    @given(argvs())
    def test_reader_takes_argv_only_as_argparse_reads_it(self, argv):
        # the reader never raises; what it takes, argparse reads the same
        read = cli._read_argv(argv)
        if read is not None:
            assert vars(read) == vars(build_parser.__wrapped__().parse_args(argv))

    def test_each_call_gets_its_own_map_list(self):
        argv = ["ingest", "t.csv", "--format", "csv", "--out", "s.json"]
        first, second = cli._read_argv(argv), cli._read_argv(argv)
        assert first.map == second.map == []
        assert first.map is not second.map
