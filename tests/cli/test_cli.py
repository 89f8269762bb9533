"""Tests for `repro list` / `repro run` / `repro sweep` / `repro mc`."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main, parse_param
from repro.model.runner import solve_and_check
from repro.registry import ALGORITHMS, FAMILIES, PROBLEMS, load_components


@pytest.fixture(autouse=True)
def _loaded():
    load_components()


class TestList:
    def test_exit_zero_and_mentions_components(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("leaf-coloring/rw-to-leaf", "hh-thc(2,3)", "cycle"):
            assert name in out

    def test_json_matches_registry(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["problems"]) == len(PROBLEMS)
        assert len(payload["algorithms"]) == len(ALGORITHMS)
        assert len(payload["families"]) == len(FAMILIES)
        assert payload["suites"]

    def test_kind_filter(self, capsys):
        assert main(["list", "--kind", "families", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"families"}

    def test_python_dash_m_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list", "--kind", "problems"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "leaf-coloring" in proc.stdout


class TestRun:
    def test_matches_direct_api_call(self, capsys):
        """`repro run` reproduces the direct solve_and_check verdict."""
        assert main([
            "run",
            "leaf-coloring/rw-to-leaf",
            "--param",
            "4",
            "--seed",
            "7",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)

        family = FAMILIES.get("leaf-coloring")
        report = solve_and_check(
            PROBLEMS.get("leaf-coloring").make(),
            family.instance(4),
            ALGORITHMS.get("leaf-coloring/rw-to-leaf").make(),
            seed=7,
        )
        assert payload["valid"] == report.valid
        assert payload["max_volume"] == report.run.max_volume
        assert payload["max_distance"] == report.run.max_distance
        assert payload["n"] == 31

    def test_backend_equivalence(self, capsys):
        args = ["run", "hybrid-thc(2)/waypoint", "--json"]
        assert main(args) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(args + ["--backend", "process:2"]) == 0
        process = json.loads(capsys.readouterr().out)
        for key in ("valid", "max_volume", "max_distance", "max_queries"):
            assert serial[key] == process[key]

    def test_invalid_output_exits_one(self, capsys):
        # A volume budget of 2 truncates the full gather; the fallback
        # output is not a valid LeafColoring solution.
        code = main([
            "run",
            "leaf-coloring/full-gather",
            "--param",
            "3",
            "--max-volume",
            "2",
            "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["valid"] is False
        assert payload["truncated_nodes"] > 0
        assert payload["violations"]

    def test_unknown_algorithm_exits_two(self, capsys):
        assert main(["run", "leaf-coloring/distanse"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        # RegistryError must not repr-quote (it is not a KeyError).
        assert 'error: "' not in err

    def test_incompatible_family_exits_two(self, capsys):
        assert main(["run", "cycle/cole-vishkin", "--family", "relay"]) == 2
        assert "does not generate" in capsys.readouterr().err

    def test_restricted_family_exits_two(self, capsys):
        # Promise-only solvers declare a family restriction; `repro run`
        # enforces it like `repro mc` does (shared resolve_cell).
        assert main([
            "run", "leaf-coloring/secret-rw", "--family", "leaf-coloring",
        ]) == 2
        assert "restricted" in capsys.readouterr().err


class TestSweep:
    def test_adhoc_sweep_json(self, capsys):
        assert main([
            "sweep",
            "--family",
            "leaf-coloring",
            "--algorithm",
            "leaf-coloring/distance",
            "--metric",
            "distance",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        sweep = payload[0]
        assert sweep["ns"] == [15, 31, 63]
        assert len(sweep["costs"]) == 3
        assert isinstance(sweep["fit"], str)

    def test_named_suite_prints_rows(self, capsys):
        assert main(["sweep", "fig2/volume-landscape"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "LeafColoring R-VOL" in out

    def test_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([
            {
                "family": "cycle",
                "algorithm": "cycle/cole-vishkin",
                "metric": "volume",
                "grid": "quick",
                "claimed": "log* n",
            },
        ]))
        assert main(["sweep", "--spec-file", str(spec), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["claimed"] == "log* n"
        assert payload[0]["ns"] == [8, 16, 32]

    def test_progress_goes_to_stderr_keeping_json_parseable(self, capsys):
        assert main([
            "sweep", "--family", "cycle", "--algorithm",
            "cycle/cole-vishkin", "--progress", "--json",
        ]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout is pure JSON
        assert payload[0]["ns"] == [8, 16, 32]
        assert "3/3: n=32" in captured.err

    def test_unknown_suite_exits_two(self, capsys):
        assert main(["sweep", "table1/nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_spec_file_missing_key_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"algorithm": "cycle/cole-vishkin"}]))
        assert main(["sweep", "--spec-file", str(spec)]) == 2
        assert "missing the 'family' key" in capsys.readouterr().err

    def test_seed_rejected_for_named_suites(self, capsys):
        # Suites pin their own seeds; silently ignoring --seed would
        # report results for the wrong seed.
        assert main(["sweep", "fig2/volume-landscape", "--seed", "9"]) == 2
        assert "--seed only applies" in capsys.readouterr().err

    def test_no_arguments_exits_two(self, capsys):
        assert main(["sweep"]) == 2
        assert "nothing to sweep" in capsys.readouterr().err


class TestMc:
    def test_matches_direct_engine_call(self, capsys):
        """`repro mc` reproduces the direct run_trials estimate."""
        assert main([
            "mc",
            "leaf-coloring/rw-to-leaf",
            "--param", "4",
            "--quick",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)

        from repro.montecarlo.engine import TrialPolicy, run_trials

        direct = run_trials(
            PROBLEMS.get("leaf-coloring").make(),
            FAMILIES.get("leaf-coloring").instance(4),
            ALGORITHMS.get("leaf-coloring/rw-to-leaf").make(),
            TrialPolicy(min_trials=8, max_trials=32, batch_size=8,
                        tolerance=0.1),
            base_seed=7,  # the registered seed
        )
        assert payload["rate"] == direct.rate
        assert payload["trials"] == direct.trials
        assert payload["stopped"] == direct.stopped
        assert payload["ci_low"] == direct.interval()[0]
        assert payload["policy"]["early_stop"] is True
        assert payload["base_seed"] == 7

    def test_quick_preset_matches_bench_policy(self, capsys):
        """--quick is the exact policy the bench artifact gates on."""
        from repro.montecarlo.engine import QUICK_POLICY

        assert main([
            "mc", "constant/echo-ok", "--quick", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == QUICK_POLICY.describe()

    def test_explicit_flags_override_quick_preset(self, capsys):
        # Regression: --quick used to silently discard an explicitly
        # passed --tolerance/--max-trials.
        assert main([
            "mc", "constant/echo-ok", "--quick",
            "--max-trials", "16", "--tolerance", "0.2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"]["max_trials"] == 16
        assert payload["policy"]["tolerance"] == 0.2
        assert payload["policy"]["min_trials"] == 8  # preset keeps the rest

    def test_no_early_stop_runs_exactly_max_trials(self, capsys):
        assert main([
            "mc",
            "constant/echo-ok",
            "--max-trials", "6",
            "--min-trials", "1",
            "--batch-size", "6",
            "--no-early-stop",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 6
        assert payload["stopped"] == "fixed"
        assert payload["rate"] == 1.0

    def test_gate_failure_exits_one(self, capsys):
        # A gate above 1.0 can never be met, whatever the estimate.
        assert main([
            "mc",
            "leaf-coloring/rw-to-leaf",
            "--param", "3",
            "--quick",
            "--gate", "1.01",
        ]) == 1
        assert "gate failed" in capsys.readouterr().err

    def test_backend_equivalence(self, capsys):
        args = [
            "mc", "leaf-coloring/rw-to-leaf", "--param", "3", "--quick",
            "--json",
        ]
        assert main(args) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(args + ["--backend", "reference"]) == 0
        reference = json.loads(capsys.readouterr().out)
        for key in ("rate", "trials", "successes", "stopped", "volume"):
            assert serial[key] == reference[key]

    def test_unknown_algorithm_exits_two(self, capsys):
        assert main(["mc", "leaf-coloring/distanse"]) == 2
        assert "did you mean" in capsys.readouterr().err

    def test_incompatible_family_exits_two(self, capsys):
        assert main([
            "mc", "cycle/cole-vishkin", "--family", "relay",
        ]) == 2
        assert "does not generate" in capsys.readouterr().err

    def test_restricted_family_exits_two(self, capsys):
        assert main([
            "mc", "leaf-coloring/secret-rw", "--family", "leaf-coloring",
        ]) == 2
        assert "restricted" in capsys.readouterr().err

    def test_bad_policy_exits_two(self, capsys):
        assert main([
            "mc", "constant/echo-ok", "--min-trials", "0",
        ]) == 2
        assert "min_trials" in capsys.readouterr().err

    def test_progress_goes_to_stderr_keeping_json_parseable(self, capsys):
        assert main([
            "mc", "constant/echo-ok", "--quick", "--progress", "--json",
        ]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout is pure JSON
        assert payload["stopped"] == "converged"
        assert "trials=" in captured.err


class TestParseParam:
    def test_int_tuple_and_raw(self):
        assert parse_param("5") == 5
        assert parse_param("(3, 2)") == (3, 2)
        assert parse_param("blue") == "blue"
