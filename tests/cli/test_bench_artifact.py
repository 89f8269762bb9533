"""Tests for `repro bench`: artifact schema, matrix coverage, gating."""

import json

import pytest

from repro.cli import main
from repro.cli.bench import SCHEMA_NAME, SCHEMA_VERSION, run_cell
from repro.exec.backends import SerialBackend
from repro.registry import (
    ALGORITHMS,
    FAMILIES,
    PROBLEMS,
    MatrixCell,
    iter_compatible,
    load_components,
)

CELL_KEYS = {
    "problem",
    "algorithm",
    "family",
    "seed",
    "randomized",
    "ok",
    "points",
    "max_volume",
    "mean_volume",
    "max_distance",
    "volume_fit",
    "distance_fit",
    "executions",
    "wall_time",
    "execs_per_sec",
    "elapsed",
}
POINT_KEYS = {
    "param",
    "n",
    "valid",
    "max_volume",
    "mean_volume",
    "max_distance",
    "max_queries",
    "truncated_nodes",
    "violations",
    "executions",
    "elapsed",
    "execs_per_sec",
}
LOWER_BOUND_KEYS = {
    "adversary",
    "problem",
    "algorithm",
    "bound",
    "expected_fit",
    "points",
    "queries_fit",
    "bits_fit",
    "ok",
    "wall_time",
}
LOWER_BOUND_POINT_KEYS = {
    "budget",
    "n",
    "queries",
    "bits",
    "defeated",
    "upheld",
    "elapsed",
}
MC_KEYS = {
    "problem",
    "algorithm",
    "family",
    "param",
    "n",
    "seed",
    "randomized",
    "threshold",
    "adaptive_mode",
    "policy",
    "fixed",
    "adaptive",
    "verdict_fixed",
    "verdict_adaptive",
    "verdicts_agree",
    "prefix_consistent",
    "trials_saved",
    "ok",
    "wall_time",
}
MC_ESTIMATE_KEYS = {
    "trials",
    "successes",
    "rate",
    "ci_low",
    "ci_high",
    "confidence",
    "method",
    "stopped",
    "volume",
    "distance",
    "queries",
    "elapsed",
}


@pytest.fixture(autouse=True)
def _loaded():
    load_components()


class TestListCells:
    def test_full_matrix_is_registry_enumerated(self, capsys):
        assert main(["bench", "--quick", "--list-cells"]) == 0
        listed = [tuple(c) for c in json.loads(capsys.readouterr().out)]
        assert listed == [cell.key for cell in iter_compatible()]

    def test_only_filter(self, capsys):
        assert main(["bench", "--list-cells", "--only", "relay"]) == 0
        listed = [tuple(c) for c in json.loads(capsys.readouterr().out)]
        assert listed
        assert all(any("relay" in part for part in key) for key in listed)

    def test_no_matching_cells_exits_two(self, capsys):
        assert main(["bench", "--only", "no-such-component"]) == 2


class TestArtifact:
    def test_quick_bench_writes_schema_versioned_artifact(
        self, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_repro.json"
        code = main([
            "bench",
            "--quick",
            "--only",
            "leaf-coloring",
            "--no-serve",
            "--out",
            str(out),
        ])
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["schema"] == SCHEMA_NAME
        assert artifact["schema_version"] == SCHEMA_VERSION
        assert artifact["schema_version"] == 6
        # --no-serve keeps the section present but null.
        assert artifact["serving"] is None
        assert artifact["summary"]["serving"] is None
        assert artifact["mode"] == "quick"
        assert artifact["backend"] == "serial"
        assert artifact["oracle"] == "compiled"
        assert artifact["python"]
        assert artifact["git_sha"]
        expected = [
            cell.key
            for cell in iter_compatible()
            if any("leaf-coloring" in part for part in cell.key)
        ]
        got = [
            (c["problem"], c["algorithm"], c["family"])
            for c in artifact["cells"]
        ]
        assert got == expected
        for cell in artifact["cells"]:
            assert set(cell) == CELL_KEYS
            assert cell["ok"] is True
            assert isinstance(cell["volume_fit"], str)
            assert isinstance(cell["distance_fit"], str)
            assert len(cell["points"]) >= 2
            assert cell["executions"] == sum(
                p["executions"] for p in cell["points"]
            )
            assert cell["wall_time"] >= 0
            for point in cell["points"]:
                assert set(point) == POINT_KEYS
                assert point["valid"] is True
                assert point["executions"] == point["n"]
        # --only leaf-coloring also selects the Prop 3.13 adversary, so
        # the schema-v3 lower_bounds section must be present and gated.
        lower_bounds = artifact["lower_bounds"]
        assert [r["adversary"] for r in lower_bounds] == [
            "prop313/leaf-coloring"
        ]
        for record in lower_bounds:
            assert set(record) == LOWER_BOUND_KEYS
            assert record["ok"] is True
            assert record["queries_fit"] in record["expected_fit"]
            for point in record["points"]:
                assert set(point) == LOWER_BOUND_POINT_KEYS
                assert point["upheld"] is True
        # Schema v4: one monte_carlo record per selected matrix cell,
        # fixed vs adaptive estimation with agreeing verdicts.
        monte_carlo = artifact["monte_carlo"]
        assert [
            (r["problem"], r["algorithm"], r["family"]) for r in monte_carlo
        ] == got
        for record in monte_carlo:
            assert set(record) == MC_KEYS
            assert set(record["fixed"]) == MC_ESTIMATE_KEYS
            assert set(record["adaptive"]) == MC_ESTIMATE_KEYS
            # Every adaptive estimate executes on the real dispatch
            # path, so the prefix gate is live on every cell.
            assert record["adaptive_mode"] == "live"
            assert record["ok"] is True
            assert record["verdicts_agree"] is True
            assert record["fixed"]["stopped"] == "fixed"
            assert record["adaptive"]["trials"] <= record["fixed"]["trials"]
            assert record["trials_saved"] == (
                record["fixed"]["trials"] - record["adaptive"]["trials"]
            )
        # Schema v5: --only leaf-coloring also matches the implicit
        # leaf-coloring-hard family, so the implicit_scaling section
        # must carry its differential + giant-probe record.
        implicit_scaling = artifact["implicit_scaling"]
        assert [r["family"] for r in implicit_scaling] == [
            "leaf-coloring-hard"
        ]
        for record in implicit_scaling:
            assert record["ok"] is True
            assert record["differential"]["ok"] is True
            assert record["probe"]["ok"] is True
        summary = artifact["summary"]
        assert summary["cells"] == len(artifact["cells"])
        assert summary["failed"] == 0
        assert summary["lower_bounds"] == len(lower_bounds)
        assert summary["lower_bounds_failed"] == 0
        assert summary["monte_carlo"]["cells"] == len(monte_carlo)
        assert summary["monte_carlo"]["failed"] == 0
        assert summary["implicit_scaling"]["families"] == len(
            implicit_scaling
        )
        assert summary["implicit_scaling"]["failed"] == 0
        assert summary["executions"] == sum(
            c["executions"] for c in artifact["cells"]
        )
        assert summary["wall_time"] == pytest.approx(
            sum(c["wall_time"] for c in artifact["cells"])
        )
        assert summary["execs_per_sec"] is None or summary["execs_per_sec"] > 0

    def test_adversary_only_bench(self, tmp_path, capsys):
        """--only can select just a lower-bound game (no matrix cells)."""
        out = tmp_path / "bench.json"
        assert main([
            "bench",
            "--quick",
            "--only",
            "prop49",
            "--no-serve",
            "--out",
            str(out),
        ]) == 0
        artifact = json.loads(out.read_text())
        assert artifact["cells"] == []
        assert [r["adversary"] for r in artifact["lower_bounds"]] == [
            "prop49/balanced-tree"
        ]
        record = artifact["lower_bounds"][0]
        assert record["bits_fit"] == "n"
        assert all(p["bits"] is not None for p in record["points"])

    def test_reference_backend_recorded_in_artifact(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "bench",
            "--quick",
            "--only",
            "constant",
            "--backend",
            "reference",
            "--no-serve",
            "--out",
            str(out),
        ]) == 0
        artifact = json.loads(out.read_text())
        assert artifact["backend"] == "reference"
        assert artifact["oracle"] == "reference"

    def test_stdout_summary_mentions_artifact(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        main(["bench", "--only", "constant", "--no-serve",
              "--out", str(out)])
        stdout = capsys.readouterr().out
        assert "0 failed" in stdout
        assert str(out) in stdout


class TestValidationGate:
    def test_run_cell_flags_invalid_outputs(self):
        # An artificial cell pairing a solver with the wrong problem:
        # "ok" is not a proper 2-coloring, so validation must fail.
        cell = MatrixCell(
            problem=PROBLEMS.get("cycle-2-coloring"),
            algorithm=ALGORITHMS.get("constant/echo-ok"),
            family=FAMILIES.get("cycle"),
        )
        record = run_cell(cell, "quick", SerialBackend())
        assert record["ok"] is False
        assert all(not point["valid"] for point in record["points"])
        assert record["points"][0]["violations"]

    def test_randomized_cells_pin_registered_seed(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main([
            "bench",
            "--only",
            "waypoint",
            "--no-serve",
            "--out",
            str(out),
        ]) == 0
        artifact = json.loads(out.read_text())
        by_algorithm = {c["algorithm"]: c for c in artifact["cells"]}
        for name, cell in by_algorithm.items():
            assert cell["randomized"] is True
            assert cell["seed"] == ALGORITHMS.get(name).seed
