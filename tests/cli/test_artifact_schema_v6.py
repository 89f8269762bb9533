"""Golden-artifact schema v6: JSON-schema validation + reader shims.

The committed ``BENCH_repro.json`` at the repo root is the golden
artifact: it must validate against the formal JSON-schema document that
ships with the CLI (``repro/cli/schemas/bench-v6.schema.json``), it
must document the PR-5 acceptance criterion (adaptive early stopping
reaching the same verdicts as the fixed-count runs on every registry
cell while executing strictly fewer total trials), the PR-7 criterion
(every implicit-capable family checked against its materialized factory
and probed past n = 10^7 through the bounded-memory implicit oracle),
and — new in v6 — the PR-10 criterion: a measured ``serving`` section
from a live ``repro serve`` instance where the warm (repeat) phase is
answered entirely from the result store with bitwise-identical bodies
and zero new executions.
"""

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip(
    "jsonschema", reason="jsonschema ships in the dev extra"
)

from repro.cli import main  # noqa: E402
from repro.cli.bench import (  # noqa: E402
    SCHEMA_DOCUMENT,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    load_artifact,
    upgrade_artifact,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN = REPO_ROOT / "BENCH_repro.json"


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_DOCUMENT.read_text())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestSchemaDocument:
    def test_document_is_itself_valid_draft7(self, schema):
        jsonschema.Draft7Validator.check_schema(schema)

    def test_document_pins_current_version(self, schema):
        assert schema["properties"]["schema"]["const"] == SCHEMA_NAME
        assert (
            schema["properties"]["schema_version"]["const"] == SCHEMA_VERSION
        )


class TestGoldenArtifact:
    def test_golden_artifact_validates(self, schema, golden):
        jsonschema.validate(golden, schema)
        assert golden["schema_version"] == 6
        assert golden["mode"] == "quick"

    def test_monte_carlo_section_covers_every_cell(self, golden):
        cells = {
            (c["problem"], c["algorithm"], c["family"])
            for c in golden["cells"]
        }
        mc = {
            (r["problem"], r["algorithm"], r["family"])
            for r in golden["monte_carlo"]
        }
        assert mc == cells

    def test_acceptance_criterion(self, golden):
        """Same verdicts on every cell, strictly fewer total trials."""
        assert golden["monte_carlo"], "monte_carlo section must be populated"
        for record in golden["monte_carlo"]:
            assert record["ok"] is True
            assert record["verdicts_agree"] is True
            assert record["prefix_consistent"] is True
            assert (
                record["adaptive"]["trials"] <= record["fixed"]["trials"]
            )
        summary = golden["summary"]["monte_carlo"]
        assert summary["failed"] == 0
        assert summary["adaptive_trials"] < summary["fixed_trials"]
        assert summary["trials_saved"] == (
            summary["fixed_trials"] - summary["adaptive_trials"]
        )

    def test_summary_totals_are_consistent(self, golden):
        summary = golden["summary"]["monte_carlo"]
        assert summary["cells"] == len(golden["monte_carlo"])
        assert summary["fixed_trials"] == sum(
            r["fixed"]["trials"] for r in golden["monte_carlo"]
        )
        assert summary["adaptive_trials"] == sum(
            r["adaptive"]["trials"] for r in golden["monte_carlo"]
        )

    def test_implicit_scaling_covers_every_implicit_family(self, golden):
        from repro.registry import FAMILIES, load_components

        load_components()
        implicit = {e.name for e in FAMILIES if e.implicit}
        assert implicit, "registry must declare implicit families"
        assert {r["family"] for r in golden["implicit_scaling"]} == implicit

    def test_implicit_scaling_acceptance_criterion(self, golden):
        """Every family differential-checked and probed past n = 10^7."""
        assert golden["implicit_scaling"]
        for record in golden["implicit_scaling"]:
            assert record["ok"] is True
            assert record["differential"]["ok"] is True
            assert record["probe"]["ok"] is True
            assert record["n"] >= 10_000_000
        summary = golden["summary"]["implicit_scaling"]
        assert summary["families"] == len(golden["implicit_scaling"])
        assert summary["failed"] == 0
        assert summary["max_n"] == max(
            r["n"] for r in golden["implicit_scaling"]
        )
        assert summary["max_n"] >= 10_000_000

    def test_serving_section_is_populated_and_gated(self, golden):
        """PR-10 acceptance: measured serving numbers, warm phase served
        from the store with bitwise-identical bodies and no new work."""
        serving = golden["serving"]
        assert serving is not None
        assert serving["ok"] is True
        assert serving["failures"] == []
        assert [p["name"] for p in serving["phases"]] == ["cold", "repeat"]
        cold, repeat = serving["phases"]
        assert cold["statuses"] == {"200": cold["requests"]}
        assert repeat["statuses"] == {"200": repeat["requests"]}
        # Every warm request came back from the sqlite store, bitwise
        # identical to the cold response, with zero new executions.
        assert repeat["store_hits"] == repeat["requests"]
        assert repeat["store_hit_rate"] == 1.0
        assert serving["repeat_identical"] is True
        assert serving["repeat_mismatches"] == 0
        assert serving["repeat_executions"] == 0
        probes = serving["probes"]
        assert probes["deadline"]["other"] == 0
        assert probes["burst"]["other"] == 0

    def test_serving_record_with_a_batch_histogram_still_validates(
        self, schema, golden
    ):
        # Artifacts written while the service micro-batched carry a
        # ``batch_histogram``; the record allows extra keys, so they
        # stay valid v6 artifacts.
        older = json.loads(json.dumps(golden))
        older["serving"]["batch_histogram"] = {"1": 24}
        jsonschema.validate(older, schema)

    def test_serving_summary_matches_section(self, golden):
        serving = golden["serving"]
        summary = golden["summary"]["serving"]
        assert summary["requests"] == sum(
            p["requests"] for p in serving["phases"]
        )
        warm = serving["phases"][-1]
        assert summary["warm_rps"] == warm["rps"]
        assert summary["p50_ms"] == warm["latency_ms"]["p50"]
        assert summary["p99_ms"] == warm["latency_ms"]["p99"]
        assert summary["store_hit_rate"] == warm["store_hit_rate"]
        assert summary["ok"] is True


class TestFreshArtifact:
    def test_fresh_quick_artifact_validates(self, tmp_path, schema, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "bench", "--quick", "--only", "relay", "--no-serve",
            "--out", str(out),
        ]) == 0
        artifact = json.loads(out.read_text())
        jsonschema.validate(artifact, schema)
        assert artifact["monte_carlo"]
        for record in artifact["monte_carlo"]:
            assert record["adaptive"]["stopped"] in (
                "converged", "budget",
            )
            assert record["fixed"]["stopped"] == "fixed"

    def test_only_filter_applies_to_implicit_section(
        self, tmp_path, schema, capsys
    ):
        out = tmp_path / "bench.json"
        assert main([
            "bench", "--quick", "--only", "cycle-uniform", "--no-mc",
            "--no-serve", "--out", str(out),
        ]) == 0
        artifact = json.loads(out.read_text())
        jsonschema.validate(artifact, schema)
        assert [
            r["family"] for r in artifact["implicit_scaling"]
        ] == ["cycle-uniform"]
        record = artifact["implicit_scaling"][0]
        assert record["ok"] is True
        assert record["n"] >= 10_000_000

    def test_no_flags_keep_schema_valid(self, tmp_path, schema, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "bench", "--quick", "--only", "constant", "--no-mc",
            "--no-implicit", "--no-serve", "--out", str(out),
        ]) == 0
        artifact = json.loads(out.read_text())
        jsonschema.validate(artifact, schema)
        assert artifact["monte_carlo"] == []
        assert artifact["summary"]["monte_carlo"]["cells"] == 0
        assert artifact["implicit_scaling"] == []
        assert artifact["summary"]["implicit_scaling"] == {
            "families": 0,
            "failed": 0,
            "max_n": 0,
        }
        assert artifact["serving"] is None
        assert artifact["summary"]["serving"] is None


def _minimal_v3():
    return {
        "schema": SCHEMA_NAME,
        "schema_version": 3,
        "generated": "2026-01-01T00:00:00Z",
        "mode": "quick",
        "backend": "serial",
        "oracle": "compiled",
        "git_sha": "abc",
        "python": "3.12.0",
        "cells": [],
        "lower_bounds": [],
        "summary": {
            "cells": 0,
            "points": 0,
            "failed": 0,
            "executions": 0,
            "wall_time": 0.0,
            "execs_per_sec": None,
            "elapsed": 0.0,
            "lower_bounds": 0,
            "lower_bounds_failed": 0,
        },
    }


def _minimal_v4():
    payload = _minimal_v3()
    payload["schema_version"] = 4
    payload["monte_carlo"] = []
    payload["summary"]["monte_carlo"] = {
        "cells": 0,
        "failed": 0,
        "fixed_trials": 0,
        "adaptive_trials": 0,
        "trials_saved": 0,
    }
    return payload


def _minimal_v5():
    payload = _minimal_v4()
    payload["schema_version"] = 5
    payload["implicit_scaling"] = []
    payload["summary"]["implicit_scaling"] = {
        "families": 0,
        "failed": 0,
        "max_n": 0,
    }
    return payload


class TestUpgradeShim:
    def test_v3_upgrades_to_v6(self, schema):
        upgraded = upgrade_artifact(_minimal_v3())
        assert upgraded["schema_version"] == 6
        assert upgraded["monte_carlo"] == []
        assert upgraded["summary"]["monte_carlo"] == {
            "cells": 0,
            "failed": 0,
            "fixed_trials": 0,
            "adaptive_trials": 0,
            "trials_saved": 0,
        }
        assert upgraded["implicit_scaling"] == []
        assert upgraded["summary"]["implicit_scaling"] == {
            "families": 0,
            "failed": 0,
            "max_n": 0,
        }
        assert upgraded["serving"] is None
        assert upgraded["summary"]["serving"] is None
        jsonschema.validate(upgraded, schema)

    def test_v4_upgrades_to_v6(self, schema):
        upgraded = upgrade_artifact(_minimal_v4())
        assert upgraded["schema_version"] == 6
        assert upgraded["implicit_scaling"] == []
        assert upgraded["serving"] is None
        jsonschema.validate(upgraded, schema)

    def test_v5_upgrades_to_v6(self, schema):
        upgraded = upgrade_artifact(_minimal_v5())
        assert upgraded["schema_version"] == 6
        assert upgraded["serving"] is None
        assert upgraded["summary"]["serving"] is None
        jsonschema.validate(upgraded, schema)

    def test_v6_passes_through_untouched(self, golden):
        import copy

        payload = copy.deepcopy(golden)
        assert upgrade_artifact(payload) == golden

    def test_load_artifact_reads_v3_files(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(_minimal_v3()))
        artifact = load_artifact(path)
        assert artifact["schema_version"] == 6
        assert artifact["monte_carlo"] == []
        assert artifact["implicit_scaling"] == []
        assert artifact["serving"] is None

    def test_rejects_foreign_and_future_payloads(self):
        with pytest.raises(ValueError, match="not a repro-bench"):
            upgrade_artifact({"schema": "something-else"})
        too_new = _minimal_v3()
        too_new["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer than this reader"):
            upgrade_artifact(too_new)
        too_old = _minimal_v3()
        too_old["schema_version"] = 2
        with pytest.raises(ValueError, match="v3\\+ supported"):
            upgrade_artifact(too_old)
