"""The committed hot-path artifact and its schema reader.

``bench_hotpath.json`` at the repo root is a schema-v3 artifact, and
``load_hotpath_artifact`` reads v3 only: it refuses a foreign schema
and every other version, the v1 and v2 shapes of older checkouts
included.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_hotpath import (  # noqa: E402 - path shim above
    SCHEMA_NAME,
    SCHEMA_VERSION,
    load_hotpath_artifact,
)


class TestCommittedArtifact:
    def test_loads_as_current_schema(self):
        artifact = load_hotpath_artifact(REPO_ROOT / "bench_hotpath.json")
        assert artifact["schema_version"] == SCHEMA_VERSION
        assert "upgraded_from" not in artifact

    def test_parallel_sections_present_and_gated(self):
        artifact = load_hotpath_artifact(REPO_ROOT / "bench_hotpath.json")
        rows = artifact["parallel_scaling"]
        assert rows, "v2 artifact must carry parallel_scaling rows"
        grid = {(r["workers"], r["transport"]) for r in rows}
        assert grid == {(w, t) for w in (1, 2, 4) for t in ("shm", "pickle")}
        gate = artifact["gate"]
        assert gate["parallel_ok"] is True
        assert gate["parallel_speedup_2w_shm"] >= 1.3
        assert gate["shm_leak_free"] is True
        assert artifact["trial_batch"]

    def test_fault_recovery_section_present_and_gated(self):
        artifact = load_hotpath_artifact(REPO_ROOT / "bench_hotpath.json")
        section = artifact["fault_recovery"]
        assert section["recovery_equal"] is True
        assert section["recovery_fault_events"] > 0
        assert section["supervised_s"] > 0
        gate = artifact["gate"]
        assert gate["supervision_ok"] is True
        assert gate["supervision_overhead"] < 0.05
        assert gate["fault_recovery_ok"] is True


class TestV1Shim:
    """The reader's checks, which now refuse v1 and v2 artifacts."""

    def test_current_version_passes_through_unchanged(self):
        payload = {
            "schema": SCHEMA_NAME,
            "schema_version": SCHEMA_VERSION,
            "parallel_scaling": [{"workers": 2}],
        }
        assert load_hotpath_artifact(payload) is payload

    def test_foreign_schema_rejected(self):
        with pytest.raises(ValueError, match="not a"):
            load_hotpath_artifact({"schema": "something-else"})

    def test_unknown_version_rejected(self):
        for version in (1, 2, 99):
            with pytest.raises(ValueError, match="schema_version"):
                load_hotpath_artifact({"schema": SCHEMA_NAME,
                                       "schema_version": version})
