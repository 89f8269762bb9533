"""Tests for adversary registration and the ``repro adversary`` CLI."""

import json

import pytest

from repro.adversary.base import adversary_record, sweep_adversary
from repro.cli import main
from repro.registry import (
    ADVERSARIES,
    ALGORITHMS,
    PROBLEMS,
    RegistryError,
    load_components,
)


@pytest.fixture(autouse=True)
def _loaded():
    load_components()


class TestRegistration:
    def test_all_three_paper_adversaries_registered(self):
        assert set(ADVERSARIES.names()) == {
            "prop313/leaf-coloring",
            "prop520/hierarchical-thc(2)",
            "prop49/balanced-tree",
        }

    def test_entries_reference_registered_components(self):
        for entry in ADVERSARIES:
            assert entry.problem in PROBLEMS
            victim = ALGORITHMS.get(entry.victim)
            assert victim.problem == entry.problem
            assert not victim.randomized  # duels need deterministic victims

    def test_entry_names_match_instances(self):
        for entry in ADVERSARIES:
            assert entry.make().name == entry.name

    def test_budget_grids_and_fit_metadata(self):
        from repro.analysis.complexity_fit import GROWTH_CLASSES

        for entry in ADVERSARIES:
            assert len(entry.quick) >= 2  # growth fits need >= 2 points
            assert len(entry.full) >= len(entry.quick)
            assert entry.params("quick") == entry.quick
            assert entry.params("full") == entry.full
            with pytest.raises(ValueError):
                entry.params("huge")
            for name in entry.expected_fit:
                assert name in entry.candidates
            for name in entry.candidates:
                assert name in GROWTH_CLASSES

    def test_unknown_adversary_raises_with_hint(self):
        with pytest.raises(RegistryError, match="prop313"):
            ADVERSARIES.get("prop313/leaf-colorng")

    def test_prop49_rejects_absurd_budget_exponents(self):
        """Budgets are log2(N); a grid value borrowed from another
        adversary (e.g. prop313's n=120) must be rejected, not build a
        2^120-element input."""
        entry = ADVERSARIES.get("prop49/balanced-tree")
        with pytest.raises(ValueError, match="exponent"):
            entry.make().run(120)


class TestSweepRecords:
    def test_quick_sweeps_fit_expected_classes(self):
        for entry in ADVERSARIES:
            runs, fit = sweep_adversary(entry, "quick")
            record = adversary_record(entry, runs, fit)
            assert record["ok"], record
            assert record["queries_fit"] in entry.expected_fit
            assert len(record["points"]) == len(entry.quick)
            assert all(p["upheld"] for p in record["points"])

    def test_record_flags_unexpected_fit(self):
        entry = ADVERSARIES.get("prop313/leaf-coloring")
        runs, fit = sweep_adversary(entry, "quick")
        record = adversary_record(
            entry, runs, {"queries_fit": "log n", "bits_fit": None}
        )
        assert record["ok"] is False


class TestCli:
    def test_list_kind_adversaries(self, capsys):
        assert main(["list", "--kind", "adversaries", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"adversaries"}
        assert len(payload["adversaries"]) == len(ADVERSARIES)
        for item in payload["adversaries"]:
            assert item["victim"] in ALGORITHMS
            assert item["expected_fit"]

    def test_run_exit_zero_and_payload(self, capsys):
        assert main([
            "adversary", "run", "prop313/leaf-coloring",
            "--budget", "45", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["upheld"] is True
        assert payload["verified"] is True
        assert payload["budget"] == 45
        assert payload["transcript_events"] > 0

    def test_run_unknown_name_exits_two(self, capsys):
        assert main(["adversary", "run", "no-such-adversary"]) == 2

    def test_run_randomized_victim_exits_two(self, capsys):
        assert main([
            "adversary", "run", "prop313/leaf-coloring",
            "--algorithm", "leaf-coloring/rw-to-leaf",
        ]) == 2

    def test_run_out_of_range_budget_exits_two(self, capsys):
        assert main([
            "adversary", "run", "prop49/balanced-tree", "--budget", "120",
        ]) == 2

    def test_run_saves_canonical_transcript(self, tmp_path, capsys):
        out = tmp_path / "transcript.json"
        assert main([
            "adversary", "run", "prop49/balanced-tree",
            "--budget", "3", "--transcript", str(out),
        ]) == 0
        from repro.adversary.engine import Transcript

        transcript = Transcript.from_json(out.read_text())
        assert transcript.adversary == "prop49/balanced-tree"
        assert transcript.to_json() == out.read_text()

    def test_sweep_json_all(self, capsys):
        assert main(["adversary", "sweep", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert {r["adversary"] for r in records} == set(ADVERSARIES.names())
        for record in records:
            assert record["ok"] is True
            assert record["queries_fit"] in record["expected_fit"]

    def test_sweep_named_subset(self, capsys):
        assert main([
            "adversary", "sweep", "prop49/balanced-tree", "--json",
        ]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["bits_fit"] == "n"

    def test_sweep_progress_goes_to_stderr_keeping_json_parseable(
        self, capsys
    ):
        assert main([
            "adversary", "sweep", "prop49/balanced-tree", "--progress",
            "--json",
        ]) == 0
        captured = capsys.readouterr()
        records = json.loads(captured.out)  # stdout is pure JSON
        assert len(records) == 1
        assert "prop49/balanced-tree budget=" in captured.err

    def test_sweep_unknown_name_exits_two(self, capsys):
        assert main(["adversary", "sweep", "nope"]) == 2
