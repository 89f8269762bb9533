"""`repro corpus` and the `--store`/`--corpus` flags, end to end."""

import json

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestCorpusCommand:
    def test_generate_list_verify(self, tmp_path, capsys):
        root = str(tmp_path / "corpus")
        code, out = run_cli(
            capsys, "corpus", "generate", "--root", root,
            "--family", "balanced-tree",
        )
        assert code == 0 and "stored" in out
        code, out = run_cli(capsys, "corpus", "list", "--root", root,
                            "--json")
        assert code == 0
        payload = json.loads(out)
        assert all(e["family"] == "balanced-tree"
                   for e in payload["entries"])
        code, out = run_cli(capsys, "corpus", "verify", "--root", root)
        assert code == 0 and "OK" in out

    def test_generate_is_idempotent(self, tmp_path, capsys):
        root = str(tmp_path / "corpus")
        run_cli(capsys, "corpus", "generate", "--root", root,
                "--family", "cycle")
        code, out = run_cli(capsys, "corpus", "generate", "--root", root,
                            "--family", "cycle", "--progress")
        assert code == 0
        assert "0 entries stored" in out and "already present" in out

    def test_explicit_param_needs_one_family(self, tmp_path, capsys):
        code = main([
            "corpus", "generate", "--root", str(tmp_path / "c"),
            "--param", "8",
        ])
        assert code == 2

    def test_export_import_round_trip(self, tmp_path, capsys):
        root, other = str(tmp_path / "a"), str(tmp_path / "b")
        archive = str(tmp_path / "c.tar.gz")
        run_cli(capsys, "corpus", "generate", "--root", root,
                "--family", "cycle")
        code, out = run_cli(capsys, "corpus", "export", "--root", root,
                            "--archive", archive)
        assert code == 0 and "exported" in out
        code, out = run_cli(capsys, "corpus", "import", "--root", other,
                            "--archive", archive)
        assert code == 0 and "imported" in out
        code, out = run_cli(capsys, "corpus", "verify", "--root", other,
                            "--json")
        assert code == 0 and json.loads(out)["ok"]

    def test_verify_exits_one_on_corruption(self, tmp_path, capsys):
        from repro.corpus import InstanceCorpus

        root = tmp_path / "corpus"
        run_cli(capsys, "corpus", "generate", "--root", str(root),
                "--family", "cycle")
        corpus = InstanceCorpus(root)
        key = corpus.list_entries()[0].key
        path = corpus.entry_path(key)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0x01
        path.write_bytes(bytes(blob))
        code, out = run_cli(capsys, "corpus", "verify", "--root", str(root))
        assert code == 1 and "problem" in out

    def test_missing_archive_fails_cleanly(self, tmp_path):
        code = main([
            "corpus", "import", "--root", str(tmp_path / "c"),
            "--archive", str(tmp_path / "nope.tar.gz"),
        ])
        assert code == 2


class TestSweepStoreFlag:
    def test_second_run_served_from_store(self, tmp_path, capsys):
        store = str(tmp_path / "r.sqlite")
        argv = [
            "sweep", "--family", "balanced-tree",
            "--algorithm", "balanced-tree/distance",
            "--store", store, "--json",
        ]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        first = json.loads(out)[0]
        assert not first["from_store"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        second = json.loads(out)[0]
        assert second["from_store"]
        assert second["costs"] == first["costs"]
        assert second["ns"] == first["ns"]

    def test_store_summary_via_corpus_list(self, tmp_path, capsys):
        store = str(tmp_path / "r.sqlite")
        run_cli(
            capsys, "sweep", "--family", "balanced-tree",
            "--algorithm", "balanced-tree/distance", "--store", store,
        )
        code, out = run_cli(
            capsys, "corpus", "list", "--root", str(tmp_path / "c"),
            "--store", store, "--json",
        )
        assert code == 0
        counts = json.loads(out)["store"]
        assert counts["sweeps"] == 1
        assert counts["sweep_points"] > 0


class TestMcStoreFlag:
    def test_second_run_replays_from_store(self, tmp_path, capsys):
        store = str(tmp_path / "r.sqlite")
        argv = [
            "mc", "leaf-coloring/rw-to-leaf", "--quick",
            "--no-early-stop", "--store", store, "--json",
        ]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        first = json.loads(out)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        second = json.loads(out)
        assert second["trials"] == first["trials"]
        assert second["rate"] == first["rate"]
        assert second["ci_low"] == first["ci_low"]
        assert second["ci_high"] == first["ci_high"]


class TestBenchCorpusFlag:
    def test_artifact_records_corpus_hits(self, tmp_path, capsys):
        root = str(tmp_path / "corpus")
        out_path = tmp_path / "B.json"
        run_cli(capsys, "corpus", "generate", "--root", root,
                "--family", "balanced-tree")
        code, _ = run_cli(
            capsys, "bench", "--quick", "--only", "balanced-tree",
            "--corpus", root, "--no-mc", "--no-implicit", "--no-serve",
            "--out", str(out_path),
        )
        assert code == 0
        summary = json.loads(out_path.read_text())["summary"]["corpus"]
        assert summary["root"] == root
        assert summary["hits"] > 0
        assert summary["misses"] == 0
