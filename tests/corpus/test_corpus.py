"""The on-disk corpus: addressing, verification, archives, concurrency."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus import (
    CorpusError,
    InstanceCorpus,
    content_hash,
    entry_key,
)
from repro.corpus.store import atomic_write_text
from repro.graphs.generators import cycle_instance

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestAddAndLoad:
    def test_add_is_idempotent(self, tmp_path):
        corpus = InstanceCorpus(tmp_path)
        key1, created1 = corpus.add("cycle", 8, 0, cycle_instance(8))
        key2, created2 = corpus.add("cycle", 8, 0, cycle_instance(8))
        assert key1 == key2 == entry_key("cycle", 8, 0)
        assert created1 and not created2
        assert len(corpus) == 1
        assert key1 in corpus

    def test_same_key_different_content_raises(self, tmp_path):
        corpus = InstanceCorpus(tmp_path)
        corpus.add("cycle", 8, 0, cycle_instance(8))
        with pytest.raises(CorpusError, match="non-deterministic"):
            corpus.add("cycle", 8, 0, cycle_instance(10))

    def test_get_round_trips(self, tmp_corpus):
        corpus = tmp_corpus
        instance = corpus.get("cycle", 8)
        assert instance is not None
        assert instance.n == 8
        assert corpus.get("cycle", 999) is None

    def test_entry_param_decodes(self, tmp_path):
        corpus = InstanceCorpus(tmp_path)
        key, _ = corpus.add("cycle", 8, 0, cycle_instance(8))
        assert corpus.entry_param(key) == 8

    def test_load_unknown_key_raises(self, tmp_corpus):
        with pytest.raises(CorpusError, match="no entry"):
            tmp_corpus.load_payload("deadbeefdeadbeef")

    def test_list_entries_sorted_with_provenance(self, tmp_corpus):
        entries = tmp_corpus.list_entries()
        assert [e.key for e in entries] == sorted(e.key for e in entries)
        by_family = {e.family: e for e in entries}
        assert by_family["cycle"].param_repr == "8"
        assert by_family["cycle"].n == 8

    def test_generate_uses_registry(self, tmp_path):
        corpus = InstanceCorpus(tmp_path)
        lines = []
        results = corpus.generate(
            "balanced-tree", grid="quick", progress=lines.append
        )
        assert all(created for _, created in results)
        assert len(corpus) == len(results) > 0
        assert len(lines) == len(results)
        again = corpus.generate("balanced-tree", grid="quick")
        assert not any(created for _, created in again)

    def test_manifest_format_mismatch_raises(self, tmp_corpus):
        corpus = tmp_corpus
        manifest = json.loads(corpus.manifest_path.read_text())
        manifest["format"] = "repro-corpus/999"
        corpus.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CorpusError, match="format"):
            corpus.list_entries()


class TestVerify:
    def test_clean_corpus_verifies(self, tmp_corpus):
        assert tmp_corpus.verify() == []

    def test_detects_bit_flip(self, tmp_corpus):
        corpus = tmp_corpus
        key = corpus.list_entries()[0].key
        path = corpus.entry_path(key)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01  # flip one bit mid-file
        path.write_bytes(bytes(blob))
        problems = corpus.verify()
        assert len(problems) == 1
        assert key in problems[0] and "hash mismatch" in problems[0]
        with pytest.raises(CorpusError, match="verification"):
            corpus.load_instance(key)

    def test_detects_missing_file(self, tmp_corpus):
        corpus = tmp_corpus
        key = corpus.list_entries()[0].key
        corpus.entry_path(key).unlink()
        assert any("missing" in p for p in corpus.verify())

    def test_detects_stray_file(self, tmp_corpus):
        corpus = tmp_corpus
        (corpus.entries_dir / "0000000000000000.json").write_text("{}")
        assert any("stray" in p for p in corpus.verify())

    def test_detects_misfiled_entry(self, tmp_corpus):
        # A file whose bytes are intact but filed under another key.
        corpus = tmp_corpus
        entries = {e.key: e for e in corpus.list_entries()}
        k1, k2 = sorted(entries)
        text = corpus.entry_path(k1).read_text()
        corpus.entry_path(k2).write_text(text)
        manifest = json.loads(corpus.manifest_path.read_text())
        manifest["entries"][k2]["content_hash"] = content_hash(text)
        corpus.manifest_path.write_text(json.dumps(manifest))
        assert any("wrong address" in p for p in corpus.verify())


class TestExportImport:
    def test_round_trip_preserves_hashes(self, tmp_path, make_corpus):
        source = make_corpus(tmp_path / "src")
        archive = tmp_path / "corpus.tar.gz"
        assert source.export(archive) == 2
        dest = InstanceCorpus(tmp_path / "dst")
        assert dest.import_archive(archive) == (2, 0)
        assert dest.verify() == []
        assert {e.key: e.content_hash for e in dest.list_entries()} == {
            e.key: e.content_hash for e in source.list_entries()
        }
        # Re-import is a clean no-op.
        assert dest.import_archive(archive) == (0, 2)

    def test_archives_are_deterministic(self, tmp_path, make_corpus):
        source = make_corpus(tmp_path / "src")
        a, b = tmp_path / "a.tar.gz", tmp_path / "b.tar.gz"
        source.export(a)
        source.export(b)
        assert a.read_bytes() == b.read_bytes()

    def test_export_refuses_corrupt_corpus(self, tmp_path, make_corpus):
        corpus = make_corpus(tmp_path / "src")
        key = corpus.list_entries()[0].key
        corpus.entry_path(key).write_text("tampered")
        with pytest.raises(CorpusError, match="refusing to export"):
            corpus.export(tmp_path / "bad.tar.gz")

    def test_import_rejects_tampered_archive(self, tmp_path, make_corpus):
        import io
        import tarfile

        source = make_corpus(tmp_path / "src")
        archive = tmp_path / "corpus.tar.gz"
        source.export(archive)
        # Rebuild the archive with one entry's bytes corrupted but the
        # manifest untouched.
        tampered = tmp_path / "tampered.tar.gz"
        with tarfile.open(archive) as tar:
            members = {
                m.name: tar.extractfile(m).read()
                for m in tar.getmembers()
            }
        victim = next(n for n in members if n.startswith("entries/"))
        members[victim] = members[victim].replace(b":", b";", 1)
        with tarfile.open(tampered, "w:gz") as tar:
            for name, data in members.items():
                info = tarfile.TarInfo(name=name)
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
        dest = InstanceCorpus(tmp_path / "dst")
        with pytest.raises(CorpusError, match="fails verification"):
            dest.import_archive(tampered)
        assert len(dest) == 0  # nothing was written

    def test_import_conflict_raises(self, tmp_path, make_corpus):
        source = make_corpus(tmp_path / "src")
        archive = tmp_path / "corpus.tar.gz"
        source.export(archive)
        dest = InstanceCorpus(tmp_path / "dst")
        # Same key, different content: fake a conflicting local entry.
        key = source.list_entries()[0].key
        dest.root.mkdir(parents=True)
        text = '{"fake": true}'
        dest.entry_path(key).parent.mkdir(parents=True)
        dest.entry_path(key).write_text(text)
        dest._write_manifest({
            key: {
                "family": "cycle",
                "param_repr": "8",
                "seed": 0,
                "n": 8,
                "name": "fake",
                "content_hash": content_hash(text),
                "created_at": "2026-01-01T00:00:00+00:00",
            }
        })
        with pytest.raises(CorpusError, match="conflict"):
            dest.import_archive(archive)

    def test_import_not_an_archive_raises(self, tmp_path):
        bogus = tmp_path / "bogus.tar.gz"
        bogus.write_bytes(b"not a tarball")
        with pytest.raises(CorpusError, match="cannot read"):
            InstanceCorpus(tmp_path / "dst").import_archive(bogus)


_ADD_SCRIPT = """
import sys
from repro.corpus import InstanceCorpus
from repro.graphs.generators import cycle_instance

root, start = sys.argv[1], int(sys.argv[2])
corpus = InstanceCorpus(root)
for n in range(start, start + 20):
    corpus.add("cycle", n, 0, cycle_instance(n))
"""


@pytest.mark.slow
class TestAtomicWriteText:
    """A write that fails before its rename leaves no trace."""

    def test_failed_rewrite_leaves_old_file_intact(self, tmp_path,
                                                   monkeypatch):
        import os as os_mod

        target = tmp_path / "entry.json"
        atomic_write_text(target, "good\n")

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os_mod, "replace", exploding_replace)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(target, "new\n")
        monkeypatch.undo()
        # The committed file is untouched and no temp file survived.
        assert target.read_text() == "good\n"
        assert [p.name for p in tmp_path.iterdir()] == [target.name]

    def test_write_is_not_torn_by_interrupt(self, tmp_path, monkeypatch):
        # Die between temp-file write and rename: the target simply does
        # not exist yet, rather than existing half-written.
        import os as os_mod

        target = tmp_path / "entry.json"
        monkeypatch.setattr(
            os_mod, "replace",
            lambda src, dst: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(target, "text\n")
        monkeypatch.undo()
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


class TestConcurrentAdds:
    def test_two_processes_lose_no_manifest_rows(self, tmp_path):
        """Concurrent adds from separate processes must all land.

        Each worker performs 20 whole-manifest read-modify-writes; with
        overlapping key ranges the flock must serialize every one of
        them or rows vanish (the classic lost-update).
        """
        root = tmp_path / "corpus"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _ADD_SCRIPT, str(root), str(start)],
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
                stderr=subprocess.PIPE,
            )
            # Ranges overlap on 10 keys: idempotent adds must coexist
            # with fresh ones.
            for start in (3, 13)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        corpus = InstanceCorpus(root)
        assert len(corpus) == 30  # range(3, 33): union, nothing lost
        assert corpus.verify() == []
