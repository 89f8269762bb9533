"""The on-disk content-addressed instance corpus.

Layout of a corpus directory::

    <root>/
      manifest.json          # index: entry key -> provenance + content hash
      .lock                  # flock target serializing manifest updates
      entries/<key>.json     # one canonical-JSON entry file per key

Every file lands via :func:`atomic_write_text` (temp file + fsync +
rename), so readers and crashed writers never observe a torn file, and
the manifest's read-modify-write runs under an exclusive ``flock`` so
two processes adding entries concurrently cannot lose each other's
index rows.  Entry files
themselves need no lock: a key is a pure function of ``(family, param,
seed, format version)`` and generation is deterministic, so two writers
racing on one key write byte-identical files and either rename wins.
"""

from __future__ import annotations

import fcntl
import io
import json
import os
import tarfile
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.corpus.format import (
    FORMAT_VERSION,
    canonical_json,
    content_hash,
    decode_value,
    entry_key,
    entry_payload,
    payload_to_instance,
)
from repro.graphs.labelings import Instance


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Durably replace ``path``'s contents: temp file + fsync + rename.

    The new contents go to a temporary file *in the same directory*
    (``os.replace`` is only atomic within one filesystem), which is
    flushed and fsynced, then renamed over the target.  A crash at any
    point leaves either the old file or the new one — never a torn or
    interleaved mix — and a concurrent writer's replace wins or loses
    wholesale instead of corrupting the target.  The directory entry is
    fsynced too (best effort) so the rename itself survives power loss.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=target.parent,
        prefix=f".{target.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    try:  # make the rename durable, where the platform allows it
        dir_fd = os.open(target.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(dir_fd)


class CorpusError(RuntimeError):
    """A corpus operation failed (conflict, corruption, bad archive)."""


@dataclass(frozen=True)
class CorpusEntry:
    """One manifest row: provenance plus the stored file's content hash."""

    key: str
    family: str
    param_repr: str
    seed: int
    n: int
    name: str
    content_hash: str
    created_at: str

    def to_row(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "param_repr": self.param_repr,
            "seed": self.seed,
            "n": self.n,
            "name": self.name,
            "content_hash": self.content_hash,
            "created_at": self.created_at,
        }

    @classmethod
    def from_row(cls, key: str, row: Dict[str, object]) -> "CorpusEntry":
        return cls(
            key=key,
            family=str(row["family"]),
            param_repr=str(row["param_repr"]),
            seed=int(row["seed"]),
            n=int(row["n"]),
            name=str(row["name"]),
            content_hash=str(row["content_hash"]),
            created_at=str(row["created_at"]),
        )


class InstanceCorpus:
    """A content-addressed corpus of generated instances under one root."""

    MANIFEST = "manifest.json"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- paths ---------------------------------------------------------
    @property
    def entries_dir(self) -> Path:
        return self.root / "entries"

    @property
    def manifest_path(self) -> Path:
        return self.root / self.MANIFEST

    def entry_path(self, key: str) -> Path:
        return self.entries_dir / f"{key}.json"

    # -- manifest ------------------------------------------------------
    def _read_manifest(self) -> Dict[str, Dict[str, object]]:
        if not self.manifest_path.exists():
            return {}
        try:
            payload = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CorpusError(
                f"corpus manifest {self.manifest_path} is unreadable: {exc}"
            ) from exc
        if payload.get("format") != FORMAT_VERSION:
            raise CorpusError(
                f"corpus at {self.root} has format "
                f"{payload.get('format')!r}; this build reads "
                f"{FORMAT_VERSION!r}"
            )
        return payload["entries"]

    def _write_manifest(self, entries: Dict[str, Dict[str, object]]) -> None:
        payload = {"format": FORMAT_VERSION, "entries": entries}
        atomic_write_text(
            self.manifest_path, json.dumps(payload, sort_keys=True, indent=1)
        )

    def _locked_manifest_update(
        self, mutate: Callable[[Dict[str, Dict[str, object]]], bool]
    ) -> bool:
        """Run one manifest read-modify-write under the corpus lock.

        ``mutate`` edits the entries dict in place and returns whether
        anything changed.  The lock is held across the *whole* RMW —
        reading, mutating, and the atomic replace — which is what makes
        concurrent ``add`` calls from separate processes lose nothing.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / ".lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            entries = self._read_manifest()
            changed = mutate(entries)
            if changed:
                self._write_manifest(entries)
            return changed

    # -- write path ----------------------------------------------------
    def add(
        self, family: str, param, seed: int, instance: Instance
    ) -> Tuple[str, bool]:
        """Store one generated instance; returns ``(key, created)``.

        Adding the triple again is a no-op (``created=False``).  Adding
        a triple whose key already maps to *different* content raises:
        in a content-addressed store, one key meaning two payloads is
        corruption (or a non-deterministic factory), never mergeable.
        """
        key = entry_key(family, param, seed)
        text = canonical_json(entry_payload(family, param, seed, instance))
        digest = content_hash(text)
        row = CorpusEntry(
            key=key,
            family=family,
            param_repr=repr(param),
            seed=seed,
            n=instance.n,
            name=instance.name,
            content_hash=digest,
            created_at=datetime.now(timezone.utc).isoformat(),
        ).to_row()

        def mutate(entries: Dict[str, Dict[str, object]]) -> bool:
            existing = entries.get(key)
            if existing is not None:
                if existing["content_hash"] != digest:
                    raise CorpusError(
                        f"corpus entry {key} ({family!r} param "
                        f"{row['param_repr']} seed {seed}) already exists "
                        f"with content hash {existing['content_hash']}, "
                        f"but regeneration produced {digest}; the family "
                        "factory is non-deterministic or the corpus is "
                        "corrupt (run `repro corpus verify`)"
                    )
                return False
            # Write the entry file before the manifest row: a crash
            # between the two leaves an orphan file (harmless, verify
            # reports it) rather than a manifest row with no file.
            atomic_write_text(self.entry_path(key), text)
            entries[key] = row
            return True

        created = self._locked_manifest_update(mutate)
        return key, created

    def generate(
        self,
        family_name: str,
        grid: str = "quick",
        params: Optional[List[object]] = None,
        seed: int = 0,
        progress: Optional[Callable[[str], None]] = None,
    ) -> List[Tuple[str, bool]]:
        """Generate one family's grid via the registry and store it."""
        from repro.registry import FAMILIES, load_components

        load_components()
        family = FAMILIES.get(family_name)
        grid_params = list(params) if params is not None else list(
            family.params(grid)
        )
        results: List[Tuple[str, bool]] = []
        for param in grid_params:
            instance = family.factory(param)
            key, created = self.add(family.name, param, seed, instance)
            results.append((key, created))
            if progress is not None:
                verb = "stored" if created else "already present"
                progress(
                    f"[{family.name}] param {param!r} -> {key} "
                    f"(n={instance.n}, {verb})"
                )
        return results

    # -- read path -----------------------------------------------------
    def list_entries(self) -> List[CorpusEntry]:
        entries = self._read_manifest()
        return [
            CorpusEntry.from_row(key, entries[key])
            for key in sorted(entries)
        ]

    def __len__(self) -> int:
        return len(self._read_manifest())

    def __contains__(self, key: str) -> bool:
        return key in self._read_manifest()

    def load_payload(self, key: str) -> Dict[str, object]:
        """The verified entry document for ``key``.

        The file's bytes are re-hashed against the manifest before
        deserialization — a corpus read never trusts un-verified bytes.
        """
        entries = self._read_manifest()
        row = entries.get(key)
        if row is None:
            raise CorpusError(
                f"corpus at {self.root} has no entry {key!r} "
                "(see `repro corpus list`)"
            )
        path = self.entry_path(key)
        try:
            text = path.read_text()
        except OSError as exc:
            raise CorpusError(
                f"corpus entry file {path} is missing or unreadable: {exc}"
            ) from exc
        digest = content_hash(text)
        if digest != row["content_hash"]:
            raise CorpusError(
                f"corpus entry {key} fails verification: file hashes to "
                f"{digest}, manifest records {row['content_hash']} "
                "(bit rot or a hand edit; regenerate or re-import)"
            )
        return json.loads(text)

    def load_instance(self, key: str) -> Instance:
        return payload_to_instance(self.load_payload(key)["instance"])

    def get(self, family: str, param, seed: int = 0) -> Optional[Instance]:
        """The stored instance for a triple, or ``None`` if absent."""
        key = entry_key(family, param, seed)
        if key not in self._read_manifest():
            return None
        return self.load_instance(key)

    def entry_param(self, key: str):
        """The decoded grid parameter stored in one entry."""
        return decode_value(self.load_payload(key)["param"])

    # -- verification --------------------------------------------------
    def verify(self) -> List[str]:
        """Every integrity problem in the corpus, as human sentences.

        Checks, per manifest row: the entry file exists, its bytes hash
        to the recorded content hash, and its provenance triple derives
        the key it is filed under.  Also reports stray files under
        ``entries/`` that no manifest row claims.  An empty list means
        the corpus is intact.
        """
        problems: List[str] = []
        entries = self._read_manifest()
        for key in sorted(entries):
            row = entries[key]
            path = self.entry_path(key)
            if not path.exists():
                problems.append(f"{key}: entry file {path.name} is missing")
                continue
            text = path.read_text()
            digest = content_hash(text)
            if digest != row["content_hash"]:
                problems.append(
                    f"{key}: content hash mismatch (file {digest[:16]}..., "
                    f"manifest {str(row['content_hash'])[:16]}...)"
                )
                continue
            payload = json.loads(text)
            derived = entry_key(
                str(payload["family"]),
                decode_value(payload["param"]),
                int(payload["seed"]),
            )
            if derived != key:
                problems.append(
                    f"{key}: provenance triple derives key {derived} "
                    "(file filed under the wrong address)"
                )
        known = {f"{key}.json" for key in entries}
        if self.entries_dir.is_dir():
            for path in sorted(self.entries_dir.iterdir()):
                if path.name not in known and not path.name.startswith("."):
                    problems.append(
                        f"stray file {path.name} in entries/ "
                        "(not in the manifest)"
                    )
        return problems

    # -- export / import -----------------------------------------------
    def export(self, archive: Union[str, Path]) -> int:
        """Write the whole corpus to a deterministic ``.tar.gz``.

        Members are added in sorted order with zeroed timestamps and
        ownership, and the gzip header carries no mtime — the same
        corpus content always produces byte-identical archives, so an
        archive is itself content-addressable.
        """
        problems = self.verify()
        if problems:
            raise CorpusError(
                "refusing to export a corpus that fails verification:\n  "
                + "\n  ".join(problems)
            )
        entries = self._read_manifest()
        archive = Path(archive)
        archive.parent.mkdir(parents=True, exist_ok=True)
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w:gz", compresslevel=9) as tar:
            members = [(self.MANIFEST, self.manifest_path)] + [
                (f"entries/{key}.json", self.entry_path(key))
                for key in sorted(entries)
            ]
            for name, path in members:
                data = path.read_bytes()
                info = tarfile.TarInfo(name=name)
                info.size = len(data)
                info.mtime = 0
                info.uid = info.gid = 0
                info.uname = info.gname = ""
                tar.addfile(info, io.BytesIO(data))
        # A deterministic archive must not embed the compression time;
        # rewrite the 4-byte gzip MTIME field (bytes 4:8) to zero.
        blob = bytearray(buffer.getvalue())
        blob[4:8] = b"\x00\x00\x00\x00"
        with open(archive, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        return len(entries)

    def import_archive(self, archive: Union[str, Path]) -> Tuple[int, int]:
        """Merge an exported archive into this corpus.

        Every incoming entry is re-hashed against the archived manifest
        *before* anything is written — a tampered archive is rejected
        whole.  Returns ``(imported, skipped)``; a key already present
        with identical content is skipped, and a key present with
        different content raises (same conflict rule as :meth:`add`).
        """
        archive = Path(archive)
        try:
            with tarfile.open(archive, mode="r:gz") as tar:
                manifest_member = tar.extractfile(self.MANIFEST)
                if manifest_member is None:
                    raise CorpusError(
                        f"{archive} has no {self.MANIFEST}; not a corpus "
                        "archive"
                    )
                manifest = json.loads(manifest_member.read().decode("utf-8"))
                if manifest.get("format") != FORMAT_VERSION:
                    raise CorpusError(
                        f"{archive} holds corpus format "
                        f"{manifest.get('format')!r}; this build reads "
                        f"{FORMAT_VERSION!r}"
                    )
                incoming: Dict[str, Tuple[Dict[str, object], str]] = {}
                for key, row in manifest["entries"].items():
                    member = tar.extractfile(f"entries/{key}.json")
                    if member is None:
                        raise CorpusError(
                            f"{archive} manifest lists entry {key} but the "
                            "archive holds no file for it"
                        )
                    text = member.read().decode("utf-8")
                    digest = content_hash(text)
                    if digest != row["content_hash"]:
                        raise CorpusError(
                            f"archive entry {key} fails verification "
                            f"(hashes to {digest}, manifest records "
                            f"{row['content_hash']}); refusing the import"
                        )
                    incoming[key] = (row, text)
        except tarfile.TarError as exc:
            raise CorpusError(f"cannot read archive {archive}: {exc}") from exc

        imported = skipped = 0

        def mutate(entries: Dict[str, Dict[str, object]]) -> bool:
            nonlocal imported, skipped
            for key in sorted(incoming):
                row, text = incoming[key]
                existing = entries.get(key)
                if existing is not None:
                    if existing["content_hash"] != row["content_hash"]:
                        raise CorpusError(
                            f"import conflict on entry {key}: corpus has "
                            f"content {existing['content_hash'][:16]}..., "
                            f"archive has "
                            f"{str(row['content_hash'])[:16]}...; one of "
                            "them is corrupt"
                        )
                    skipped += 1
                    continue
                atomic_write_text(self.entry_path(key), text)
                entries[key] = dict(row)
                imported += 1
            return imported > 0

        self._locked_manifest_update(mutate)
        return imported, skipped


__all__ = ["CorpusEntry", "CorpusError", "InstanceCorpus"]
