"""Content-addressed instance corpus + sqlite campaign result store.

Two persistence layers with one provenance discipline:

* :class:`~repro.corpus.store.InstanceCorpus` — generated instances on
  disk, each entry addressed by the sha256 of its generating triple
  ``(family, param, seed)`` under the versioned file format of
  :mod:`repro.corpus.format`, with an flock-serialized manifest and a
  content hash per file (``repro corpus generate|list|import|export|
  verify``).
* :class:`~repro.corpus.results.ResultStore` — every sweep point and
  Monte-Carlo trial batch ever run, accumulated in sqlite and keyed by
  the same spec hashes the live engines use, so ``run_sweeps(...,
  store=...)`` / ``run_trials(..., store=...)`` serve re-runs from the
  store instead of re-executing and resume interrupted runs
  (DESIGN.md §12).
"""

from repro.corpus.format import (
    FORMAT_VERSION,
    CorpusFormatError,
    canonical_json,
    content_hash,
    entry_key,
    instance_to_payload,
    payload_to_instance,
)
from repro.corpus.results import ResultStore, ResultStoreError
from repro.corpus.store import CorpusEntry, CorpusError, InstanceCorpus

__all__ = [
    "FORMAT_VERSION",
    "CorpusEntry",
    "CorpusError",
    "CorpusFormatError",
    "InstanceCorpus",
    "ResultStore",
    "ResultStoreError",
    "canonical_json",
    "content_hash",
    "entry_key",
    "instance_to_payload",
    "payload_to_instance",
]
