"""Shared pieces of the benchmark: paths, environment, statistics, digests.

Everything here is stdlib-only and independent of the program under
test, so the result line and the golden-digest bookkeeping stay the same
while ``src/`` changes underneath them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
# Run artifacts (trace JSON, per-layer tables, result details) and
# scratch stores live in the checkout, never outside it.
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

# A tail percentile is reported only with at least this many samples
# beyond it; with fewer samples the highest percentile that has them is
# used instead (and recorded next to the value).
TAIL_MIN_BEYOND = 10
TAIL_CANDIDATES = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
# A reported percentile averages the order statistics within this share
# of the sample size on either side of its nearest rank.
SMOOTH_SHARE = 0.1


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def git_sha(root: Path = ROOT) -> str:
    """The checkout's commit, read from ``.git`` without running git.

    The benchmark also runs from plain source trees (no ``.git``), where
    this is ``"unknown"``.
    """
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = root / ".git" / ref[5:]
        if target.exists():
            return target.read_text().strip()
        packed = root / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> Dict[str, object]:
    """What a result needs to be compared fairly: cores, load, version."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = os.cpu_count()
    try:
        load1 = os.getloadavg()[0]
    except (AttributeError, OSError):
        load1 = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "loadavg_1m": load1,
    }


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process, in MiB."""
    import resource

    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> Optional[float]:
    """Peak RSS (VmHWM) of a live process, in MiB; None if unreadable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return None


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: always a value that was measured."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def smoothed_percentile(values: Sequence[float], p: float) -> float:
    """The nearest-rank percentile averaged with its neighbouring ranks.

    A single order statistic is one operation's time and moves with that
    operation's own noise.  The mean of the order statistics within
    :data:`SMOOTH_SHARE` of the sample size on either side of the rank
    (at least one, and never past half the samples beyond it, so a tail
    value does not take in the maximum) moves less.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    count = len(ordered)
    rank = max(1, math.ceil(p / 100.0 * count))
    width = min(max(1, round(SMOOTH_SHARE * count)), rank - 1,
                (count - rank) // 2)
    window = ordered[rank - 1 - width:rank + width]
    return sum(window) / len(window)


def tail_percentile(count: int, wanted: float = 99.0) -> float:
    """The highest percentile <= ``wanted`` with enough samples beyond it."""
    for p in TAIL_CANDIDATES:
        if p <= wanted and count * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def latency_summary(samples_s: Sequence[float]) -> Dict[str, object]:
    """p50 and the tail of a latency sample (seconds in, ms out)."""
    ms = [s * 1000.0 for s in samples_s]
    tail = tail_percentile(len(ms))
    return {
        "count": len(ms),
        "p50_ms": smoothed_percentile(ms, 50.0),
        "tail_percentile": tail,
        "tail_ms": smoothed_percentile(ms, tail),
    }


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def digest(payload) -> str:
    """16-hex digest of a JSON-able value (canonical encoding)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class DigestBook:
    """Per-item output digests of one run, checked against the golden set.

    Every checked item is one attempted operation; an item fails when its
    own verdict is bad (``ok=False``), when its digest differs from the
    recorded one, or when no digest was recorded for it.  ``run_digest``
    folds the distinct items into one value, so two runs over the same
    inputs (traced or not) can be compared in one string.
    """

    def __init__(self, golden: Dict[str, str]) -> None:
        self.golden = golden
        self.items: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, key: str, value: str, ok: bool = True) -> bool:
        self.attempted += 1
        want = self.golden.get(key)
        good = ok and want == value
        if not good:
            self.failed += 1
            if len(self.failures) < 20:
                reason = (
                    "bad verdict" if not ok
                    else "no recorded digest" if want is None
                    else f"digest {value} != recorded {want}"
                )
                self.failures.append(f"{key}: {reason}")
        self.items[key] = value
        return good

    def verify(self, key: str, good: bool, reason: str) -> bool:
        """One attempted operation judged by the caller, not a digest."""
        self.attempted += 1
        if not good:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{key}: {reason}")
        return good

    @property
    def run_digest(self) -> str:
        return digest(sorted(self.items.items()))


def load_golden() -> Dict[str, object]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# scratch space
# ----------------------------------------------------------------------
class Scratch:
    """A per-run scratch directory under the checkout, removed on close."""

    def __init__(self, label: str) -> None:
        self.path = TMP_DIR / f"{label}-{os.getpid()}-{time.time_ns()}"
        self.path.mkdir(parents=True, exist_ok=False)

    def file(self, name: str) -> Path:
        return self.path / name

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            TMP_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_artifact(name: str, payload) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / name
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path

