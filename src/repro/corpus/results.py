"""The sqlite-backed campaign result store.

Every sweep point and every Monte-Carlo trial ever executed against a
store accumulates in one sqlite file, keyed exactly the way the live
engines key their work:

* sweep rows by the :meth:`~repro.exec.sweep.SweepSpec.cache_key` spec
  hash and the grid-point index;
* trial rows by the :func:`~repro.montecarlo.engine.trial_run_key`
  run hash and the trial index.

It is the one place sweep points and trial outcomes persist: a re-run
against the same store serves what is stored and executes the rest, so
a run killed mid-way resumes from its last committed point or batch.

Both engines' units of work are pure functions of their spec (DESIGN.md
§9/§11), so re-running a spec produces rows identical to the stored
ones — which is why every insert is ``INSERT OR IGNORE``: concurrent
writers and crash-retried batches converge on one row per unit instead
of conflicting.  Durability is sqlite's own (WAL journal, synchronous
writes); concurrency is sqlite's file locking plus a busy timeout, so
two processes appending to the same store block briefly instead of
failing.

Each row carries the git SHA of the writing checkout and a UTC
timestamp — provenance for result archaeology, deliberately excluded
from every lookup key (the *spec hash* already changes whenever any
result-affecting code changes, via the bytecode fingerprints in
``describe()``).
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import threading
import time
import weakref
from contextlib import contextmanager
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.exec.backends import TrialOutcome

SCHEMA_VERSION = 1
# How long a call waits for another connection's lock before failing.
_BUSY_TIMEOUT_S = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sweeps (
    spec_key      TEXT PRIMARY KEY,
    label         TEXT NOT NULL,
    describe_json TEXT NOT NULL,
    num_points    INTEGER NOT NULL,
    git_sha       TEXT NOT NULL,
    created_at    TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sweep_points (
    spec_key    TEXT NOT NULL,
    point_index INTEGER NOT NULL,
    param_repr  TEXT NOT NULL,
    n           INTEGER NOT NULL,
    cost        REAL NOT NULL,
    detail_json TEXT,
    elapsed     REAL NOT NULL,
    git_sha     TEXT NOT NULL,
    created_at  TEXT NOT NULL,
    PRIMARY KEY (spec_key, point_index)
);
CREATE TABLE IF NOT EXISTS trial_runs (
    run_key    TEXT PRIMARY KEY,
    meta_json  TEXT NOT NULL,
    git_sha    TEXT NOT NULL,
    created_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS trials (
    run_key      TEXT NOT NULL,
    trial        INTEGER NOT NULL,
    seed         INTEGER NOT NULL,
    valid        INTEGER NOT NULL,
    max_volume   INTEGER NOT NULL,
    max_distance INTEGER NOT NULL,
    max_queries  INTEGER NOT NULL,
    random_bits  INTEGER NOT NULL,
    created_at   TEXT NOT NULL,
    PRIMARY KEY (run_key, trial)
);
CREATE TABLE IF NOT EXISTS service_responses (
    request_key TEXT PRIMARY KEY,
    endpoint    TEXT NOT NULL,
    body        BLOB NOT NULL,
    git_sha     TEXT NOT NULL,
    created_at  TEXT NOT NULL
);
"""


class ResultStoreError(RuntimeError):
    """The store file is unusable (wrong schema, unreadable)."""


@lru_cache(maxsize=1)
def _git_sha() -> str:
    """The writing checkout's HEAD SHA, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


class _Connection:
    """A store's sqlite connection in this process, opened on first use.

    Kept apart from :class:`ResultStore` so that the drop-time finalizer
    and the fork hooks reach the connection without keeping the store
    alive.  ``pid`` is the process that opened ``conn``.
    """

    __slots__ = ("__weakref__", "lock", "conn", "pid")

    def __init__(self) -> None:
        # Re-entrant: a dropped store's finalizer may run (from a gc pass)
        # inside the fork hook that already holds this lock.
        self.lock = threading.RLock()
        self.conn: Optional[sqlite3.Connection] = None
        self.pid = 0
        _LIVE.add(self)

    def close(self) -> None:
        with self.lock:
            self.close_locked()

    def close_locked(self) -> None:
        if self.conn is None:
            return
        if self.pid == os.getpid():
            self.conn.close()
        else:
            # A parent's connection: never used, never closed here, and
            # kept referenced because dropping it would close it.
            _INHERITED.append(self.conn)
        self.conn = None


_LIVE: "weakref.WeakSet[_Connection]" = weakref.WeakSet()
_INHERITED: List[sqlite3.Connection] = []
_FORK_LOCK = threading.Lock()
_HELD: List[_Connection] = []


def _before_fork() -> None:
    # sqlite keeps per-process lock state for every open file.  A child
    # that inherits it believes it holds its parent's locks, so once the
    # parent closed its last connection, sqlite would checkpoint and
    # delete the WAL under the child's own connection and lose the
    # child's later commits.  So no connection crosses a fork: close them
    # all first, holding each lock until the fork is done.
    _FORK_LOCK.acquire()
    for handle in list(_LIVE):
        handle.lock.acquire()
        _HELD.append(handle)
        handle.close_locked()


def _after_fork() -> None:
    while _HELD:
        _HELD.pop().lock.release()
    _FORK_LOCK.release()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_before_fork,
        after_in_parent=_after_fork,
        after_in_child=_after_fork,
    )


def _switch_to_wal(conn: sqlite3.Connection) -> None:
    """``PRAGMA journal_mode=WAL``, retried while the file is locked.

    While another connection holds a lock on a file that is still in
    rollback-journal mode (a second process creating the same fresh
    store, say), sqlite answers this switch with SQLITE_BUSY at once,
    without calling the busy handler, so the connection's own timeout
    never applies to it.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT_S
    pause = 0.001
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            locked = "database is locked" in str(exc)
            if not locked or time.monotonic() >= deadline:
                raise
        time.sleep(pause)
        pause = min(2 * pause, 0.05)


class ResultStore:
    """Append-only campaign results in one sqlite file.

    A store keeps one connection per process, opened on first use with
    WAL and ``busy_timeout`` set once, and shared by every thread under
    a per-store lock.  :meth:`close` closes it (the next call opens a
    new one), and so does dropping the store.  Each method still
    commits its own transaction, so every record is durable when the
    call returns and no read transaction stays open between calls.
    Every connection is closed before a ``fork()``; a child (its pid
    differs from the opener's) opens its own on first use and never
    uses or closes its parent's.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = _Connection()
        weakref.finalize(self, self._handle.close)
        self._ensure_schema()

    def close(self) -> None:
        """Close this process's connection; the next call opens a new one."""
        self._handle.close()

    def _open(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            str(self.path), timeout=_BUSY_TIMEOUT_S, check_same_thread=False
        )
        try:
            _switch_to_wal(conn)
            busy_ms = int(_BUSY_TIMEOUT_S * 1000)
            conn.execute(f"PRAGMA busy_timeout={busy_ms}")
        except sqlite3.DatabaseError as exc:
            conn.close()
            raise ResultStoreError(
                f"{self.path} is not a usable result store: {exc}"
            ) from exc
        return conn

    @contextmanager
    def _connect(self):
        handle = self._handle
        with handle.lock:
            if handle.conn is None or handle.pid != os.getpid():
                handle.close_locked()
                handle.conn = self._open()
                handle.pid = os.getpid()
            yield handle.conn

    def _ensure_schema(self) -> None:
        with self._connect() as conn:
            try:
                with conn:
                    conn.executescript(_SCHEMA)
                    conn.execute(
                        "INSERT OR IGNORE INTO store_meta (key, value) "
                        "VALUES ('schema_version', ?)",
                        (str(SCHEMA_VERSION),),
                    )
                    row = conn.execute(
                        "SELECT value FROM store_meta "
                        "WHERE key = 'schema_version'"
                    ).fetchone()
            except sqlite3.DatabaseError as exc:
                raise ResultStoreError(
                    f"{self.path} is not a usable result store: {exc}"
                ) from exc
        if row is None or int(row[0]) != SCHEMA_VERSION:
            found = None if row is None else row[0]
            raise ResultStoreError(
                f"result store {self.path} has schema version {found!r}; "
                f"this build reads version {SCHEMA_VERSION}"
            )

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def record_sweep_meta(
        self, spec_key: str, label: str, describe, num_points: int
    ) -> None:
        """Register a sweep spec (idempotent; first writer wins)."""
        with self._connect() as conn, conn:
            conn.execute(
                "INSERT OR IGNORE INTO sweeps "
                "(spec_key, label, describe_json, num_points, git_sha, "
                "created_at) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    spec_key,
                    label,
                    json.dumps(describe, sort_keys=True),
                    num_points,
                    _git_sha(),
                    _now(),
                ),
            )

    def record_sweep_point(
        self,
        spec_key: str,
        point_index: int,
        *,
        param_repr: str,
        n: int,
        cost: float,
        detail: Optional[Dict[str, object]],
        elapsed: float,
    ) -> None:
        """Append one executed grid point (idempotent)."""
        with self._connect() as conn, conn:
            conn.execute(
                "INSERT OR IGNORE INTO sweep_points "
                "(spec_key, point_index, param_repr, n, cost, detail_json, "
                "elapsed, git_sha, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    spec_key,
                    point_index,
                    param_repr,
                    n,
                    cost,
                    None if detail is None else json.dumps(
                        detail, sort_keys=True
                    ),
                    elapsed,
                    _git_sha(),
                    _now(),
                ),
            )

    def sweep_describe(self, spec_key: str) -> Optional[Dict[str, object]]:
        """The stored ``describe()`` payload for a spec, if registered."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT describe_json FROM sweeps WHERE spec_key = ?",
                (spec_key,),
            ).fetchone()
        return None if row is None else json.loads(row[0])

    def sweep_points(self, spec_key: str) -> Dict[int, Dict[str, object]]:
        """Stored points for one spec: ``index -> point fields``."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT point_index, n, cost, detail_json, elapsed "
                "FROM sweep_points WHERE spec_key = ? ORDER BY point_index",
                (spec_key,),
            ).fetchall()
        return {
            int(index): {
                "n": int(n),
                "cost": float(cost),
                "detail": None if detail is None else json.loads(detail),
                "elapsed": float(elapsed),
            }
            for index, n, cost, detail, elapsed in rows
        }

    # ------------------------------------------------------------------
    # Monte-Carlo trials
    # ------------------------------------------------------------------
    def record_trial_run(self, run_key: str, meta: Dict[str, object]) -> None:
        """Register a trial-run spec (idempotent; first writer wins)."""
        with self._connect() as conn, conn:
            conn.execute(
                "INSERT OR IGNORE INTO trial_runs "
                "(run_key, meta_json, git_sha, created_at) "
                "VALUES (?, ?, ?, ?)",
                (
                    run_key,
                    json.dumps(meta, sort_keys=True),
                    _git_sha(),
                    _now(),
                ),
            )

    def record_trials(
        self, run_key: str, outcomes: Sequence[TrialOutcome]
    ) -> None:
        """Append a batch of trial outcomes in one transaction (idempotent)."""
        if not outcomes:
            return
        now = _now()
        rows = [
            (
                run_key,
                o.trial,
                o.seed,
                1 if o.valid else 0,
                o.max_volume,
                o.max_distance,
                o.max_queries,
                o.random_bits,
                now,
            )
            for o in outcomes
        ]
        with self._connect() as conn, conn:
            conn.executemany(
                "INSERT OR IGNORE INTO trials "
                "(run_key, trial, seed, valid, max_volume, max_distance, "
                "max_queries, random_bits, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    def trial_records(self, run_key: str) -> List[TrialOutcome]:
        """Stored outcomes for one run, in trial order."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT trial, seed, valid, max_volume, max_distance, "
                "max_queries, random_bits FROM trials "
                "WHERE run_key = ? ORDER BY trial",
                (run_key,),
            ).fetchall()
        return [
            TrialOutcome(trial, seed, bool(valid), *costs)
            for trial, seed, valid, *costs in rows
        ]

    # ------------------------------------------------------------------
    # service responses
    # ------------------------------------------------------------------
    def record_response(
        self, request_key: str, body: bytes, *, endpoint: str = ""
    ) -> None:
        """Persist one canonical service response (idempotent).

        ``body`` is the exact byte string the service sent for the
        request descriptor hashed into ``request_key``; responses are
        pure functions of their descriptor (DESIGN.md §13.4), so first
        writer wins and later writers are ignorable duplicates.
        """
        with self._connect() as conn, conn:
            conn.execute(
                "INSERT OR IGNORE INTO service_responses "
                "(request_key, endpoint, body, git_sha, created_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (request_key, endpoint, bytes(body), _git_sha(), _now()),
            )

    def get_response(self, request_key: str) -> Optional[bytes]:
        """The stored response bytes for a request key, if recorded."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT body FROM service_responses WHERE request_key = ?",
                (request_key,),
            ).fetchone()
        return None if row is None else bytes(row[0])

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Row counts per table — `repro corpus list --store` inventory."""
        with self._connect() as conn:
            counts = {
                table: conn.execute(
                    f"SELECT COUNT(*) FROM {table}"  # noqa: S608 - fixed set
                ).fetchone()[0]
                for table in (
                    "sweeps",
                    "sweep_points",
                    "trial_runs",
                    "trials",
                    "service_responses",
                )
            }
        return counts


__all__ = [
    "ResultStore",
    "ResultStoreError",
    "SCHEMA_VERSION",
]
