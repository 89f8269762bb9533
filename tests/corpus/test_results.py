"""The sqlite campaign store: idempotent appends, replay, concurrency,
and the per-process connection (reuse, release, fork, threads, kill -9)."""

import gc
import multiprocessing
import os
import signal
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro.corpus.results as results_module
from repro.corpus import ResultStore, ResultStoreError
from repro.exec.backends import TrialOutcome

SRC = str(Path(__file__).resolve().parents[2] / "src")


def trial_record(trial: int, **overrides):
    fields = {
        "trial": trial,
        "seed": 100 + trial,
        "valid": trial % 2 == 0,
        "max_volume": 10 + trial,
        "max_distance": 3,
        "max_queries": 10 + trial,
        "random_bits": 5 * trial,
    }
    fields.update(overrides)
    return TrialOutcome(**fields)


class TestSweepRows:
    def test_points_round_trip(self, tmp_result_store):
        store = tmp_result_store
        store.record_sweep_meta("abc", "walk", {"metric": "volume"}, 2)
        store.record_sweep_point(
            "abc", 0, param_repr="3", n=15, cost=7.0,
            detail={"rate": 0.5}, elapsed=0.1,
        )
        store.record_sweep_point(
            "abc", 1, param_repr="4", n=31, cost=9.0,
            detail=None, elapsed=0.2,
        )
        assert store.sweep_describe("abc") == {"metric": "volume"}
        assert store.sweep_describe("nope") is None
        points = store.sweep_points("abc")
        assert sorted(points) == [0, 1]
        assert points[0] == {
            "n": 15, "cost": 7.0, "detail": {"rate": 0.5}, "elapsed": 0.1,
        }
        assert points[1]["detail"] is None

    def test_inserts_are_idempotent_first_writer_wins(self, tmp_result_store):
        store = tmp_result_store
        store.record_sweep_meta("abc", "walk", {"v": 1}, 1)
        store.record_sweep_meta("abc", "other", {"v": 2}, 9)
        assert store.sweep_describe("abc") == {"v": 1}
        store.record_sweep_point(
            "abc", 0, param_repr="3", n=15, cost=7.0, detail=None,
            elapsed=0.1,
        )
        store.record_sweep_point(
            "abc", 0, param_repr="3", n=15, cost=999.0, detail=None,
            elapsed=0.1,
        )
        assert store.sweep_points("abc")[0]["cost"] == 7.0


class TestTrialRows:
    def test_outcomes_round_trip(self, tmp_result_store):
        store = tmp_result_store
        store.record_trial_run("run1", {"base_seed": 7})
        records = [trial_record(t) for t in (1, 0, 2)]
        store.record_trials("run1", records)
        restored = store.trial_records("run1")
        assert [r.trial for r in restored] == [0, 1, 2]  # trial order
        assert restored[1] == trial_record(1)
        assert store.trial_records("other") == []

    def test_empty_batch_records_nothing(self, tmp_result_store):
        store = tmp_result_store
        store.record_trials("run1", [])
        assert store.trial_records("run1") == []
        assert store.summary()["trials"] == 0

    def test_rewrite_is_idempotent(self, tmp_result_store):
        store = tmp_result_store
        store.record_trials("run1", [trial_record(0)])
        store.record_trials(
            "run1", [trial_record(0, max_volume=999), trial_record(1)]
        )
        restored = store.trial_records("run1")
        assert len(restored) == 2
        assert restored[0].max_volume == 10  # first writer won


class TestServiceResponses:
    def test_round_trip_exact_bytes(self, tmp_result_store):
        body = b'{"result":{"max_volume":7},"valid":true}\n'
        assert tmp_result_store.get_response("k1") is None
        tmp_result_store.record_response("k1", body, endpoint="/solve")
        assert tmp_result_store.get_response("k1") == body

    def test_first_writer_wins(self, tmp_result_store):
        tmp_result_store.record_response("k1", b"first\n", endpoint="/mc")
        tmp_result_store.record_response("k1", b"second\n", endpoint="/mc")
        assert tmp_result_store.get_response("k1") == b"first\n"

    def test_reopening_preserves_bodies(self, tmp_path):
        path = tmp_path / "r.sqlite"
        ResultStore(path).record_response("k", b"x\n", endpoint="/solve")
        assert ResultStore(path).get_response("k") == b"x\n"

    def test_pre_serve_store_gains_table_on_reopen(self, tmp_path):
        # Stores created before the service_responses table existed are
        # upgraded in place: the additive CREATE TABLE IF NOT EXISTS runs
        # on every open, so a reopen is enough.
        path = tmp_path / "r.sqlite"
        ResultStore(path)
        with sqlite3.connect(path) as conn:
            conn.execute("DROP TABLE service_responses")
        store = ResultStore(path)
        store.record_response("k", b"x\n", endpoint="/solve")
        assert store.get_response("k") == b"x\n"


class TestStoreFile:
    def test_summary_counts_rows(self, tmp_result_store):
        store = tmp_result_store
        assert store.summary() == {
            "sweeps": 0, "sweep_points": 0, "trial_runs": 0, "trials": 0,
            "service_responses": 0,
        }
        store.record_sweep_meta("abc", "walk", {}, 1)
        store.record_trials("run1", [trial_record(0), trial_record(1)])
        store.record_response("k1", b'{"a":1}\n', endpoint="/solve")
        assert store.summary() == {
            "sweeps": 1, "sweep_points": 0, "trial_runs": 0, "trials": 2,
            "service_responses": 1,
        }

    def test_reopening_preserves_rows(self, tmp_path):
        path = tmp_path / "r.sqlite"
        ResultStore(path).record_trials("run1", [trial_record(0)])
        assert ResultStore(path).trial_records("run1")[0].trial == 0

    def test_non_sqlite_file_raises(self, tmp_path):
        path = tmp_path / "r.sqlite"
        path.write_text("this is not a database")
        with pytest.raises(ResultStoreError, match="not a usable"):
            ResultStore(path)

    def test_future_schema_version_refused(self, tmp_path):
        path = tmp_path / "r.sqlite"
        ResultStore(path)
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE store_meta SET value = '999' "
                "WHERE key = 'schema_version'"
            )
        with pytest.raises(ResultStoreError, match="schema version"):
            ResultStore(path)

    def test_fresh_store_opens_while_another_connection_writes(
        self, tmp_path
    ):
        """A writer's lock on a fresh file delays the open; it is no error.

        While another connection holds a RESERVED lock on a file still in
        rollback-journal mode, sqlite answers the switch to WAL with
        SQLITE_BUSY at once, without calling the busy handler.
        """
        path = tmp_path / "r.sqlite"
        writer = sqlite3.connect(
            str(path), isolation_level=None, check_same_thread=False
        )
        writer.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.5, writer.rollback)
        release.start()
        try:
            store = ResultStore(path)
        finally:
            release.join()
            writer.close()
        store.record_trials("run", [trial_record(0)])
        assert store.trial_records("run")[0].trial == 0
        with sqlite3.connect(str(path)) as check:
            mode = check.execute("PRAGMA journal_mode").fetchone()
        check.close()
        assert mode == ("wal",)


_APPEND_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[4])
from repro.corpus import ResultStore
from repro.exec.backends import TrialOutcome

path, run_key, start = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = ResultStore(path)
store.record_trial_run(run_key, {"writer": "race"})
for trial in range(start, start + 40):
    store.record_trials(run_key, [TrialOutcome(
        trial=trial, seed=trial, valid=True, max_volume=trial,
        max_distance=1, max_queries=trial, random_bits=0,
    )])
"""


@pytest.mark.slow
class TestConcurrentAppends:
    def test_two_processes_lose_no_rows(self, tmp_path):
        """Two writers interleaving single-row commits on one store.

        Overlapping trial ranges exercise both contention (WAL + busy
        timeout must retry, not fail) and idempotence (duplicate trials
        converge on one row).
        """
        path = tmp_path / "r.sqlite"
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-c", _APPEND_SCRIPT,
                    str(path), "shared-run", str(start), SRC,
                ],
                env={"PATH": "/usr/bin:/bin"},
                stderr=subprocess.PIPE,
            )
            for start in (0, 20)  # trials 0..59, overlap on 20..39
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        store = ResultStore(path)
        records = store.trial_records("shared-run")
        assert [r.trial for r in records] == list(range(60))
        assert store.summary()["trial_runs"] == 1


def record_point(store, spec_key, index):
    store.record_sweep_point(
        spec_key, index, param_repr=str(index), n=index, cost=float(index),
        detail=None, elapsed=0.0,
    )


@pytest.fixture()
def connects(monkeypatch):
    """Every ``sqlite3.connect`` call made while the test runs."""
    calls = []
    real = sqlite3.connect

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", counting)
    return calls


def open_fds(path):
    """This process's descriptors on the db file and its -wal/-shm."""
    base = str(Path(path).resolve())
    names = {base, base + "-wal", base + "-shm"}
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target in names:
            found.append(target)
    return found


def side_files(path):
    return [
        suffix for suffix in ("-wal", "-shm")
        if Path(str(path) + suffix).exists()
    ]


class TestConnectionReuse:
    def test_one_connection_for_many_mixed_calls(self, tmp_path, connects):
        store = ResultStore(tmp_path / "r.sqlite")
        for index in range(10):
            record_point(store, "abc", index)
            store.record_trials("run", [trial_record(index)])
            store.record_response(f"k{index}", b"x\n", endpoint="/solve")
            store.sweep_points("abc")
            store.trial_records("run")
            store.get_response(f"k{index}")
            store.summary()
        assert len(connects) == 1
        assert store.summary()["sweep_points"] == 10

    def test_close_then_next_call_opens_one_new_connection(
        self, tmp_path, connects
    ):
        store = ResultStore(tmp_path / "r.sqlite")
        record_point(store, "abc", 0)
        store.close()
        store.close()  # idempotent
        assert len(connects) == 1
        assert 0 in store.sweep_points("abc")
        record_point(store, "abc", 1)
        assert len(connects) == 2
        assert sorted(store.sweep_points("abc")) == [0, 1]

    def test_other_store_sees_writes_and_no_read_stays_open(self, tmp_path):
        path = tmp_path / "r.sqlite"
        a, b = ResultStore(path), ResultStore(path)
        assert a.get_response("k") is None
        assert a.sweep_describe("abc") is None
        b.record_response("k", b"body\n", endpoint="/solve")
        b.record_sweep_meta("abc", "walk", {"v": 1}, 1)
        assert a.get_response("k") == b"body\n"
        assert a.sweep_describe("abc") == {"v": 1}
        # A read snapshot left open by either store would make a full
        # checkpoint report busy (1) instead of completing (0).
        probe = sqlite3.connect(path, timeout=0)
        try:
            busy, _, _ = probe.execute(
                "PRAGMA wal_checkpoint(TRUNCATE)"
            ).fetchone()
        finally:
            probe.close()
        assert busy == 0

    def test_four_threads_share_one_store(self, tmp_path, connects):
        store = ResultStore(tmp_path / "r.sqlite")
        start = threading.Barrier(4)
        errors = []

        def write(worker):
            try:
                start.wait()
                for index in range(25):
                    record_point(store, f"spec{worker}", index)
                    store.record_trials(
                        f"run{worker}", [trial_record(index)]
                    )
                    store.sweep_points(f"spec{worker}")
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(worker,))
            for worker in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for worker in range(4):
            assert sorted(store.sweep_points(f"spec{worker}")) == list(
                range(25)
            )
            assert len(store.trial_records(f"run{worker}")) == 25
        assert len(connects) == 1

    def test_connection_from_another_pid_is_neither_used_nor_closed(
        self, tmp_path
    ):
        # What a child that bypassed the fork hooks would find: the
        # handle names another opener.  The store must open its own.
        store = ResultStore(tmp_path / "r.sqlite")
        inherited = store._handle.conn
        store._handle.pid = -1
        record_point(store, "abc", 0)
        try:
            assert store._handle.conn is not inherited
            assert results_module._INHERITED[-1] is inherited
            # Still open: a closed connection would raise here.
            assert inherited.execute(
                "SELECT COUNT(*) FROM sweep_points"
            ).fetchone() == (1,)
        finally:
            results_module._INHERITED.remove(inherited)
            inherited.close()


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs Linux /proc/self/fd"
)
class TestRelease:
    def test_drop_releases_descriptors_without_gc(self, tmp_path):
        path = tmp_path / "r.sqlite"
        gc.disable()
        try:
            store = ResultStore(path)
            record_point(store, "abc", 0)
            assert store.get_response("k") is None
            assert len(open_fds(path)) >= 3  # db, -wal, -shm
            del store
            assert open_fds(path) == []
        finally:
            gc.enable()
        assert side_files(path) == []

    def test_side_files_go_when_every_store_is_closed(self, tmp_path):
        path = tmp_path / "r.sqlite"
        a, b = ResultStore(path), ResultStore(path)
        record_point(a, "abc", 0)
        record_point(b, "abc", 1)
        a.close()
        assert side_files(path) == ["-wal", "-shm"]
        assert open_fds(path)
        b.close()
        assert side_files(path) == []
        assert open_fds(path) == []
        assert sorted(ResultStore(path).sweep_points("abc")) == [0, 1]


def _child_writes(store, start, wrote, parent_closed):
    for index in range(start, start + 20):
        record_point(store, "forked", index)
    wrote.set()
    if parent_closed is not None:
        parent_closed.wait(30)
        for index in range(start + 20, start + 40):
            record_point(store, "forked", index)


@pytest.mark.slow
class TestFork:
    @pytest.fixture()
    def fork(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        return multiprocessing.get_context("fork")

    def _check(self, path, expected):
        assert sorted(ResultStore(path).sweep_points("forked")) == expected
        with sqlite3.connect(path) as conn:
            assert conn.execute(
                "PRAGMA integrity_check"
            ).fetchone() == ("ok",)

    def test_child_writes_through_the_parents_store(self, tmp_path, fork):
        path = tmp_path / "r.sqlite"
        store = ResultStore(path)
        record_point(store, "forked", 0)
        wrote = fork.Event()
        child = fork.Process(
            target=_child_writes, args=(store, 100, wrote, None)
        )
        child.start()
        for index in range(1, 40):  # the parent keeps writing meanwhile
            record_point(store, "forked", index)
        child.join(60)
        assert child.exitcode == 0
        record_point(store, "forked", 40)
        self._check(path, list(range(41)) + list(range(100, 120)))

    def test_parent_closing_first_loses_no_child_rows(self, tmp_path, fork):
        # A child connection that inherited its parent's sqlite lock
        # state holds no real lock, so the parent's close checkpointed
        # and deleted the WAL under it and its later commits vanished.
        path = tmp_path / "r.sqlite"
        store = ResultStore(path)
        record_point(store, "forked", 0)
        wrote, parent_closed = fork.Event(), fork.Event()
        child = fork.Process(
            target=_child_writes, args=(store, 100, wrote, parent_closed)
        )
        child.start()
        assert wrote.wait(60)
        store.close()
        parent_closed.set()
        child.join(60)
        assert child.exitcode == 0
        self._check(path, [0] + list(range(100, 140)))


_KILLED_WRITER = """
import sys, time
sys.path.insert(0, sys.argv[3])
from repro.corpus import ResultStore

store = ResultStore(sys.argv[1])
for index in range(int(sys.argv[2])):
    store.record_sweep_point(
        "killed", index, param_repr=str(index), n=index, cost=1.0,
        detail=None, elapsed=0.0,
    )
print("recorded", flush=True)
time.sleep(60)
"""


@pytest.mark.slow
def test_points_survive_kill_9_before_close(tmp_path):
    path = tmp_path / "r.sqlite"
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLED_WRITER, str(path), "30", SRC],
        env={"PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"recorded\n", proc.stderr.read()
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGKILL
    assert sorted(ResultStore(path).sweep_points("killed")) == list(range(30))
