"""Crash-safe resume through the result store.

The contract under test: a Monte-Carlo run interrupted after any set of
committed trials resumes from the store and produces a result bitwise
identical to the uninterrupted run.  Stored trials replay instead of
re-executing; only the trials past the stored contiguous prefix, cut
back to a batch boundary, run again.
"""

import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algorithms.leaf_coloring_algs import RWtoLeaf
from repro.corpus import ResultStore
from repro.exec.backends import BatchBackend
from repro.graphs.generators import leaf_coloring_instance
from repro.montecarlo.engine import TrialPolicy, run_trials, trial_run_key
from repro.problems.leaf_coloring import LeafColoring

POLICY = TrialPolicy(
    min_trials=8, max_trials=24, batch_size=8, early_stop=False
)


def _instance():
    return leaf_coloring_instance(3, rng=random.Random(5))


def _run_key(base_seed=17):
    return trial_run_key(
        LeafColoring(), _instance(), RWtoLeaf(), POLICY, base_seed,
        None, None,
    )


class CountingBackend(BatchBackend):
    """A batch backend that remembers every trial index it executed."""

    def __init__(self):
        super().__init__()
        self.executed = []

    def run_trial_batch(self, problem, factory, algorithm, trials, **kwargs):
        self.executed.extend(trials)
        return super().run_trial_batch(
            problem, factory, algorithm, trials, **kwargs
        )


def _run(store=None, backend=None, resume=None):
    return run_trials(
        LeafColoring(),
        _instance(),
        RWtoLeaf(),
        POLICY,
        base_seed=17,
        backend=backend,
        store=store,
        resume=resume,
    )


@pytest.fixture(scope="module")
def baseline():
    return _run()


class TestRunKey:
    def test_key_binds_full_spec(self):
        key1, meta = _run_key(17)
        key2, _ = _run_key(18)
        assert key1 != key2  # base_seed is part of the identity
        assert meta["base_seed"] == 17

    def test_key_is_stable(self):
        # Stores written by earlier builds must keep replaying: the hash
        # of this spec may never change.
        assert _run_key(17)[0] == "a2bc45580e8b314b"


class TestStoreResume:
    def test_stored_equals_plain(self, tmp_result_store, baseline):
        stored = _run(store=tmp_result_store)
        assert stored.outcomes == baseline.outcomes
        assert stored.rate == baseline.rate

    def test_rerun_replays_instead_of_rerunning(self, tmp_result_store):
        store = tmp_result_store
        full = _run(store=store)
        counting = CountingBackend()
        again = _run(store=store, backend=counting)
        assert counting.executed == []
        assert store.summary()["trials"] == 24
        assert again.outcomes == full.outcomes

    def test_store_and_resume_are_exclusive(self, tmp_result_store):
        partial = _run()
        with pytest.raises(ValueError):
            _run(store=tmp_result_store, resume=partial)


def _batch_aligned_prefix(recorded):
    prefix = 0
    while prefix in recorded:
        prefix += 1
    if prefix >= POLICY.max_trials:
        return POLICY.max_trials
    return prefix // POLICY.batch_size * POLICY.batch_size


class TestCutProperty:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(recorded=st.sets(st.integers(min_value=0, max_value=23)))
    @example(recorded=set())
    @example(recorded=set(range(8)))
    @example(recorded=set(range(23)))
    @example(recorded=set(range(24)))
    @example(recorded=set(range(1, 24)))
    def test_resume_from_any_recorded_subset(
        self, tmp_path, baseline, recorded
    ):
        """Whatever subset of trials a crash left stored, resume is exact.

        Only the batch-aligned contiguous prefix replays; every later
        trial executes again, stored or not, and the resumed outcomes
        equal the uninterrupted run's.
        """
        path = Path(tempfile.mkdtemp(dir=tmp_path)) / "r.sqlite"
        store = ResultStore(path)
        key, meta = _run_key()
        store.record_trial_run(key, meta)
        store.record_trials(
            key, [baseline.outcomes[i] for i in sorted(recorded)]
        )
        counting = CountingBackend()
        resumed = _run(store=store, backend=counting)
        store.close()
        assert resumed.outcomes == baseline.outcomes
        assert resumed.rate == baseline.rate
        start = _batch_aligned_prefix(recorded)
        assert counting.executed == list(range(start, POLICY.max_trials))


_KILL_SCRIPT = """
import os, random, sys
from repro.algorithms.leaf_coloring_algs import RWtoLeaf
from repro.corpus import ResultStore
from repro.exec.backends import BatchBackend
from repro.graphs.generators import leaf_coloring_instance
from repro.montecarlo.engine import TrialPolicy, run_trials
from repro.problems.leaf_coloring import LeafColoring

class DyingBackend(BatchBackend):
    batches = 0
    def run_trial_batch(self, *args, **kwargs):
        if DyingBackend.batches == 2:
            os._exit(9)  # SIGKILL-grade: no atexit, no finally, no close
        DyingBackend.batches += 1
        return super().run_trial_batch(*args, **kwargs)

policy = TrialPolicy(min_trials=8, max_trials=24, batch_size=8,
                     early_stop=False)
run_trials(
    LeafColoring(),
    leaf_coloring_instance(3, rng=random.Random(5)),
    RWtoLeaf(),
    policy,
    base_seed=17,
    backend=DyingBackend(),
    store=ResultStore(sys.argv[1]),
)
"""


@pytest.mark.slow
class TestKillMinusNine:
    def test_resume_survives_hard_kill(self, tmp_path, baseline):
        """kill -9 mid-run → resume → bitwise-identical final result."""
        path = tmp_path / "r.sqlite"
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_SCRIPT, str(path)],
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 9, proc.stderr.decode()
        counting = CountingBackend()
        resumed = _run(store=ResultStore(path), backend=counting)
        assert counting.executed == list(range(16, 24))
        assert resumed.outcomes == baseline.outcomes
        assert resumed.trials == baseline.trials
