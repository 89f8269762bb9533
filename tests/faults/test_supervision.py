"""Supervised dispatch: every injected failure mode must heal bitwise.

Chunk outcomes are pure functions of ``(chunk, seed)`` (per-node tapes
seeded from the node id), so supervision is purely a dispatch problem:
whatever the fault plan kills, delays, corrupts, or degrades, the
surviving result must equal the fault-free serial run *bit for bit*.
Also covers the shared-memory hardening.
"""

import random
import warnings

import pytest

from repro.algorithms.leaf_coloring_algs import RWtoLeaf
from repro.exec import shm as shm_layer
from repro.exec import backends as backends_module
from repro.exec.backends import ProcessPoolBackend
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.graphs.generators import leaf_coloring_instance
from repro.model.probe import ProbeAlgorithm
from repro.model.runner import run_algorithm, success_probability
from repro.problems.leaf_coloring import LeafColoring


def _instance(depth=4, seed=3):
    return leaf_coloring_instance(depth, rng=random.Random(seed))


def _fixed_instance(trial):
    return _instance(depth=3)


def _pool(plan, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("chunk_size", 2)
    kwargs.setdefault(
        "retry", RetryPolicy(base_delay=0.01, max_delay=0.05)
    )
    if plan is not None:
        kwargs.setdefault(
            "fault_injector", FaultInjector(plan)
        )
    return ProcessPoolBackend(**kwargs)


def assert_bitwise_equal(a, b):
    assert a.outputs == b.outputs
    assert a.profiles == b.profiles


class TestFaultRecovery:
    @pytest.mark.parametrize(
        "kind",
        ["kill-worker", "corrupt-payload", "transient-oserror"],
    )
    def test_single_kind_recovers_bitwise(self, kind):
        instance = _instance()
        serial = run_algorithm(instance, RWtoLeaf(), seed=11)
        plan = FaultPlan(
            seed=1, kinds=(kind,), rate=1.0, max_faults=2, max_attempt=0
        )
        pool = _pool(plan)
        try:
            chaotic = run_algorithm(
                instance, RWtoLeaf(), seed=11, backend=pool
            )
        finally:
            pool.close()
        assert len(pool.fault_log) > 0
        assert_bitwise_equal(serial, chaotic)

    def test_shm_attach_fail_degrades_to_pickle(self):
        instance = _instance()
        serial = run_algorithm(instance, RWtoLeaf(), seed=7)
        plan = FaultPlan(
            seed=2,
            kinds=("shm-attach-fail",),
            rate=1.0,
            max_faults=2,
            max_attempt=0,
        )
        pool = _pool(plan)
        try:
            chaotic = run_algorithm(
                instance, RWtoLeaf(), seed=7, backend=pool
            )
        finally:
            pool.close()
        assert_bitwise_equal(serial, chaotic)
        actions = [e.action for e in pool.fault_log]
        assert "degrade:pickle" in actions

    def test_shm_publish_fail_falls_back_to_pickle(self):
        instance = _instance()
        serial = run_algorithm(instance, RWtoLeaf(), seed=7)
        plan = FaultPlan(
            seed=2, kinds=("shm-publish-fail",), rate=1.0, max_faults=1
        )
        pool = _pool(plan)
        try:
            chaotic = run_algorithm(
                instance, RWtoLeaf(), seed=7, backend=pool
            )
        finally:
            pool.close()
        assert_bitwise_equal(serial, chaotic)
        kinds = [e.kind for e in pool.fault_log]
        assert "shm-publish" in kinds
        assert shm_layer.published_segments() == []

    def test_delay_chunk_hits_timeout_then_recovers(self):
        instance = _instance(depth=3)
        serial = run_algorithm(instance, RWtoLeaf(), seed=5)
        plan = FaultPlan(
            seed=4,
            kinds=("delay-chunk",),
            rate=1.0,
            max_faults=1,
            delay_s=1.0,
            max_attempt=0,
        )
        pool = _pool(plan, timeout=0.2)
        try:
            chaotic = run_algorithm(
                instance, RWtoLeaf(), seed=5, backend=pool
            )
        finally:
            pool.close()
        assert_bitwise_equal(serial, chaotic)
        assert "timeout" in pool.fault_log.counts()

    def test_degradation_chain_exhausts_to_serial(self):
        # Budget far above the retry allowance: the chunks must walk the
        # whole shm -> pickle -> serial chain and still come back equal.
        instance = _instance(depth=3)
        serial = run_algorithm(instance, RWtoLeaf(), seed=13)
        plan = FaultPlan(
            seed=6,
            kinds=("kill-worker",),
            rate=1.0,
            max_faults=30,
            max_attempt=10,
        )
        pool = _pool(
            plan,
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.01, max_delay=0.02
            ),
        )
        try:
            chaotic = run_algorithm(
                instance, RWtoLeaf(), seed=13, backend=pool
            )
        finally:
            pool.close()
        assert_bitwise_equal(serial, chaotic)
        actions = {e.action for e in pool.fault_log}
        assert "degrade:serial" in actions

    def test_fault_log_rides_on_result(self):
        instance = _instance(depth=3)
        plan = FaultPlan(
            seed=1, kinds=("kill-worker",), rate=1.0, max_faults=1,
            max_attempt=0,
        )
        pool = _pool(plan)
        try:
            chaotic = run_algorithm(
                instance, RWtoLeaf(), seed=3, backend=pool
            )
        finally:
            pool.close()
        assert chaotic.fault_log is not None
        assert len(chaotic.fault_log) > 0
        # Equality ignores the log: a recovered run IS the clean run.
        clean = run_algorithm(instance, RWtoLeaf(), seed=3)
        assert clean.fault_log is None
        assert clean == chaotic

    def test_no_faults_no_log(self):
        instance = _instance(depth=3)
        pool = _pool(None)
        try:
            result = run_algorithm(
                instance, RWtoLeaf(), seed=3, backend=pool
            )
        finally:
            pool.close()
        assert result.fault_log is None
        assert len(pool.fault_log) == 0

    def test_trial_batches_recover_bitwise(self):
        problem = LeafColoring()
        reference = success_probability(
            problem, _fixed_instance, RWtoLeaf(), trials=8, base_seed=2
        )
        plan = FaultPlan(
            seed=3,
            kinds=("kill-worker", "transient-oserror"),
            rate=1.0,
            max_faults=2,
            max_attempt=0,
        )
        pool = _pool(plan)
        try:
            chaotic = success_probability(
                problem, _fixed_instance, RWtoLeaf(), trials=8, base_seed=2,
                backend=pool,
            )
        finally:
            pool.close()
        assert len(pool.fault_log) > 0
        assert chaotic == reference

    def test_unsupervised_mode_still_works(self):
        instance = _instance(depth=3)
        serial = run_algorithm(instance, RWtoLeaf(), seed=9)
        pool = ProcessPoolBackend(
            workers=2, chunk_size=4, supervised=False
        )
        try:
            parallel = run_algorithm(
                instance, RWtoLeaf(), seed=9, backend=pool
            )
        finally:
            pool.close()
        assert_bitwise_equal(serial, parallel)

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(timeout=0.0)


class _AlwaysRaises(ProbeAlgorithm):
    name = "test/always-raises"

    def run(self, view):
        raise ZeroDivisionError("application bug, not infrastructure")


class TestApplicationErrors:
    def test_app_error_surfaces_real_exception(self):
        """Worker app errors degrade to serial, which reproduces them.

        The supervisor must not burn the whole retry/degradation budget
        on a deterministic application bug, and the caller must see the
        *real* traceback, not a BrokenProcessPool shell.
        """
        instance = _instance(depth=3)
        pool = _pool(None)
        try:
            with pytest.raises(ZeroDivisionError, match="application bug"):
                run_algorithm(
                    instance, _AlwaysRaises(), seed=1, backend=pool
                )
        finally:
            pool.close()
        counts = pool.fault_log.counts()
        assert counts.get("chunk-error", 0) > 0
        assert "degrade:serial" in {e.action for e in pool.fault_log}


class TestShmHardening:
    def test_attachment_close_idempotent(self):
        handle = shm_layer.publish_instance(_instance(depth=3))
        try:
            attachment = shm_layer.attach_instance(handle)
            attachment.close()
            attachment.close()  # second close must be a no-op
        finally:
            shm_layer.unpublish(handle)
        assert handle.name not in shm_layer.published_segments()

    def test_unpublish_all_idempotent(self):
        shm_layer.publish_instance(_instance(depth=3))
        shm_layer.unpublish_all()
        shm_layer.unpublish_all()
        assert shm_layer.published_segments() == []

    def test_unavailable_shm_is_a_publish_error(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(
            shm_layer.shared_memory, "SharedMemory", refuse
        )
        with pytest.raises(shm_layer.ShmPublishError, match="cannot create"):
            shm_layer.publish_instance(_instance(depth=3))

    def test_backend_warns_once_then_runs_on_pickle(self, monkeypatch):
        def refuse(instance):
            raise shm_layer.ShmPublishError("injected: shm exhausted")

        monkeypatch.setattr(backends_module.shm_layer, "publish_instance", refuse)
        monkeypatch.setattr(backends_module, "_SHM_FALLBACK_WARNED", False)
        instance = _instance(depth=3)
        serial = run_algorithm(instance, RWtoLeaf(), seed=21)
        pool = ProcessPoolBackend(workers=2, chunk_size=4)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = run_algorithm(
                    instance, RWtoLeaf(), seed=21, backend=pool
                )
                second = run_algorithm(
                    instance, RWtoLeaf(), seed=21, backend=pool
                )
        finally:
            pool.close()
        assert_bitwise_equal(serial, first)
        assert_bitwise_equal(serial, second)
        relevant = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(relevant) == 1  # actionable, and said exactly once

