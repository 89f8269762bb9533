"""Shared-memory transport: fidelity, lifecycle, and leak-freedom.

The contract (DESIGN.md §9.2): the publisher owns the segment and
unlinks it at the end of the dispatch that published it — success,
worker exception, or ``close()`` — so ``published_segments()`` is empty
and ``/dev/shm`` holds no new ``psm_*`` entries after every backend
interaction.  Attached instances must round-trip the complete oracle
surface.  The pool picks the transport: a node run of a materialized
instance goes by shared memory, while a spec, a trial batch and a run
whose publish failed go by pickle — each bitwise identical to serial.
"""

import os
import pickle
import random

import pytest

from repro.algorithms.balanced_tree_algs import BalancedTreeDistanceSolver
from repro.algorithms.leaf_coloring_algs import RWtoLeaf
from repro.exec import shm
from repro.exec.backends import (
    BACKEND_SPEC_GRAMMAR,
    FixedInstanceFactory,
    ProcessPoolBackend,
    SerialBackend,
    get_backend,
    parse_backend_spec,
)
from repro.faults.plan import FaultInjector, FaultPlan
from repro.graphs.generators import (
    balanced_tree_instance,
    leaf_coloring_instance,
)
from repro.model.implicit import InstanceSpec
from repro.model.probe import ProbeAlgorithm
from repro.model.runner import run_algorithm
from repro.problems.leaf_coloring import LeafColoring

INSTANCE = balanced_tree_instance(4, rng=random.Random(7))
LEAF_INSTANCE = leaf_coloring_instance(4, rng=random.Random(5))


def _shm_entries():
    """Current ``psm_*`` segment files (POSIX shm lives in /dev/shm)."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-POSIX-shm host
        return set()


class ExplodingAlgorithm(ProbeAlgorithm):
    """Module-level (hence picklable) algorithm that fails in workers."""

    name = "exploding"

    def run(self, view):
        raise RuntimeError("boom")


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    """Every test must leave the registry and /dev/shm as it found them."""
    before = _shm_entries()
    assert shm.published_segments() == []
    yield
    assert shm.published_segments() == []
    assert _shm_entries() == before


class TestRoundTrip:
    def test_attached_instance_matches_original(self):
        handle = shm.publish_instance(INSTANCE)
        try:
            attachment = shm.attach_instance(handle)
            try:
                clone = attachment.instance
                frozen = INSTANCE.graph.freeze()
                assert clone.n == INSTANCE.n
                assert clone.name == INSTANCE.name
                assert dict(clone.meta) == dict(INSTANCE.meta)
                assert list(clone.graph.nodes()) == list(frozen.nodes())
                for node in frozen.nodes():
                    assert clone.graph.degree(node) == frozen.degree(node)
                    assert clone.label(node) == INSTANCE.label(node)
                    ports = range(1, frozen.num_ports(node) + 1)
                    for port in ports:
                        assert clone.graph.neighbor_at(
                            node, port
                        ) == frozen.neighbor_at(node, port)
            finally:
                attachment.close()
        finally:
            shm.unpublish(handle)

    def test_handle_pickles_in_constant_size(self):
        small = shm.publish_instance(balanced_tree_instance(2))
        large = shm.publish_instance(balanced_tree_instance(6))
        try:
            small_len = len(pickle.dumps(small))
            large_len = len(pickle.dumps(large))
            # The handle is name + six integers — never the instance.
            assert small_len < 512
            assert abs(large_len - small_len) < 64
        finally:
            shm.unpublish(small)
            shm.unpublish(large)

    def test_unpublish_is_idempotent(self):
        handle = shm.publish_instance(INSTANCE)
        shm.unpublish(handle)
        shm.unpublish(handle)


class TestBackendLifecycle:
    def test_run_unlinks_after_normal_completion(self):
        with ProcessPoolBackend(workers=2, chunk_size=4) as pool:
            run_algorithm(INSTANCE, BalancedTreeDistanceSolver(),
                          backend=pool)
            assert shm.published_segments() == []

    def test_run_unlinks_after_worker_exception(self):
        with ProcessPoolBackend(workers=2, chunk_size=4) as pool:
            with pytest.raises(RuntimeError, match="boom"):
                run_algorithm(INSTANCE, ExplodingAlgorithm(), backend=pool)
            assert shm.published_segments() == []

    def test_trial_batch_unlinks_after_completion(self):
        factory = FixedInstanceFactory(LEAF_INSTANCE)
        with ProcessPoolBackend(workers=2, chunk_size=2) as pool:
            pool.run_trial_batch(
                LeafColoring(), factory, RWtoLeaf(), range(6), base_seed=1
            )
            assert shm.published_segments() == []

    def test_close_drains_live_handles(self):
        pool = ProcessPoolBackend(workers=2)
        handle = pool._publish(INSTANCE)
        assert handle is not None
        assert shm.published_segments() == [handle.name]
        pool.close()
        assert shm.published_segments() == []


@pytest.fixture
def publishes(monkeypatch):
    """Every instance the backends publish to shared memory."""
    published = []
    real = shm.publish_instance

    def counting(instance):
        published.append(instance)
        return real(instance)

    monkeypatch.setattr(shm, "publish_instance", counting)
    return published


def _serial_and_pooled(instance, algorithm, seed=0, **pool_kwargs):
    serial = run_algorithm(instance, algorithm, seed=seed,
                           backend=SerialBackend())
    with ProcessPoolBackend(workers=2, chunk_size=4, **pool_kwargs) as pool:
        pooled = run_algorithm(instance, algorithm, seed=seed, backend=pool)
        events = [event.kind for event in pool.fault_log]
    assert pooled.outputs == serial.outputs
    assert pooled.profiles == serial.profiles
    return events


class TestEquivalence:
    """Each transport the pool picks is bitwise identical to serial."""

    def test_node_run_of_an_instance_publishes_once(
        self, publishes, submissions
    ):
        events = _serial_and_pooled(INSTANCE, BalancedTreeDistanceSolver())
        assert publishes == [INSTANCE]
        assert events == []
        assert submissions

    def test_node_run_after_a_failed_publish_goes_by_pickle(
        self, publishes, submissions
    ):
        plan = FaultPlan(kinds=("shm-publish-fail",), rate=1.0, max_faults=1)
        events = _serial_and_pooled(
            LEAF_INSTANCE, RWtoLeaf(), seed=5,
            fault_injector=FaultInjector(plan),
        )
        assert publishes == []
        assert "shm-publish" in events
        assert submissions

    def test_node_run_on_a_spec_goes_by_pickle(self, publishes, submissions):
        spec = InstanceSpec("leaf-coloring-hard", 4)
        _serial_and_pooled(spec, RWtoLeaf(), seed=9)
        assert publishes == []
        assert submissions

    def test_trial_batch_goes_by_pickle(self, publishes, submissions):
        factory = FixedInstanceFactory(LEAF_INSTANCE)
        baseline = SerialBackend().run_trial_batch(
            LeafColoring(), factory, RWtoLeaf(), range(8), base_seed=3
        )
        with ProcessPoolBackend(workers=2, chunk_size=2) as pool:
            outcomes = pool.run_trial_batch(
                LeafColoring(), factory, RWtoLeaf(), range(8), base_seed=3
            )
        assert publishes == []
        assert len(submissions) == 4
        assert outcomes == baseline

    def test_non_fixed_factory_falls_back_to_serial(self):
        def factory(trial):
            return LEAF_INSTANCE

        # A local function does not pickle, so this exercises the
        # fall-back-to-serial safety net.
        with ProcessPoolBackend(workers=2, chunk_size=2) as pool:
            outcomes = pool.run_trial_batch(
                LeafColoring(), factory, RWtoLeaf(), range(4), base_seed=3
            )
        baseline = SerialBackend().run_trial_batch(
            LeafColoring(), factory, RWtoLeaf(), range(4), base_seed=3
        )
        assert outcomes == baseline


class TestSpecParsing:
    def test_process_spec_builds_a_pool(self):
        backend = get_backend("process:2")
        try:
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.workers == 2
        finally:
            backend.close()

    @pytest.mark.parametrize(
        "spec",
        ["batch", "process:2:shm", "process:2:pickle", "process:2:pigeon"],
    )
    def test_removed_specs_are_rejected_with_the_grammar(self, spec):
        with pytest.raises(ValueError) as excinfo:
            parse_backend_spec(spec)
        assert BACKEND_SPEC_GRAMMAR in str(excinfo.value)
        assert repr(spec) in str(excinfo.value)


class TestChunking:
    def test_tiny_trailing_chunk_is_merged(self):
        pool = ProcessPoolBackend(workers=2, chunk_size=10)
        try:
            chunks = pool._chunk(list(range(21)))
            assert [len(c) for c in chunks] == [10, 11]
            assert [x for c in chunks for x in c] == list(range(21))
        finally:
            pool.close()

    def test_balanced_trailing_chunk_is_kept(self):
        pool = ProcessPoolBackend(workers=2, chunk_size=10)
        try:
            chunks = pool._chunk(list(range(25)))
            assert [len(c) for c in chunks] == [10, 10, 5]
        finally:
            pool.close()

    def test_single_chunk_never_merges(self):
        pool = ProcessPoolBackend(workers=2, chunk_size=10)
        try:
            assert pool._chunk(list(range(3))) == [[0, 1, 2]]
            assert pool._chunk([]) == []
        finally:
            pool.close()
