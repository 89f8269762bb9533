"""Backend equivalence: every backend must match the serial reference.

The load-bearing property (module docstring of ``repro.exec.backends``):
random tapes are seeded per ``(seed, node_id)``, so executions are
order- and process-independent and parallel dispatch must be *bitwise*
identical to serial — same outputs, same profiles, same probabilities.
"""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.balanced_tree_algs import BalancedTreeDistanceSolver
from repro.algorithms.leaf_coloring_algs import (
    LeafColoringDistanceSolver,
    RWtoLeaf,
    SecretRWtoLeaf,
)
from repro.exec.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    get_backend,
)
from repro.graphs.generators import (
    balanced_tree_instance,
    leaf_coloring_instance,
)
from repro.graphs.labelings import Labeling, other_color
from repro.model.probe import ProbeAlgorithm
from repro.model.runner import (
    run_algorithm,
    solve_and_check,
    success_probability,
)
from repro.montecarlo.engine import TrialPolicy, run_trials
from repro.problems.leaf_coloring import LeafColoring
from repro.registry import ALGORITHMS, load_components

load_components()


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(workers=2, chunk_size=16)
    yield backend
    backend.close()


def assert_bitwise_equal(a, b):
    assert a.outputs == b.outputs
    assert a.profiles == b.profiles
    assert a.algorithm == b.algorithm
    assert a.instance == b.instance


class TestRunEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_randomized_walk_serial_vs_process(self, pool, seed):
        """Property: same seed → identical RunResults on both backends."""
        instance = leaf_coloring_instance(5, rng=random.Random(3))
        serial = run_algorithm(
            instance, RWtoLeaf(), seed=seed, backend=SerialBackend()
        )
        parallel = run_algorithm(
            instance, RWtoLeaf(), seed=seed, backend=pool
        )
        assert_bitwise_equal(serial, parallel)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_secret_randomness_serial_vs_process(self, pool, seed):
        instance = leaf_coloring_instance(4, rng=random.Random(9))
        serial = run_algorithm(instance, SecretRWtoLeaf(), seed=seed)
        parallel = run_algorithm(
            instance, SecretRWtoLeaf(), seed=seed, backend=pool
        )
        assert_bitwise_equal(serial, parallel)

    def test_deterministic_solver_all_backends(self, pool):
        instance = balanced_tree_instance(4, rng=random.Random(1))
        reference = run_algorithm(instance, BalancedTreeDistanceSolver())
        held = SerialBackend()
        run_algorithm(instance, BalancedTreeDistanceSolver(), backend=held)
        for backend in (held, pool):
            other = run_algorithm(
                instance, BalancedTreeDistanceSolver(), backend=backend
            )
            assert_bitwise_equal(reference, other)

    def test_node_subset_preserves_order_and_content(self, pool):
        instance = leaf_coloring_instance(5, rng=random.Random(2))
        nodes = sorted(instance.graph.nodes())[::3]
        serial = run_algorithm(instance, RWtoLeaf(), seed=11, nodes=nodes)
        parallel = run_algorithm(
            instance, RWtoLeaf(), seed=11, nodes=nodes, backend=pool
        )
        assert list(serial.outputs) == nodes
        assert list(parallel.outputs) == nodes
        assert_bitwise_equal(serial, parallel)

    def test_truncation_profiles_identical(self, pool):
        instance = leaf_coloring_instance(5, rng=random.Random(4))
        serial = run_algorithm(instance, RWtoLeaf(), seed=5, max_volume=6)
        parallel = run_algorithm(
            instance, RWtoLeaf(), seed=5, max_volume=6, backend=pool
        )
        assert_bitwise_equal(serial, parallel)
        assert serial.truncated_nodes == parallel.truncated_nodes


def _fresh_instance(trial):
    return leaf_coloring_instance(4, rng=random.Random(trial))


class TestSuccessProbabilityEquivalence:
    @settings(max_examples=5, deadline=None)
    @given(base_seed=st.integers(min_value=0, max_value=2**20))
    def test_all_backends_agree(self, pool, base_seed):
        problem = LeafColoring()
        values = {
            backend.name: success_probability(
                problem,
                _fresh_instance,
                RWtoLeaf(),
                trials=6,
                base_seed=base_seed,
                backend=backend,
            )
            for backend in (SerialBackend(), pool)
        }
        assert len(set(values.values())) == 1, values

    def test_unpicklable_factory_falls_back_to_serial(self):
        problem = LeafColoring()
        backend = ProcessPoolBackend(workers=2, chunk_size=1)
        try:
            p = success_probability(
                problem,
                lambda t: leaf_coloring_instance(4, rng=random.Random(t)),
                RWtoLeaf(),
                trials=4,
                backend=backend,
            )
        finally:
            backend.close()
        serial = success_probability(
            problem, _fresh_instance, RWtoLeaf(), trials=4
        )
        assert p == serial

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            success_probability(
                LeafColoring(), _fresh_instance, RWtoLeaf(), trials=0
            )


def _counting_as_oracle(monkeypatch):
    """Count oracle builds through the module global backends use."""
    import repro.exec.backends as backends

    calls = []
    real = backends.as_oracle

    def counting(instance, mode="auto"):
        calls.append(instance)
        return real(instance, mode=mode)

    monkeypatch.setattr(backends, "as_oracle", counting)
    return calls


class TestSerialOracleReuse:
    """A serial backend keeps the oracle of the instance it ran last."""

    def test_oracle_reused_for_same_instance(self):
        backend = SerialBackend()
        instance = leaf_coloring_instance(3)
        o1 = backend._oracle_for(instance)
        o2 = backend._oracle_for(instance)
        assert o1 is o2

    def test_only_the_last_instance_is_kept(self):
        backend = SerialBackend()
        instances = [leaf_coloring_instance(3) for _ in range(5)]
        for instance in instances:
            backend._oracle_for(instance)
        assert backend._oracle.instance is instances[-1]

    def test_held_backend_compiles_once_across_runs_and_batches(
        self, monkeypatch
    ):
        instance = leaf_coloring_instance(4, rng=random.Random(2))
        calls = _counting_as_oracle(monkeypatch)
        backend = SerialBackend()
        policy = TrialPolicy(
            min_trials=4, max_trials=12, batch_size=4, early_stop=False
        )
        for seed in range(3):
            backend.run(instance, RWtoLeaf(), seed=seed)
        for base_seed in range(2):
            run_trials(
                LeafColoring(), instance, RWtoLeaf(), policy,
                base_seed=base_seed, backend=backend,
            )
        assert calls == [instance]

    def test_alternating_instances_answer_for_their_own(self):
        first = leaf_coloring_instance(4, rng=random.Random(1))
        second = leaf_coloring_instance(5, rng=random.Random(2))
        held = SerialBackend()
        for round_ in range(2):
            for instance in (first, second, first):
                seed = 3 + round_
                got = held.run(instance, RWtoLeaf(), seed=seed)
                fresh = SerialBackend().run(instance, RWtoLeaf(), seed=seed)
                assert_bitwise_equal(got, fresh)

    def test_solve_and_check_compiles_once_per_unedited_instance(
        self, monkeypatch
    ):
        instance = leaf_coloring_instance(4, rng=random.Random(2))
        calls = _counting_as_oracle(monkeypatch)
        held = SerialBackend()
        reports = [
            solve_and_check(
                LeafColoring(), instance, LeafColoringDistanceSolver(),
                backend=held,
            )
            for _ in range(3)
        ]
        assert calls == [instance]
        assert all(r.valid for r in reports)
        assert all(r.run == reports[0].run for r in reports)

    def test_close_drops_the_kept_oracle(self):
        instance = leaf_coloring_instance(3)
        backend = SerialBackend()
        backend.run(instance, RWtoLeaf(), seed=1)
        ref = weakref.ref(instance)
        del instance
        gc.collect()
        assert ref() is not None  # the kept oracle holds it
        backend.close()
        gc.collect()
        assert ref() is None

    def test_default_backend_holds_no_instance(self):
        instance = leaf_coloring_instance(3)
        run_algorithm(instance, RWtoLeaf(), seed=1)
        ref = weakref.ref(instance)
        del instance
        gc.collect()
        assert ref() is None


def _flipped(labeling: Labeling) -> Labeling:
    """A new labeling with every node's input colour flipped."""
    flipped = labeling.copy()
    for v in flipped:
        label = flipped[v]
        if label.color is not None:
            label.color = other_color(label.color)
    return flipped


def _assert_held_equals_fresh(held, problem, instance, make):
    got = solve_and_check(problem, instance, make(), backend=held)
    fresh = solve_and_check(
        problem, instance, make(), backend=SerialBackend()
    )
    assert_bitwise_equal(got.run, fresh.run)
    assert got.valid == fresh.valid
    assert got.violations == fresh.violations
    return got


class TestKeptOracleFollowsEdits:
    """A held backend answers for the instance as it is now.

    The kept compiled oracle is a snapshot, so it is reused only while
    the instance holds the graph and labeling it compiled, unmutated.
    """

    def test_replaced_label_objects(self, monkeypatch):
        instance = leaf_coloring_instance(3, rng=random.Random(1))
        held = SerialBackend()
        before = solve_and_check(
            LeafColoring(), instance, LeafColoringDistanceSolver(),
            backend=held,
        )
        calls = _counting_as_oracle(monkeypatch)
        flipped = _flipped(instance.labeling)
        for v in flipped:
            instance.labeling[v] = flipped[v]
        after = _assert_held_equals_fresh(
            held, LeafColoring(), instance, LeafColoringDistanceSolver
        )
        assert after.run.outputs != before.run.outputs
        assert after.valid
        # One compile for the edit on the held backend, one fresh.
        assert len(calls) == 2

    def test_replaced_labeling(self):
        instance = leaf_coloring_instance(3, rng=random.Random(1))
        held = SerialBackend()
        before = held.run(instance, LeafColoringDistanceSolver())
        instance.labeling = _flipped(instance.labeling)
        after = _assert_held_equals_fresh(
            held, LeafColoring(), instance, LeafColoringDistanceSolver
        )
        assert after.run.outputs != before.outputs

    def _dangling_pair(self, graph):
        """Two leaves, each with a fresh dangling port."""
        u, v = [w for w in graph.nodes() if graph.degree(w) == 1][:2]
        for w in (u, v):
            graph.reserve_port(w, graph.num_ports(w) + 1)
        return (u, graph.num_ports(u)), (v, graph.num_ports(v))

    def test_add_edge_on_a_dangling_port(self):
        instance = leaf_coloring_instance(3, rng=random.Random(1))
        (u, pu), (v, pv) = self._dangling_pair(instance.graph)
        make = ALGORITHMS.get("leaf-coloring/full-gather").make
        held = SerialBackend()
        before = held.run(instance, make())
        instance.graph.add_edge(u, pu, v, pv)
        after = _assert_held_equals_fresh(
            held, LeafColoring(), instance, make
        )
        assert after.run.profiles != before.profiles

    def test_replaced_graph(self):
        instance = leaf_coloring_instance(3, rng=random.Random(1))
        (u, pu), (v, pv) = self._dangling_pair(instance.graph)
        make = ALGORITHMS.get("leaf-coloring/full-gather").make
        held = SerialBackend()
        before = held.run(instance, make())
        graph = instance.graph.copy()
        graph.add_edge(u, pu, v, pv)
        instance.graph = graph
        after = _assert_held_equals_fresh(
            held, LeafColoring(), instance, make
        )
        assert after.run.profiles != before.profiles


class TestGetBackend:
    def test_resolution(self):
        assert isinstance(get_backend(None), SerialBackend)
        # A fresh backend per default call: nothing is shared or kept.
        assert get_backend(None) is not get_backend(None)
        assert isinstance(get_backend("serial"), SerialBackend)
        pool = get_backend("process:3")
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.workers == 3
        passthrough = SerialBackend()
        assert get_backend(passthrough) is passthrough

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_backend("gpu")
        with pytest.raises(ValueError):
            get_backend(42)

    def test_custom_backend_is_pluggable(self):
        calls = []

        class CountingBackend(SerialBackend):
            name = "counting"

            def run(self, instance, algorithm, nodes=None, **kw):
                calls.append(algorithm.name)
                return super().run(instance, algorithm, nodes, **kw)

        instance = leaf_coloring_instance(3)

        class Const(ProbeAlgorithm):
            name = "const"

            def run(self, view):
                return "ok"

        result = run_algorithm(instance, Const(), backend=CountingBackend())
        assert calls == ["const"]
        assert set(result.outputs.values()) == {"ok"}

    def test_abc_not_instantiable(self):
        with pytest.raises(TypeError):
            ExecutionBackend()


class TestEmptyRunResult:
    def test_empty_nodes_run_is_zero_cost(self):
        instance = leaf_coloring_instance(3)
        result = run_algorithm(instance, RWtoLeaf(), nodes=[])
        assert result.outputs == {}
        assert result.max_volume == 0
        assert result.max_distance == 0
        assert result.max_queries == 0
        assert result.mean_volume == 0.0
        assert result.total_random_bits == 0
        assert result.truncated_nodes == []
