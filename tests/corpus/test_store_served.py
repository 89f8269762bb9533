"""Engines against the store: re-runs are served, not re-executed."""

import random

from repro.algorithms.leaf_coloring_algs import RWtoLeaf
from repro.corpus import ResultStore
from repro.exec.sweep import InstanceFamily, SweepSpec, run_sweep
from repro.graphs.generators import leaf_coloring_instance
from repro.montecarlo.engine import TrialPolicy, run_trials
from repro.problems.leaf_coloring import LeafColoring
from repro.registry import ALGORITHMS, FAMILIES, load_components


def leaf_family(params=(3, 4, 5)):
    return InstanceFamily(
        "leaf-coloring",
        lambda d: leaf_coloring_instance(d, rng=random.Random(d)),
        params,
    )


def counting_spec(executed, label="walk"):
    """A sweep spec whose measure records every live execution."""
    def measure(instance, param):
        executed.append(param)
        return float(instance.graph.num_nodes)

    return SweepSpec(label, "Θ(n)", leaf_family(), measure=measure)


class TestStoreServedSweeps:
    def test_rerun_executes_zero_points_bitwise_identical(self, tmp_result_store):
        store = tmp_result_store
        executed = []
        first = run_sweep(counting_spec(executed), store=store)
        assert len(executed) == 3
        assert not first.from_store

        second = run_sweep(counting_spec(executed), store=store)
        assert len(executed) == 3  # nothing re-executed
        assert second.from_store
        assert second.ns == first.ns
        assert second.costs == first.costs
        assert [p.param for p in second.points] == [
            p.param for p in first.points
        ]
        assert [p.detail for p in second.points] == [
            p.detail for p in first.points
        ]
        assert [p.elapsed for p in second.points] == [
            p.elapsed for p in first.points
        ]

    def test_partial_store_executes_only_missing_points(self, tmp_result_store):
        store = tmp_result_store
        executed = []
        spec = counting_spec(executed)
        run_sweep(spec, store=store)
        # Drop the middle point from the store; only it re-executes.
        import sqlite3

        with sqlite3.connect(store.path) as conn:
            conn.execute("DELETE FROM sweep_points WHERE point_index = 1")
        executed.clear()
        result = run_sweep(counting_spec(executed), store=store)
        assert executed == [4]
        assert not result.from_store  # partially served is not "from store"
        assert store.sweep_points(spec.cache_key())[1]["n"] == 31

    def test_describe_mismatch_neither_serves_nor_records(self, tmp_result_store):
        store = tmp_result_store
        executed = []
        spec = counting_spec(executed)
        key = spec.cache_key()
        # Poison the store: same spec key, different describe payload.
        store.record_sweep_meta(key, "walk", {"poisoned": True}, 3)
        store.record_sweep_point(
            key, 0, param_repr="3", n=1, cost=-1.0, detail=None, elapsed=0.0,
        )
        result = run_sweep(spec, store=store)
        assert len(executed) == 3  # nothing served from the poisoned rows
        assert not result.from_store
        assert result.costs[0] != -1.0
        # And nothing was recorded over the conflicting registration.
        assert store.sweep_points(key)[0]["cost"] == -1.0
        assert len(store.sweep_points(key)) == 1

    def test_registered_algorithm_sweep_round_trips(self, tmp_result_store):
        # Same flow through a registry algorithm (bytecode-fingerprinted
        # describe) rather than a local measure closure.
        store = tmp_result_store
        spec = SweepSpec(
            "walk", "Θ(log n)", leaf_family(), "volume", RWtoLeaf, seed=7
        )
        first = run_sweep(spec, store=store)
        second = run_sweep(spec, store=store)
        assert second.from_store
        assert second.costs == first.costs


class TestStoreServedTrials:
    def _cell(self):
        load_components()
        algo = ALGORITHMS.get("leaf-coloring/rw-to-leaf")
        family = FAMILIES.get("leaf-coloring")
        instance = family.instance(family.quick[0])
        return LeafColoring(), instance, algo

    def test_rerun_replays_from_store(self, tmp_result_store):
        store = tmp_result_store
        problem, instance, algo = self._cell()
        policy = TrialPolicy.fixed(16)
        first = run_trials(
            problem, instance, algo.make(), policy, base_seed=7, store=store,
        )
        lines = []
        second = run_trials(
            problem, instance, algo.make(), policy, base_seed=7,
            store=store, progress=lines.append,
        )
        assert second.trials == first.trials == 16
        assert second.verdicts == first.verdicts
        assert second.rate == first.rate
        assert any("replayed 16" in line for line in lines)

    def test_different_seed_is_a_different_run(self, tmp_result_store):
        store = tmp_result_store
        problem, instance, algo = self._cell()
        policy = TrialPolicy.fixed(8)
        run_trials(
            problem, instance, algo.make(), policy, base_seed=7, store=store,
        )
        run_trials(
            problem, instance, algo.make(), policy, base_seed=8, store=store,
        )
        assert store.summary()["trial_runs"] == 2
        assert store.summary()["trials"] == 16
