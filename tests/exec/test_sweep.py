"""Sweep orchestrator: declarative specs, store-served points, reporting."""

import random

import pytest

from repro.algorithms.leaf_coloring_algs import (
    LeafColoringDistanceSolver,
    LeafColoringFullGather,
    RWtoLeaf,
)
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.exec.sweep import (
    InstanceFamily,
    SweepSpec,
    run_sweep,
    run_sweeps,
)
from repro.graphs.generators import leaf_coloring_instance


def leaf_family(params=(3, 4, 5)):
    return InstanceFamily(
        "leaf-coloring",
        lambda d: leaf_coloring_instance(d, rng=random.Random(d)),
        params,
    )


class TestInstanceFamily:
    def test_memoizes_builds(self):
        builds = []

        def factory(d):
            builds.append(d)
            return leaf_coloring_instance(d)

        family = InstanceFamily("leaf", factory, [3, 4])
        a = family.instance(3)
        b = family.instance(3)
        assert a is b
        family.instances()
        assert builds == [3, 4]
        family.clear()
        family.instance(3)
        assert builds == [3, 4, 3]

    def test_list_params_hashable(self):
        family = InstanceFamily(
            "leaf", lambda p: leaf_coloring_instance(p[0]), [[3, 0], [4, 1]]
        )
        assert family.instance([3, 0]) is family.instance([3, 0])


class TestSweepSpec:
    def test_requires_algorithm_or_measure(self):
        with pytest.raises(ValueError):
            SweepSpec("x", "Θ(n)", leaf_family())

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            SweepSpec("x", "Θ(n)", leaf_family(), "rounds", RWtoLeaf)

    def test_cache_key_stable_and_sensitive(self):
        family = leaf_family()
        a = SweepSpec("x", "Θ(n)", family, "volume", RWtoLeaf, seed=1)
        b = SweepSpec("x", "Θ(n)", family, "volume", RWtoLeaf, seed=1)
        c = SweepSpec("x", "Θ(n)", family, "volume", RWtoLeaf, seed=2)
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()


class TestRunSweep:
    def test_measures_all_points(self):
        spec = SweepSpec(
            "walk volume", "Θ(log n)", leaf_family(), "volume", RWtoLeaf,
            seed=7, candidates=["log n", "n"],
        )
        result = run_sweep(spec)
        assert len(result.points) == 3
        assert result.ns == [15, 31, 63]
        assert all(c >= 1 for c in result.costs)
        assert result.fitted().best == "log n"
        assert "claimed" in result.format_row()

    def test_nodes_selector(self):
        spec = SweepSpec(
            "root gather", "Θ(n)", leaf_family(), "volume",
            LeafColoringFullGather,
            nodes=lambda inst, d: [inst.meta["root"]],
        )
        result = run_sweep(spec)
        assert result.costs == [15.0, 31.0, 63.0]

    def test_custom_measure(self):
        spec = SweepSpec(
            "graph size", "Θ(n)", leaf_family(),
            measure=lambda inst, d: inst.graph.num_nodes,
        )
        result = run_sweep(spec)
        assert result.costs == result.ns

    def test_backend_equivalence(self):
        spec = SweepSpec(
            "walk volume", "Θ(log n)", leaf_family(), "volume", RWtoLeaf,
            seed=3,
        )
        serial = run_sweep(spec, SerialBackend())
        with ProcessPoolBackend(workers=2, chunk_size=8) as pool:
            parallel = run_sweep(spec, pool)
        assert serial.costs == parallel.costs

    def test_progress_reporting(self):
        lines = []
        spec = SweepSpec(
            "walk", "Θ(log n)", leaf_family((3, 4)), "volume", RWtoLeaf
        )
        run_sweep(spec, progress=lines.append)
        assert len(lines) == 2
        assert "[walk] 1/2" in lines[0]

    def test_run_sweeps_batch(self):
        family = leaf_family()
        results = run_sweeps([
            SweepSpec("dist", "Θ(log n)", family, "distance",
                      LeafColoringDistanceSolver),
            SweepSpec("vol", "Θ(log n)", family, "volume", RWtoLeaf),
        ])
        assert [r.spec.label for r in results] == ["dist", "vol"]


class TestStoreHitReporting:
    """Store-served sweeps must not be counted as executed.

    A served result costs no measurements, so the run_sweeps summary
    line reports store hits separately from executed sweeps.
    """

    def _spec(self):
        return SweepSpec(
            "walk", "Θ(log n)", leaf_family((3, 4)), "volume", RWtoLeaf,
            seed=7,
        )

    def test_warm_store_reports_zero_executed(self, tmp_result_store):
        store = tmp_result_store
        run_sweeps([self._spec()], store=store)  # warm the store
        lines = []
        results = run_sweeps([self._spec()], store=store,
                             progress=lines.append)
        assert all(r.from_store for r in results)
        assert "sweeps: 0 executed, 1 store hit" in lines[-1]

    def test_cold_store_reports_all_executed(self, tmp_result_store):
        lines = []
        run_sweeps([self._spec()], store=tmp_result_store,
                   progress=lines.append)
        assert "sweeps: 1 executed, 0 store hits" in lines[-1]

    def test_mixed_batch_splits_the_counts(self, tmp_result_store):
        store = tmp_result_store
        stored_spec = self._spec()
        run_sweeps([stored_spec], store=store)
        fresh_spec = SweepSpec(
            "walk-fresh", "Θ(log n)", leaf_family((3, 4)), "volume",
            RWtoLeaf, seed=8,
        )
        lines = []
        results = run_sweeps([stored_spec, fresh_spec], store=store,
                             progress=lines.append)
        assert [r.from_store for r in results] == [True, False]
        assert "sweeps: 1 executed, 1 store hit" in lines[-1]


class TestSuccessRateMetric:
    """SweepSpec trial-policy fields: the Monte-Carlo sweep metric."""

    def _spec(self, policy=None, **kwargs):
        from repro.montecarlo.engine import TrialPolicy
        from repro.problems.leaf_coloring import LeafColoring

        return SweepSpec(
            "walk success", "Θ(1)", leaf_family((3, 4)), "success_rate",
            RWtoLeaf, seed=7,
            problem_factory=LeafColoring,
            trial_policy=policy or TrialPolicy(
                min_trials=4, max_trials=16, batch_size=4, tolerance=0.15
            ),
            **kwargs,
        )

    def test_measures_rates_with_detail(self):
        result = run_sweep(self._spec())
        assert all(0.0 <= c <= 1.0 for c in result.costs)
        for point in result.points:
            assert point.detail is not None
            assert point.detail["trials"] >= 4
            assert point.detail["ci_low"] <= point.cost
            assert point.cost <= point.detail["ci_high"]
            assert point.detail["stopped"] in ("converged", "budget")

    def test_rate_matches_direct_engine_call(self):
        from repro.montecarlo.engine import TrialPolicy, run_trials
        from repro.problems.leaf_coloring import LeafColoring

        policy = TrialPolicy.fixed(8)
        result = run_sweep(self._spec(policy=policy))
        family = leaf_family((3, 4))
        for point, param in zip(result.points, (3, 4)):
            direct = run_trials(
                LeafColoring(), family.instance(param), RWtoLeaf(), policy,
                base_seed=7,
            )
            assert point.cost == direct.rate
            assert point.detail["trials"] == direct.trials

    def test_detail_round_trips_through_store(self, tmp_result_store):
        spec = self._spec()
        measured = run_sweep(spec, store=tmp_result_store)
        stored = run_sweep(spec, store=tmp_result_store)
        assert stored.from_store
        assert [p.detail for p in stored.points] == [
            p.detail for p in measured.points
        ]

    def test_policy_change_invalidates_store_key(self, tmp_result_store):
        from repro.montecarlo.engine import TrialPolicy

        run_sweep(self._spec(), store=tmp_result_store)
        other = run_sweep(
            self._spec(policy=TrialPolicy(
                min_trials=4, max_trials=16, batch_size=4, tolerance=0.05
            )),
            store=tmp_result_store,
        )
        assert not other.from_store

    def test_success_rate_requires_policy_and_problem(self):
        from repro.montecarlo.engine import TrialPolicy
        from repro.problems.leaf_coloring import LeafColoring

        with pytest.raises(ValueError, match="needs a problem_factory"):
            SweepSpec(
                "x", "Θ(1)", leaf_family(), "success_rate", RWtoLeaf,
            )
        with pytest.raises(ValueError, match="only applies"):
            SweepSpec(
                "x", "Θ(1)", leaf_family(), "volume", RWtoLeaf,
                problem_factory=LeafColoring,
                trial_policy=TrialPolicy(),
            )
        # A custom measure bypasses the engine entirely, so pairing it
        # with a trial_policy is a contradiction whatever the metric.
        with pytest.raises(ValueError, match="custom measure"):
            SweepSpec(
                "x", "Θ(1)", leaf_family(), "success_rate",
                measure=lambda inst, d: 1.0,
                trial_policy=TrialPolicy(),
            )
        # Validity is over every node's output, so a start-node
        # selector would be silently ignored — reject it up front.
        with pytest.raises(ValueError, match="nodes selector"):
            SweepSpec(
                "x", "Θ(1)", leaf_family(), "success_rate", RWtoLeaf,
                nodes=lambda inst, d: [1],
                problem_factory=LeafColoring,
                trial_policy=TrialPolicy(),
            )


class TestStoreKey:
    def test_round_trip(self, tmp_result_store):
        spec = SweepSpec(
            "walk", "Θ(log n)", leaf_family(), "volume", RWtoLeaf, seed=7
        )
        measured = run_sweep(spec, store=tmp_result_store)
        assert not measured.from_store
        hits = []
        stored = run_sweep(spec, store=tmp_result_store,
                           progress=hits.append)
        assert stored.from_store
        assert stored.ns == measured.ns
        assert stored.costs == measured.costs
        assert [p.param for p in stored.points] == [3, 4, 5]
        assert any("stored point restored" in line for line in hits)

    def test_spec_change_invalidates(self, tmp_result_store):
        family = leaf_family()
        run_sweep(
            SweepSpec("walk", "Θ(log n)", family, "volume", RWtoLeaf, seed=7),
            store=tmp_result_store,
        )
        other = run_sweep(
            SweepSpec("walk", "Θ(log n)", family, "volume", RWtoLeaf, seed=8),
            store=tmp_result_store,
        )
        assert not other.from_store

    def test_measure_body_edit_invalidates(self, tmp_result_store):
        family = leaf_family()
        first = run_sweep(
            SweepSpec("m", "Θ(n)", family,
                      measure=lambda inst, d: inst.graph.num_nodes),
            store=tmp_result_store,
        )
        # Same label/family/qualname, different body: must re-measure.
        second = run_sweep(
            SweepSpec("m", "Θ(n)", family,
                      measure=lambda inst, d: 2 * inst.graph.num_nodes),
            store=tmp_result_store,
        )
        assert not second.from_store
        assert second.costs == [2 * c for c in first.costs]

    def test_mangled_registration_remeasures(self, tmp_result_store):
        import json
        import sqlite3

        spec = SweepSpec(
            "walk", "Θ(log n)", leaf_family(), "volume", RWtoLeaf
        )
        first = run_sweep(spec, store=tmp_result_store)
        with sqlite3.connect(tmp_result_store.path) as conn:
            conn.execute(
                "UPDATE sweeps SET describe_json = ?",
                (json.dumps({"mangled": True}),),
            )
        result = run_sweep(spec, store=tmp_result_store)
        assert not result.from_store
        assert result.costs == first.costs


class TestJsonifyKeys:
    """PR 9 satellite: non-string detail keys normalize consistently."""

    def test_int_keyed_detail_round_trips_through_store(
        self, tmp_result_store
    ):
        # A detail dict keyed by ints (e.g. per-node histograms) must
        # come back from the store identical to the freshly-measured
        # result instead of mismatching forever on the str-keyed copy.
        from repro.exec.sweep import _jsonify

        detail = {3: "a", 10: "b", True: "t"}
        assert _jsonify(detail) == {"3": "a", "10": "b", "true": "t"}
        # json round trip equals direct normalization: both sides of
        # the store's describe comparison see the same document.
        import json as json_mod

        assert json_mod.loads(json_mod.dumps(detail)) == _jsonify(detail)

        from repro.exec.sweep import SweepPoint, _record_point_to_store

        store = tmp_result_store
        spec = SweepSpec(
            "int-keys", "Θ(n)", leaf_family((3,)),
            measure=lambda inst, d: float(inst.graph.num_nodes),
        )
        key = spec.cache_key()
        store.record_sweep_meta(
            key, spec.label, _jsonify(spec.describe()), 1
        )
        _record_point_to_store(store, key, 0, SweepPoint(
            param=3, n=15, cost=15.0, elapsed=0.0, detail=_jsonify(detail),
        ))
        restored = run_sweep(spec, store=store)
        assert restored.from_store
        assert restored.points[0].detail == _jsonify(detail)

    def test_key_collision_raises_instead_of_silent_overwrite(self):
        from repro.exec.sweep import _jsonify

        with pytest.raises(ValueError, match="collide"):
            _jsonify({1: "int", "1": "str"})
        with pytest.raises(ValueError, match="collide"):
            _jsonify({True: "bool", "true": "str"})

    def test_uncoercible_key_raises(self):
        from repro.exec.sweep import _jsonify

        with pytest.raises(TypeError):
            _jsonify({(1, 2): "tuple-key"})

    def test_describe_with_int_keys_hits_store(self, tmp_result_store):
        family = leaf_family()

        def measure(instance, param):
            return float(instance.graph.num_nodes)

        def spec_with_candidates():
            return SweepSpec(
                "c", "Θ(n)", family, measure=measure,
                candidates=["n", "log n"],
            )

        run_sweep(spec_with_candidates(), store=tmp_result_store)
        assert run_sweep(
            spec_with_candidates(), store=tmp_result_store
        ).from_store
