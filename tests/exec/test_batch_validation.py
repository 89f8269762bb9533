"""A fixed-instance trial batch validates through one topology.

``_trial_outcomes`` builds one ``InstanceTopology`` per fixed-instance
batch — materializing an ``InstanceSpec`` once — and passes it through
``solve_and_check`` to every trial's ``validate`` (DESIGN.md §8.2).  The
outcomes must equal a fresh validation per trial; these tests count the
materializations and topologies and pin the outcomes.
"""

import hashlib

import pytest

from repro.algorithms.leaf_coloring_algs import RWtoLeaf
from repro.exec.backends import SerialBackend
from repro.graphs import tree_structure
from repro.model.implicit import InstanceSpec
from repro.montecarlo.engine import QUICK_POLICY, run_trials
from repro.problems.leaf_coloring import LeafColoring
from repro.registry import FAMILIES, load_components

load_components()


def _count_calls(monkeypatch, owner, attr):
    calls = [0]
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def _outcomes_digest(result):
    rows = [
        (o.trial, o.seed, o.valid, o.max_volume, o.max_distance,
         o.max_queries, o.random_bits)
        for o in result.outcomes
    ]
    return hashlib.blake2b(repr(rows).encode(), digest_size=8).hexdigest()


# ``_outcomes_digest`` of QUICK_POLICY estimates of rw-to-leaf on the
# leaf-coloring-hard spec, recorded while every trial materialized the
# spec and built its own topology.
SPEC_DIGESTS = {(6, 7): "3b1e8e033b5a5431", (7, 3): "b477ee59e960586e"}


class TestOneTopologyPerBatch:
    @pytest.mark.parametrize("param, base_seed", sorted(SPEC_DIGESTS))
    def test_spec_materializes_once_per_batch(
        self, param, base_seed, monkeypatch
    ):
        materialized = _count_calls(monkeypatch, InstanceSpec, "materialize")
        result = run_trials(
            LeafColoring(),
            InstanceSpec("leaf-coloring-hard", param),
            RWtoLeaf(),
            QUICK_POLICY,
            base_seed=base_seed,
        )
        # Two batches of 8 (the rate converges at the first look after
        # min_trials), so two materializations instead of 16.
        assert result.trials == 16
        assert materialized[0] == 2
        assert _outcomes_digest(result) == SPEC_DIGESTS[(param, base_seed)]

    def test_every_trial_reads_the_batch_topology(self, monkeypatch):
        topologies = []
        original = LeafColoring.validate

        def spy(self, instance, outputs, topology=None):
            topologies.append(topology)
            return original(self, instance, outputs, topology)

        monkeypatch.setattr(LeafColoring, "validate", spy)
        built = _count_calls(monkeypatch, tree_structure.InstanceTopology,
                             "__init__")
        instance = FAMILIES.get("leaf-coloring").instance(5)
        with SerialBackend() as backend:
            backend.run_trial_batch(
                LeafColoring(), lambda trial: instance, RWtoLeaf(), range(3)
            )
            assert built[0] == 3
            assert len({id(t) for t in topologies}) == 3
            topologies.clear()
            built[0] = 0
            result = run_trials(
                LeafColoring(), instance, RWtoLeaf(), QUICK_POLICY,
                backend=backend,
            )
        assert built[0] == 2
        assert len(topologies) == result.trials
        assert len({id(t) for t in topologies}) == 2
        assert all(t.instance is instance for t in topologies)
