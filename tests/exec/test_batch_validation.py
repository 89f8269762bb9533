"""A fixed-instance trial batch validates through one topology.

``_trial_outcomes`` asks the backend for one topology per fixed-instance
batch — materializing an ``InstanceSpec`` once; a compiled serial
backend answers a materialized instance from its kept oracle — and
passes it through ``solve_and_check`` to every trial's ``validate``
(DESIGN.md §8.2).  The outcomes must equal a fresh validation per trial;
these tests count the materializations, compiles and topologies and pin
the outcomes.
"""

import hashlib

import pytest

from repro.algorithms.leaf_coloring_algs import RWtoLeaf
from repro.exec.backends import SerialBackend
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
        """One compile per instance change, one topology per trial of a
        per-trial factory and per batch of a fixed one, each over the
        instance its trial ran."""
        import repro.exec.backends as backends

        validated = []
        original_validate = LeafColoring.validate

        def spy_validate(self, instance, outputs, topology=None):
            validated.append(topology)
            return original_validate(self, instance, outputs, topology)

        ran = []
        original_run = SerialBackend.run

        def spy_run(self, instance, *args, **kwargs):
            ran.append(instance)
            return original_run(self, instance, *args, **kwargs)

        compiled = []
        real_as_oracle = backends.as_oracle

        def counting(instance, mode="auto"):
            compiled.append(instance)
            return real_as_oracle(instance, mode=mode)

        monkeypatch.setattr(LeafColoring, "validate", spy_validate)
        monkeypatch.setattr(SerialBackend, "run", spy_run)
        monkeypatch.setattr(backends, "as_oracle", counting)
        family = FAMILIES.get("leaf-coloring")
        first, second = family.instance(5), family.instance(4)
        with SerialBackend() as backend:
            backend.run_trial_batch(
                LeafColoring(),
                lambda trial: (first, second)[trial % 2],
                RWtoLeaf(),
                range(3),
            )
            # The kept oracle is replaced whenever the instance changes.
            assert compiled == [first, second, first]
            assert len({id(t) for t in validated}) == 3
            _assert_each_trial_reads_its_instance(ran, validated)
            ran.clear()
            validated.clear()
            result = run_trials(
                LeafColoring(), first, RWtoLeaf(), QUICK_POLICY,
                backend=backend,
            )
        # The held backend still holds ``first``: no compile, and one
        # topology per batch of 8.
        assert compiled == [first, second, first]
        assert len(validated) == result.trials == 16
        assert len({id(t) for t in validated}) == 2
        _assert_each_trial_reads_its_instance(ran, validated)


def _assert_each_trial_reads_its_instance(ran, validated):
    assert len(ran) == len(validated)
    for instance, topology in zip(ran, validated):
        assert topology.instance is instance
        for v in instance.graph.nodes():
            assert topology.label(v) is instance.label(v)
            assert topology.node_at(v, 1) == instance.graph.neighbor_at(v, 1)
