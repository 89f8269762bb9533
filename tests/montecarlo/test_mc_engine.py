"""Engine behavior: policies, stopping, resume determinism, backends."""

import pickle
import random

import pytest

from repro.exec.backends import SerialBackend
from repro.graphs.generators import leaf_coloring_instance
from repro.model.runner import success_probability
from repro.montecarlo.engine import (
    STOP_BUDGET,
    STOP_CONVERGED,
    STOP_FIXED,
    FixedInstanceFactory,
    MonteCarloResult,
    TrialPolicy,
    run_trials,
)
from repro.problems.leaf_coloring import LeafColoring
from repro.registry import ALGORITHMS, load_components

load_components()
PROBLEM = LeafColoring()
INSTANCE = leaf_coloring_instance(4, rng=random.Random(4))


def _walker():
    return ALGORITHMS.get("leaf-coloring/rw-to-leaf").make()


class TestTrialPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialPolicy(min_trials=0)
        with pytest.raises(ValueError):
            TrialPolicy(min_trials=10, max_trials=5)
        with pytest.raises(ValueError):
            TrialPolicy(batch_size=0)
        with pytest.raises(ValueError):
            TrialPolicy(confidence=1.5)
        with pytest.raises(ValueError):
            TrialPolicy(tolerance=0.0)
        with pytest.raises(ValueError):
            TrialPolicy(method="wald")

    def test_fixed_helper_disables_early_stopping(self):
        policy = TrialPolicy.fixed(24)
        assert policy.max_trials == 24
        assert policy.batch_size == 24
        assert policy.early_stop is False

    def test_with_early_stop(self):
        policy = TrialPolicy.fixed(8).with_early_stop(True)
        assert policy.early_stop is True
        assert policy.max_trials == 8

    def test_describe_round_trips_as_json(self):
        import json

        described = TrialPolicy().describe()
        assert json.loads(json.dumps(described)) == described


class TestFixedCountSemantics:
    def test_matches_legacy_success_probability(self):
        """early_stop=off reproduces the legacy fixed-count estimate."""
        policy = TrialPolicy.fixed(20)
        result = run_trials(
            PROBLEM, INSTANCE, _walker(), policy, base_seed=7
        )
        legacy = success_probability(
            PROBLEM,
            FixedInstanceFactory(INSTANCE),
            _walker(),
            20,
            base_seed=7,
        )
        assert result.stopped == STOP_FIXED
        assert result.trials == 20
        assert result.rate == legacy
        assert [o.seed for o in result.outcomes] == list(range(7, 27))

    def test_batching_does_not_change_outcomes(self):
        a = run_trials(
            PROBLEM, INSTANCE, _walker(), TrialPolicy.fixed(12), base_seed=3
        )
        b = run_trials(
            PROBLEM,
            INSTANCE,
            _walker(),
            TrialPolicy(min_trials=1, max_trials=12, batch_size=5,
                        early_stop=False),
            base_seed=3,
        )
        assert a.outcomes == b.outcomes


class TestEarlyStopping:
    def test_stops_converged_inside_tolerance(self):
        policy = TrialPolicy(
            min_trials=8, max_trials=64, batch_size=8, tolerance=0.1
        )
        result = run_trials(
            PROBLEM, INSTANCE, _walker(), policy, base_seed=7
        )
        assert result.stopped == STOP_CONVERGED
        assert result.trials < 64
        assert result.half_width() <= 0.1
        assert result.trials % 8 == 0  # stops only at batch boundaries

    def test_budget_exhaustion_reported(self):
        policy = TrialPolicy(
            min_trials=8, max_trials=8, batch_size=8, tolerance=0.0001
        )
        result = run_trials(
            PROBLEM, INSTANCE, _walker(), policy, base_seed=7
        )
        assert result.stopped == STOP_BUDGET
        assert result.trials == 8

    def test_adaptive_is_prefix_of_fixed(self):
        fixed = run_trials(
            PROBLEM, INSTANCE, _walker(), TrialPolicy.fixed(32), base_seed=7
        )
        adaptive = run_trials(
            PROBLEM,
            INSTANCE,
            _walker(),
            TrialPolicy(min_trials=8, max_trials=32, batch_size=8,
                        tolerance=0.1),
            base_seed=7,
        )
        assert adaptive.trials <= fixed.trials
        assert adaptive.outcomes == fixed.outcomes[: adaptive.trials]


class TestResume:
    def test_resume_is_bitwise_identical(self):
        policy = TrialPolicy.fixed(24)
        full = run_trials(
            PROBLEM, INSTANCE, _walker(), policy, base_seed=7
        )
        # Interrupt after 8 trials, then resume under the same policy.
        prefix = run_trials(
            PROBLEM,
            INSTANCE,
            _walker(),
            TrialPolicy(min_trials=1, max_trials=8, batch_size=8,
                        early_stop=False),
            base_seed=7,
        )
        partial = MonteCarloResult(policy=policy, base_seed=7)
        for outcome in prefix.outcomes:
            partial.record(outcome)
        resumed = run_trials(
            PROBLEM, INSTANCE, _walker(), policy, base_seed=7,
            resume=partial,
        )
        assert resumed.outcomes == full.outcomes
        assert resumed.rate == full.rate
        assert resumed.interval() == full.interval()
        assert resumed.volume_sketch.summary() == full.volume_sketch.summary()
        assert (
            resumed.distance_sketch.summary()
            == full.distance_sketch.summary()
        )

    def test_resume_of_complete_run_is_a_no_op(self):
        policy = TrialPolicy.fixed(8)
        done = run_trials(PROBLEM, INSTANCE, _walker(), policy, base_seed=1)
        again = run_trials(
            PROBLEM, INSTANCE, _walker(), policy, base_seed=1, resume=done
        )
        assert again.outcomes == done.outcomes

    def test_resume_rejects_mismatched_policy_or_seed(self):
        policy = TrialPolicy.fixed(8)
        done = run_trials(PROBLEM, INSTANCE, _walker(), policy, base_seed=1)
        with pytest.raises(ValueError, match="same policy"):
            run_trials(
                PROBLEM, INSTANCE, _walker(), TrialPolicy.fixed(16),
                base_seed=1, resume=done,
            )
        with pytest.raises(ValueError, match="same policy"):
            run_trials(
                PROBLEM, INSTANCE, _walker(), policy, base_seed=2,
                resume=done,
            )


class TestDispatch:
    def test_instance_and_factory_entry_points_agree(self):
        policy = TrialPolicy.fixed(6)
        by_instance = run_trials(
            PROBLEM, INSTANCE, _walker(), policy, base_seed=5
        )
        by_factory = run_trials(
            PROBLEM, FixedInstanceFactory(INSTANCE), _walker(), policy,
            base_seed=5,
        )
        assert by_instance.outcomes == by_factory.outcomes

    def test_backend_string_and_instance_specs(self):
        policy = TrialPolicy.fixed(6)
        serial = run_trials(
            PROBLEM, INSTANCE, _walker(), policy, base_seed=5,
            backend=SerialBackend(),
        )
        by_spec = run_trials(
            PROBLEM, INSTANCE, _walker(), policy, base_seed=5,
            backend="serial",
        )
        reference = run_trials(
            PROBLEM, INSTANCE, _walker(), policy, base_seed=5,
            backend="reference",
        )
        assert serial.outcomes == by_spec.outcomes == reference.outcomes

    def test_fixed_instance_compiles_oracle_once_per_run(self, monkeypatch):
        """The streaming loop amortizes compilation across batches.

        The serial backend keeps the oracle of the instance it ran
        last, so every batch of a fixed instance reuses one compile.
        """
        import repro.exec.backends as backends

        calls = []
        real = backends.as_oracle

        def counting(instance, mode="auto"):
            calls.append(instance)
            return real(instance, mode=mode)

        monkeypatch.setattr(backends, "as_oracle", counting)
        run_trials(
            PROBLEM,
            INSTANCE,
            _walker(),
            TrialPolicy(min_trials=4, max_trials=12, batch_size=4,
                        early_stop=False),
            base_seed=1,
        )
        assert len(calls) == 1

    def test_fixed_instance_factory_pickles(self):
        factory = FixedInstanceFactory(INSTANCE)
        clone = pickle.loads(pickle.dumps(factory))
        assert clone(0).name == INSTANCE.name

    def test_string_spec_pool_backend_is_closed(self, monkeypatch):
        """Backends built from a string spec are owned by the run."""
        import repro.exec.backends as backends

        closed = []
        original = backends.ProcessPoolBackend.close

        def counting(self):
            closed.append(self)
            original(self)

        monkeypatch.setattr(backends.ProcessPoolBackend, "close", counting)
        run_trials(
            PROBLEM, INSTANCE, _walker(), TrialPolicy.fixed(4),
            base_seed=1, backend="process:2",
        )
        assert closed

    def test_string_spec_pool_closed_on_pre_loop_exception(
        self, monkeypatch
    ):
        """Even failures before the first batch must tear the pool down.

        A resume-validation error fires after the backend has been
        constructed but before any trial runs; the owned pool (and any
        shared-memory segment it published) must still be closed.
        """
        import repro.exec.backends as backends

        closed = []
        original = backends.ProcessPoolBackend.close

        def counting(self):
            closed.append(self)
            original(self)

        monkeypatch.setattr(backends.ProcessPoolBackend, "close", counting)
        stale = run_trials(
            PROBLEM, INSTANCE, _walker(), TrialPolicy.fixed(4), base_seed=1
        )
        closed.clear()
        with pytest.raises(ValueError, match="resume"):
            run_trials(
                PROBLEM, INSTANCE, _walker(), TrialPolicy.fixed(4),
                base_seed=2, backend="process:2", resume=stale,
            )
        assert closed

    def test_progress_lines(self):
        lines = []
        run_trials(
            PROBLEM, INSTANCE, _walker(),
            TrialPolicy(min_trials=4, max_trials=8, batch_size=4,
                        early_stop=False),
            base_seed=1, progress=lines.append,
        )
        assert len(lines) == 2
        assert "trials=4" in lines[0]
        assert "ci=" in lines[1]

    def test_estimate_success_probability_defaults(self):
        from repro.montecarlo.engine import estimate_success_probability

        result = estimate_success_probability(
            PROBLEM, INSTANCE, _walker(), base_seed=7
        )
        assert result.policy == TrialPolicy()
        assert result.trials >= TrialPolicy().min_trials
        explicit = estimate_success_probability(
            PROBLEM, INSTANCE, _walker(), TrialPolicy.fixed(4), base_seed=7
        )
        assert explicit.trials == 4

    def test_payload_shape(self):
        result = run_trials(
            PROBLEM, INSTANCE, _walker(), TrialPolicy.fixed(4), base_seed=1
        )
        payload = result.to_payload()
        assert payload["trials"] == 4
        assert 0.0 <= payload["ci_low"] <= payload["rate"]
        assert payload["rate"] <= payload["ci_high"] <= 1.0
        assert payload["stopped"] == STOP_FIXED
        assert set(payload["volume"]) == {"count", "min", "p50", "p90", "max"}
