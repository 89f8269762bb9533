"""Differential conformance: the MC engine vs fixed-count reference runs.

The contract of PR 5: with ``early_stop=off`` the streaming engine is
*bitwise identical* to the legacy fixed-count path — same per-trial
verdicts, same tape draws (total random bits consumed), same cost maxima
— for every registry-enumerated problem × algorithm × family cell and on
every execution backend.  The reference here is the definition itself: a
hand-rolled loop of :func:`~repro.model.runner.solve_and_check` calls at
seeds ``base_seed + trial`` on the uncompiled reference engine.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec.backends import (
    ProcessPoolBackend,
    SerialBackend,
    TrialOutcome,
)
from repro.model.runner import solve_and_check
from repro.montecarlo.engine import TrialPolicy, run_trials
from repro.registry import iter_compatible, load_components

load_components()
CELLS = list(iter_compatible())
CELL_IDS = ["{}@{}".format(c.algorithm.name, c.family.name) for c in CELLS]

REFERENCE = SerialBackend(compiled=False)
# One serial backend held across every cell: each run of a new instance
# must replace the oracle it kept from the previous cell.
HELD = SerialBackend()
TRIALS = 4


def reference_outcomes(cell, instance, trials, base_seed):
    """The fixed-count reference: the definition, spelled out by hand."""
    problem = cell.problem.make()
    outcomes = []
    for trial in range(trials):
        report = solve_and_check(
            problem,
            instance,
            cell.algorithm.make(),
            seed=base_seed + trial,
            backend=REFERENCE,
        )
        outcomes.append(
            TrialOutcome(
                trial=trial,
                seed=base_seed + trial,
                valid=bool(report.valid),
                max_volume=report.run.max_volume,
                max_distance=report.run.max_distance,
                max_queries=report.run.max_queries,
                random_bits=report.run.total_random_bits,
            )
        )
    return outcomes


def engine_outcomes(cell, instance, trials, base_seed, backend):
    result = run_trials(
        cell.problem.make(),
        instance,
        cell.algorithm.make(),
        TrialPolicy.fixed(trials),
        base_seed=base_seed,
        backend=backend,
    )
    return result.outcomes


class TestRegistryMatrix:
    """Every cell: engine (early_stop=off) == fixed-count reference."""

    @pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
    def test_engine_matches_reference_per_trial(self, cell):
        instance = cell.family.instance(cell.family.quick[0])
        base_seed = cell.algorithm.seed
        expected = reference_outcomes(cell, instance, TRIALS, base_seed)
        for backend in (SerialBackend(), HELD):
            got = engine_outcomes(
                cell, instance, TRIALS, base_seed, backend
            )
            # TrialOutcome equality covers verdicts, tape draws
            # (random_bits), and the per-trial cost maxima at once.
            assert got == expected, backend.name

    @pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
    def test_adaptive_verdicts_are_a_reference_prefix(self, cell):
        """Early stopping only truncates the stream, never rewrites it."""
        instance = cell.family.instance(cell.family.quick[0])
        base_seed = cell.algorithm.seed
        adaptive = run_trials(
            cell.problem.make(),
            instance,
            cell.algorithm.make(),
            TrialPolicy(min_trials=2, max_trials=TRIALS, batch_size=2,
                        tolerance=0.2),
            base_seed=base_seed,
        )
        expected = reference_outcomes(cell, instance, TRIALS, base_seed)
        assert adaptive.outcomes == expected[: adaptive.trials]


class TestProcessPool:
    """The pool fan-out on a cell sample (workers are expensive to fork)."""

    CASES = [CELLS[0], CELLS[len(CELLS) // 2], CELLS[-1]]

    @pytest.mark.parametrize(
        "cell",
        CASES,
        ids=["{}@{}".format(c.algorithm.name, c.family.name) for c in CASES],
    )
    def test_pool_matches_reference(self, cell):
        instance = cell.family.instance(cell.family.quick[0])
        base_seed = cell.algorithm.seed
        expected = reference_outcomes(cell, instance, 6, base_seed)
        with ProcessPoolBackend(workers=2, chunk_size=2) as pool:
            got = engine_outcomes(cell, instance, 6, base_seed, pool)
        assert got == expected


class TestPropertyConformance:
    """Randomized draws over cells, trial counts, seeds, and backends."""

    @given(data=st.data())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_cell_any_budget(self, data):
        cell = data.draw(st.sampled_from(CELLS), label="cell")
        param = data.draw(
            st.sampled_from(list(cell.family.quick)), label="param"
        )
        trials = data.draw(st.integers(min_value=1, max_value=5),
                           label="trials")
        base_seed = data.draw(st.integers(min_value=0, max_value=3),
                              label="base_seed")
        backend = data.draw(
            st.sampled_from(["serial", "reference"]),
            label="backend",
        )
        batch_size = data.draw(st.integers(min_value=1, max_value=trials),
                               label="batch_size")
        instance = cell.family.instance(param)
        expected = reference_outcomes(cell, instance, trials, base_seed)
        result = run_trials(
            cell.problem.make(),
            instance,
            cell.algorithm.make(),
            TrialPolicy(min_trials=1, max_trials=trials,
                        batch_size=batch_size, early_stop=False),
            base_seed=base_seed,
            backend=backend,
        )
        assert result.outcomes == expected
        assert result.rate == sum(o.valid for o in expected) / trials
