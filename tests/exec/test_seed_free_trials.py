"""Trials that read no random bit execute once per fixed-instance batch.

On a fixed instance the tape is the only input a seed reaches, so a
trial that read no random bit has the same outcome under every seed:
``_trial_outcomes`` gives the later trials of such a batch that outcome
with their own ``trial`` and ``seed`` (DESIGN.md §8.2).  The first class
pins the outcomes against the definition, a per-trial ``solve_and_check``
loop, on every registry cell and backend; the second counts executions.
"""

import pytest

from repro.exec.backends import (
    BatchBackend,
    FixedInstanceFactory,
    ProcessPoolBackend,
    SerialBackend,
    TrialOutcome,
)
from repro.model.runner import solve_and_check
from repro.registry import iter_compatible, load_components

load_components()
CELLS = list(iter_compatible())
CELL_IDS = [f"{c.algorithm.name}@{c.family.name}" for c in CELLS]
TRIALS = 6


def _cell(algorithm, family):
    for cell in CELLS:
        if (cell.algorithm.name, cell.family.name) == (algorithm, family):
            return cell
    raise LookupError(f"{algorithm}@{family} is not registered")


def per_trial_loop(cell, instance, trials, base_seed):
    """The definition: one ``solve_and_check`` per trial and seed."""
    problem = cell.problem.make()
    algorithm = cell.algorithm.make()
    outcomes = []
    for trial in range(trials):
        report = solve_and_check(
            problem, instance, algorithm, seed=base_seed + trial
        )
        run = report.run
        outcomes.append(
            TrialOutcome(
                trial=trial,
                seed=base_seed + trial,
                valid=bool(report.valid),
                max_volume=run.max_volume,
                max_distance=run.max_distance,
                max_queries=run.max_queries,
                random_bits=run.total_random_bits,
            )
        )
    return outcomes


@pytest.fixture(scope="module", params=["serial", "batch", "shm", "pickle"])
def backend(request):
    """Each backend once per module (a pool is expensive to fork)."""
    if request.param == "serial":
        yield SerialBackend()
    elif request.param == "batch":
        yield BatchBackend()
    else:
        # chunk_size=2 gives every worker chunk a trial to reuse.
        with ProcessPoolBackend(
            workers=2,
            chunk_size=2,
            shared_memory=request.param == "shm",
        ) as pool:
            yield pool


class TestOutcomesMatchTheDefinition:
    @pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
    def test_fixed_batch_equals_per_trial_loop(self, cell, backend):
        instance = cell.family.instance(cell.family.quick[0])
        base_seed = cell.algorithm.seed
        got = backend.run_trial_batch(
            cell.problem.make(),
            FixedInstanceFactory(instance),
            cell.algorithm.make(),
            range(TRIALS),
            base_seed=base_seed,
        )
        expected = per_trial_loop(cell, instance, TRIALS, base_seed)
        # Dataclass equality compares every field: trial, seed, verdict,
        # cost maxima and the random bits read.
        assert got == expected


class _CountingBackend(BatchBackend):
    """Counts whole-instance runs: one per executed trial."""

    def __init__(self) -> None:
        super().__init__()
        self.runs = 0

    def run(self, *args, **kwargs):
        self.runs += 1
        return super().run(*args, **kwargs)


def _count(cell, factory):
    backend = _CountingBackend()
    outcomes = backend.run_trial_batch(
        cell.problem.make(),
        factory,
        cell.algorithm.make(),
        range(TRIALS),
        base_seed=cell.algorithm.seed,
    )
    assert [o.trial for o in outcomes] == list(range(TRIALS))
    return backend.runs, outcomes


class TestExecutionCounts:
    @pytest.mark.parametrize(
        "algorithm, family",
        [
            ("cycle/2-coloring", "cycle"),
            ("leaf-coloring/full-gather", "random-tree-cyclic"),
            ("hierarchical-thc(2)/waypoint", "hierarchical-thc(2)"),
            ("hybrid-thc(2)/waypoint", "hybrid-thc(2)"),
            ("hh-thc(2,3)/waypoint", "hh-thc(2,3)"),
        ],
    )
    def test_seed_free_batch_executes_once(self, algorithm, family):
        cell = _cell(algorithm, family)
        instance = cell.family.instance(cell.family.quick[0])
        runs, outcomes = _count(cell, FixedInstanceFactory(instance))
        assert runs == 1
        assert all(o.random_bits == 0 for o in outcomes)
        assert [o.seed for o in outcomes] == [
            cell.algorithm.seed + t for t in range(TRIALS)
        ]

    def test_bit_reading_batch_executes_every_trial(self):
        cell = _cell("leaf-coloring/rw-to-leaf", "leaf-coloring")
        instance = cell.family.instance(cell.family.quick[0])
        runs, outcomes = _count(cell, FixedInstanceFactory(instance))
        assert runs == TRIALS
        assert all(o.random_bits > 0 for o in outcomes)

    def test_per_trial_factory_executes_every_trial(self):
        # A factory may hand each trial a different instance, so even a
        # deterministic cell executes every trial.
        cell = _cell("cycle/2-coloring", "cycle")
        instance = cell.family.instance(cell.family.quick[0])
        runs, _ = _count(cell, lambda trial: instance)
        assert runs == TRIALS
