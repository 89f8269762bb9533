"""Entry points close the backends they build from a spec.

``run_algorithm``, ``solve_and_check``, ``success_probability``,
``run_sweep``, ``run_sweeps``, ``run_trials`` and the disjointness
referee's re-run check accept a backend object, a spec string or
``None``.  A spec builds a fresh backend that only the entry point
holds, so it must close it before returning: a process pool left open
keeps its workers alive until the cyclic garbage collector finds it.
Each test runs its entry point on ``"process:2"`` with the collector
off and checks that the pool ran work (the referee's one-node re-run
runs in-process, so not there), that the entry point closed it, and
that no worker outlives the call.  ``owned_backend`` states the rule
once.
"""

import gc
import multiprocessing
import random

import pytest

from repro.adversary.disjointness import Prop49Referee
from repro.algorithms.leaf_coloring_algs import RWtoLeaf
from repro.exec.backends import (
    FixedInstanceFactory,
    ProcessPoolBackend,
    SerialBackend,
    owned_backend,
)
from repro.exec.sweep import InstanceFamily, SweepSpec, run_sweep, run_sweeps
from repro.graphs.generators import leaf_coloring_instance
from repro.model.runner import (
    run_algorithm,
    solve_and_check,
    success_probability,
)
from repro.montecarlo.engine import TrialPolicy, run_trials
from repro.problems.leaf_coloring import LeafColoring

SPEC = "process:2"


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _instance():
    return leaf_coloring_instance(6, rng=random.Random(6))


def _sweep_spec():
    family = InstanceFamily(
        "leaf-coloring",
        lambda d: leaf_coloring_instance(d, rng=random.Random(d)),
        [4, 5],
    )
    return SweepSpec("walk", "Θ(log n)", family, "volume", RWtoLeaf, seed=1)


@pytest.fixture
def closed(monkeypatch):
    """Every process-pool backend closed in the test."""
    closed = []
    close = ProcessPoolBackend.close

    def counted(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(ProcessPoolBackend, "close", counted)
    return closed


def _assert_closed(closed, submissions=None):
    if submissions is not None:
        assert submissions, "the pool ran nothing"
    assert len(closed) == 1
    assert multiprocessing.active_children() == []


class TestEntryPointsCloseTheirPools:
    def test_run_algorithm(self, no_gc, closed, submissions):
        run_algorithm(_instance(), RWtoLeaf(), seed=1, backend=SPEC)
        _assert_closed(closed, submissions)

    def test_solve_and_check(self, no_gc, closed, submissions):
        report = solve_and_check(
            LeafColoring(), _instance(), RWtoLeaf(), seed=1, backend=SPEC
        )
        assert report.valid
        _assert_closed(closed, submissions)

    def test_success_probability(self, no_gc, closed, submissions):
        rate = success_probability(
            LeafColoring(),
            FixedInstanceFactory(_instance()),
            RWtoLeaf(),
            trials=4,
            backend=SPEC,
        )
        assert rate == 1.0
        _assert_closed(closed, submissions)

    def test_run_sweep(self, no_gc, closed, submissions):
        run_sweep(_sweep_spec(), backend=SPEC)
        _assert_closed(closed, submissions)

    def test_run_sweeps(self, no_gc, closed, submissions):
        run_sweeps([_sweep_spec()], backend=SPEC)
        _assert_closed(closed, submissions)

    def test_run_trials(self, no_gc, closed, submissions):
        policy = TrialPolicy(
            max_trials=4, min_trials=4, batch_size=4, early_stop=False
        )
        result = run_trials(
            LeafColoring(), _instance(), RWtoLeaf(), policy, backend=SPEC
        )
        assert result.trials == 4
        _assert_closed(closed, submissions)

    def test_disjointness_rerun_check(self, no_gc, closed):
        referee = Prop49Referee()
        assert referee.verify(referee.run(2), backend=SPEC)
        _assert_closed(closed)


class _TrackedBackend(SerialBackend):
    def __init__(self):
        super().__init__()
        self.closed = 0

    def close(self):
        self.closed += 1
        super().close()


class TestOwnedBackend:
    def test_a_backend_object_stays_open(self):
        backend = _TrackedBackend()
        with owned_backend(backend) as engine:
            assert engine is backend
        run_algorithm(_instance(), RWtoLeaf(), seed=1, backend=backend)
        assert backend.closed == 0

    def test_a_built_backend_closes_on_error(self, monkeypatch):
        built = _TrackedBackend()
        monkeypatch.setattr(
            "repro.exec.backends.get_backend", lambda spec=None: built
        )
        with pytest.raises(RuntimeError):
            with owned_backend("serial"):
                raise RuntimeError("boom")
        assert built.closed == 1
