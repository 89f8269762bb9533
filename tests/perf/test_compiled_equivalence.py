"""The compiled fast path must be bitwise-identical to the reference path.

PR 3's contract: ``CompiledOracle`` + ``FrozenPortGraph`` + incremental
``DIST`` may change wall-clock behavior only.  Every registry-enumerated
problem x algorithm x family cell is run on both engines and compared on
the full observable surface: per-node outputs, per-node
:class:`~repro.model.probe.CostProfile` (volume, distance, queries,
random_bits, truncated) — including truncated (Remark 3.11) and
randomized runs, on every backend.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec.backends import (
    ProcessPoolBackend,
    SerialBackend,
    get_backend,
)
from repro.faults.plan import FaultInjector, FaultPlan
from repro.model.runner import run_algorithm, solve_and_check
from repro.registry import iter_compatible, load_components

load_components()
CELLS = list(iter_compatible())
CELL_IDS = ["{}@{}".format(c.algorithm.name, c.family.name) for c in CELLS]

REFERENCE = SerialBackend(compiled=False)
# Held across examples, so a run usually replaces the oracle the previous
# example's instance left behind.
HELD = SerialBackend()


def _runs_match(reference, candidate):
    """Bitwise comparison of two RunResults over the observable surface."""
    assert candidate.outputs == reference.outputs
    assert candidate.profiles == reference.profiles
    assert list(candidate.outputs) == list(reference.outputs)


def _run(cell, instance, backend, **kwargs):
    return run_algorithm(
        instance,
        cell.algorithm.make(),
        seed=cell.algorithm.seed,
        backend=backend,
        **kwargs,
    )


class TestRegistryMatrix:
    """Every compatible cell, smallest quick grid point, both engines."""

    @pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
    def test_compiled_equals_reference(self, cell):
        param = cell.family.quick[0]
        instance = cell.family.instance(param)
        reference = _run(cell, instance, REFERENCE)
        compiled = _run(cell, instance, SerialBackend())
        _runs_match(reference, compiled)

    @pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
    def test_verdicts_match_on_largest_quick_point(self, cell):
        param = cell.family.quick[-1]
        instance = cell.family.instance(param)
        problem = cell.problem.make()
        ref_report = solve_and_check(
            problem,
            instance,
            cell.algorithm.make(),
            seed=cell.algorithm.seed,
            backend=REFERENCE,
        )
        fast_report = solve_and_check(
            problem,
            instance,
            cell.algorithm.make(),
            seed=cell.algorithm.seed,
            backend=SerialBackend(),
        )
        assert fast_report.valid == ref_report.valid
        _runs_match(ref_report.run, fast_report.run)


class TestPropertyEquivalence:
    """Randomized sweep over cells, grid points, budgets, and backends."""

    @given(data=st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_cell_any_budget(self, data):
        cell = data.draw(st.sampled_from(CELLS), label="cell")
        param = data.draw(
            st.sampled_from(list(cell.family.quick)), label="param"
        )
        seed = data.draw(st.integers(min_value=0, max_value=3), label="seed")
        # Small volume budgets force the Remark 3.11 truncation path;
        # None exercises the unbounded path.
        max_volume = data.draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
            label="max_volume",
        )
        max_queries = data.draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
            label="max_queries",
        )
        fast_backend = data.draw(
            st.sampled_from(["fresh", "held"]), label="backend"
        )
        instance = cell.family.instance(param)
        algorithm = cell.algorithm.make()
        reference = run_algorithm(
            instance,
            algorithm,
            seed=seed,
            max_volume=max_volume,
            max_queries=max_queries,
            backend=REFERENCE,
        )
        compiled = run_algorithm(
            instance,
            algorithm,
            seed=seed,
            max_volume=max_volume,
            max_queries=max_queries,
            backend=SerialBackend() if fast_backend == "fresh" else HELD,
        )
        _runs_match(reference, compiled)
        if max_volume is not None or max_queries is not None:
            # Truncation flags are part of the profile comparison above;
            # spot-check they agree as a set too (clearer failure).
            assert compiled.truncated_nodes == reference.truncated_nodes


class TestBackendsShareTheFastPath:
    """The compiled path is identical across dispatch strategies."""

    CASES = [CELLS[0], CELLS[len(CELLS) // 2], CELLS[-1]]

    @pytest.mark.parametrize(
        "cell", CASES, ids=["{}@{}".format(c.algorithm.name, c.family.name)
                            for c in CASES]
    )
    def test_process_pool_matches_reference(self, cell):
        param = cell.family.quick[0]
        instance = cell.family.instance(param)
        reference = _run(cell, instance, REFERENCE)
        with ProcessPoolBackend(workers=2, chunk_size=2) as pool:
            pooled = _run(cell, instance, pool)
        _runs_match(reference, pooled)

    @pytest.mark.parametrize(
        "cell", CASES, ids=["{}@{}".format(c.algorithm.name, c.family.name)
                            for c in CASES]
    )
    @pytest.mark.parametrize(
        "publish_fails", [False, True], ids=["shm", "pickle"]
    )
    def test_process_transport_matches_reference(self, cell, publish_fails):
        """Both pool transports are bitwise-identical to the reference.

        A node run of a materialized instance goes by shared memory
        (published CSR segment + O(1) handle); an injected publish
        failure sends it by pickle instead.  Neither may change results.
        Leak-freedom is part of the contract: every dispatch unlinks its
        segment.
        """
        from repro.exec import shm

        param = cell.family.quick[0]
        instance = cell.family.instance(param)
        reference = _run(cell, instance, REFERENCE)
        injector = None
        if publish_fails:
            injector = FaultInjector(
                FaultPlan(kinds=("shm-publish-fail",), rate=1.0, max_faults=1)
            )
        with ProcessPoolBackend(
            workers=2, chunk_size=2, fault_injector=injector
        ) as pool:
            pooled = _run(cell, instance, pool)
            assert shm.published_segments() == []
            kinds = [event.kind for event in pool.fault_log]
        assert ("shm-publish" in kinds) == publish_fails
        _runs_match(reference, pooled)

    def test_serial_backend_keeps_compiled_oracle(self):
        cell = CELLS[0]
        instance = cell.family.instance(cell.family.quick[0])
        with SerialBackend() as serial:
            first = _run(cell, instance, serial)
            oracle = serial._oracle_for(instance)
            second = _run(cell, instance, serial)
            assert serial._oracle_for(instance) is oracle
        _runs_match(first, second)

    def test_reference_spec_resolves_to_uncompiled_serial(self):
        backend = get_backend("reference")
        assert isinstance(backend, SerialBackend)
        assert backend.compiled is False
        assert backend.oracle_mode == "reference"
        assert get_backend("serial").oracle_mode == "compiled"


class TestRandomizedTapeReads:
    """Randomized cells read identical tape bits on both engines."""

    RANDOMIZED = [c for c in CELLS if c.algorithm.randomized]

    @pytest.mark.parametrize(
        "cell",
        RANDOMIZED[:4],
        ids=["{}@{}".format(c.algorithm.name, c.family.name)
             for c in RANDOMIZED[:4]],
    )
    def test_random_bits_identical(self, cell):
        instance = cell.family.instance(cell.family.quick[0])
        reference = _run(cell, instance, REFERENCE)
        compiled = _run(cell, instance, SerialBackend())
        assert compiled.total_random_bits == reference.total_random_bits
        for node, profile in reference.profiles.items():
            assert compiled.profiles[node].random_bits == profile.random_bits
