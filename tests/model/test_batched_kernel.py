"""The CSR gather kernel must replicate the scalar gather bit-for-bit.

DESIGN.md §9.3's contract: :meth:`CsrGatherKernel.ball` returns the same
:class:`~repro.model.views.Ball` — content *and* every dict insertion
order — and the same :class:`~repro.model.probe.CostProfile` as running
``gather_ball`` through the scalar probe engine, for every start node
and radius.  ``summarize`` agrees with ``ball`` on the flat summary.
"""

import random

import pytest

from repro.algorithms.generic import FullGatherAlgorithm
from repro.graphs.generators import (
    balanced_tree_instance,
    leaf_coloring_instance,
)
from repro.model.batched import CsrGatherKernel, gather_kernel
from repro.model.oracle import StaticOracle, compile_oracle
from repro.model.probe import ProbeAlgorithm, execute_at
from repro.model.views import gather_ball
from repro.registry import iter_compatible, load_components

load_components()
CELLS = list(iter_compatible())
FULL_GATHER = [
    c for c in CELLS if isinstance(c.algorithm.make(), FullGatherAlgorithm)
]


class _BallCapture(ProbeAlgorithm):
    """Scalar reference: run ``gather_ball`` and return the Ball itself."""

    name = "ball-capture"

    def __init__(self, radius: int) -> None:
        self.radius = radius

    def run(self, view):
        return gather_ball(view, self.radius)


def _instances():
    """A diverse sample: generator families plus registry quick points."""
    out = [
        balanced_tree_instance(3, rng=random.Random(1)),
        leaf_coloring_instance(4, rng=random.Random(2)),
    ]
    for cell in CELLS[:: max(1, len(CELLS) // 5)]:
        out.append(cell.family.instance(cell.family.quick[0]))
    return out


def _assert_balls_identical(scalar, batched):
    assert batched.center == scalar.center
    assert batched.radius == scalar.radius
    # Content equality *and* insertion-order equality, at every level.
    assert batched.distance == scalar.distance
    assert list(batched.distance) == list(scalar.distance)
    assert batched.info == scalar.info
    assert list(batched.info) == list(scalar.info)
    assert batched.adjacency == scalar.adjacency
    assert list(batched.adjacency) == list(scalar.adjacency)
    for node, row in scalar.adjacency.items():
        assert list(batched.adjacency[node]) == list(row)


class TestBallReplication:
    @pytest.mark.parametrize("radius", [0, 1, 2, 10**6])
    def test_ball_matches_scalar_gather(self, radius):
        for instance in _instances():
            oracle = compile_oracle(instance)
            kernel = oracle.gather_kernel()
            for node in instance.graph.nodes():
                scalar_ball, scalar_profile = execute_at(
                    oracle, _BallCapture(radius), node
                )
                ball, profile = kernel.ball(node, radius)
                _assert_balls_identical(scalar_ball, ball)
                assert profile == scalar_profile

    def test_summarize_agrees_with_ball(self):
        for instance in _instances():
            kernel = compile_oracle(instance).gather_kernel()
            radius = max(1, instance.n)
            for node in instance.graph.nodes():
                ball, profile = kernel.ball(node, radius)
                size, depth, queries = kernel.summarize(node, radius)
                assert size == len(ball.distance) == profile.volume
                assert depth == profile.distance
                assert queries == profile.queries


class TestDispatch:
    def test_compiled_oracle_memoizes_kernel(self):
        oracle = compile_oracle(balanced_tree_instance(2))
        kernel = gather_kernel(oracle)
        assert isinstance(kernel, CsrGatherKernel)
        assert gather_kernel(oracle) is kernel

    def test_reference_oracle_has_no_kernel(self):
        oracle = StaticOracle(balanced_tree_instance(2))
        assert gather_kernel(oracle) is None

    def test_full_gather_batch_falls_back_without_kernel(self):
        instance = balanced_tree_instance(2)
        algorithm = FullGatherAlgorithm(lambda local: {}, name="noop")
        assert algorithm.run_node_batch(StaticOracle(instance), []) is None

    def test_full_gather_cases_include_several_components(self):
        assert FULL_GATHER, "registry lost its full-gather algorithms"
        assert any(
            len(cell.family.instance(param).graph.connected_components()) > 1
            for cell in FULL_GATHER
            for param in cell.family.quick
        )

    @pytest.mark.parametrize(
        "cell, param",
        [
            pytest.param(
                cell,
                param,
                id=f"{cell.algorithm.name}@{cell.family.name}:{param!r}",
            )
            for cell in FULL_GATHER
            for param in cell.family.quick
        ],
    )
    def test_full_gather_batch_matches_scalar_runs(self, cell, param):
        """Each component is solved once; every node matches ``execute_at``.

        The batch is given all start nodes shuffled, and a contiguous
        strict subset of them (the shape of a process-pool chunk).
        """
        instance = cell.family.instance(param)
        oracle = compile_oracle(instance)
        scalar_algorithm = cell.algorithm.make()
        reference = scalar_algorithm._reference
        nodes = list(instance.graph.nodes())
        scalar = {
            node: execute_at(oracle, scalar_algorithm, node) for node in nodes
        }
        component = {
            v: index
            for index, members in enumerate(
                instance.graph.connected_components()
            )
            for v in members
        }
        shuffled = list(nodes)
        random.Random(repr(param)).shuffle(shuffled)
        chunk = nodes[len(nodes) // 3: 2 * len(nodes) // 3 + 1]
        assert 0 < len(chunk) < len(nodes)
        for batch in (shuffled, chunk):
            calls = []

            def counted(local):
                calls.append(local)
                return reference(local)

            algorithm = FullGatherAlgorithm(counted, name=scalar_algorithm.name)
            batched = algorithm.run_node_batch(oracle, batch)
            assert batched is not None
            assert [node for node, _, _ in batched] == batch
            for node, output, profile in batched:
                assert (output, profile) == scalar[node]
            assert len(calls) == len({component[v] for v in batch})
