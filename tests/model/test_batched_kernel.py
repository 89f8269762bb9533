"""The CSR gather kernel must replicate the scalar gather bit-for-bit.

DESIGN.md §9.3's contract: :meth:`CsrGatherKernel.ball` returns the same
:class:`~repro.model.views.Ball` — content *and* every dict insertion
order — and the same :class:`~repro.model.probe.CostProfile` as running
``gather_ball`` through the scalar probe engine, for every start node
and radius.  ``summarize`` agrees with ``ball`` on the flat summary, and
``eccentricities`` with ``summarize``'s depth on every full gather.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.generic import FullGatherAlgorithm
from repro.graphs.generators import (
    balanced_tree_instance,
    leaf_coloring_instance,
)
from repro.graphs.labelings import Instance, Labeling
from repro.graphs.port_graph import PortGraph
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


def _assert_eccentricities(instance, every_start=True):
    """``eccentricities`` == ``summarize`` depth on every component.

    With ``every_start`` each member of a component is also the start of
    an ``eccentricities`` call; otherwise only its first member is.
    """
    kernel = compile_oracle(instance).gather_kernel()
    radius = max(1, instance.n)
    for component in instance.graph.connected_components():
        depths = {v: kernel.summarize(v, radius)[1] for v in component}
        for start in component if every_start else component[:1]:
            assert kernel.eccentricities(start) == depths


@st.composite
def forests(draw):
    """Port graphs of several components: random trees, isolated nodes
    and 1- and 2-node paths, some trees with one extra edge, and some
    dangling ports."""
    sizes = draw(st.lists(st.integers(1, 10), min_size=1, max_size=4))
    ids = draw(st.permutations(range(1, sum(sizes) + 1)))
    graph = PortGraph(max_degree=sum(sizes) + 2)
    for v in ids:
        graph.add_node(v)

    def connect(u, v):
        graph.add_edge(u, graph.num_ports(u) + 1, v, graph.num_ports(v) + 1)

    first = 0
    for size in sizes:
        members = ids[first:first + size]
        first += size
        for i in range(1, size):
            connect(members[draw(st.integers(0, i - 1))], members[i])
        absent = [
            (u, v)
            for i, u in enumerate(members)
            for v in members[i + 1:]
            if graph.port_to(u, v) is None
        ]
        if absent and draw(st.booleans()):
            connect(*draw(st.sampled_from(absent)))
        if draw(st.booleans()):
            v = draw(st.sampled_from(members))
            graph.reserve_port(v, graph.num_ports(v) + 1)
    return Instance(graph=graph, labeling=Labeling(), name="forest")


class TestEccentricities:
    """One call gives every member its full-gather distance."""

    def test_sample_instances(self):
        for instance in _instances():
            _assert_eccentricities(instance)

    @pytest.mark.parametrize(
        "cell",
        FULL_GATHER,
        ids=[f"{c.algorithm.name}@{c.family.name}" for c in FULL_GATHER],
    )
    def test_full_gather_grid_points(self, cell):
        params = dict.fromkeys((*cell.family.quick, *cell.family.full))
        instances = [cell.family.instance(param) for param in params]
        small = [i for i in instances if i.graph.num_nodes <= 600]
        assert small
        for instance in small:
            _assert_eccentricities(instance, every_start=False)

    @given(forests())
    @settings(max_examples=150, deadline=None)
    def test_drawn_forests(self, instance):
        _assert_eccentricities(instance)

    @pytest.mark.parametrize(
        "edges, expected",
        [
            ([], {1: 0}),
            ([(1, 2)], {1: 1, 2: 1}),
            ([(1, 2), (2, 3)], {1: 2, 2: 1, 3: 2}),
            ([(1, 2), (2, 3), (1, 3)], {1: 1, 2: 1, 3: 1}),
        ],
        ids=["1-node", "2-path", "3-path", "triangle"],
    )
    def test_smallest_components(self, edges, expected):
        graph = PortGraph(max_degree=2)
        for v in expected:
            graph.add_node(v)
        for u, v in edges:
            graph.add_edge(
                u, graph.num_ports(u) + 1, v, graph.num_ports(v) + 1
            )
        instance = Instance(graph=graph, labeling=Labeling())
        kernel = compile_oracle(instance).gather_kernel()
        for start in expected:
            assert kernel.eccentricities(start) == expected


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
    def test_full_gather_batch_matches_scalar_runs(
        self, cell, param, monkeypatch
    ):
        """Each component is solved once; every node matches ``execute_at``.

        The batch is given all start nodes shuffled, a contiguous strict
        subset of them (the shape of a process-pool chunk), and a single
        start node.  ``eccentricities`` runs once per component with a
        second start node in the batch, and never for a component with
        one.
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
        ecc_calls = []
        eccentricities = CsrGatherKernel.eccentricities

        def counted_ecc(kernel, start):
            ecc_calls.append(component[start])
            return eccentricities(kernel, start)

        monkeypatch.setattr(CsrGatherKernel, "eccentricities", counted_ecc)
        for batch in (shuffled, chunk, nodes[:1]):
            calls = []
            ecc_calls.clear()

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
            starts = Counter(component[v] for v in batch)
            assert sorted(ecc_calls) == sorted(
                c for c, count in starts.items() if count > 1
            )
