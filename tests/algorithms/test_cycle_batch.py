"""The cycle algorithms' batch must equal the scalar engine per start node.

``TwoColoringGather``, ``ColeVishkinColoring`` and ``MISFromColoring``
answer a whole run on a port-uniform cycle with one scalar execution
(its profile is every start node's) and one pass over the successor ring
for the outputs (DESIGN.md §9.3).  These tests pin the outputs and every
``CostProfile`` field against per-node ``execute_at``, check that each
input the argument does not cover falls back to the scalar loop, and
count the scalar executions of a whole run.  The fallback inputs also
check that the scalar walks stay bounded and answer 0 off a cycle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.classic_algs import (
    ColeVishkinColoring,
    MISFromColoring,
    TwoColoringGather,
)
from repro.exec.backends import SerialBackend
from repro.graphs.builders import cycle_graph
from repro.graphs.generators import cycle_instance
from repro.graphs.labelings import Instance, Labeling, NodeLabel
from repro.graphs.port_graph import PortGraph
from repro.model.implicit import InstanceSpec
from repro.model.oracle import compile_oracle
from repro.model.probe import execute_at
from repro.model.runner import run_algorithm
from repro.registry import FAMILIES, load_components

load_components()

ALGORITHMS = (TwoColoringGather, ColeVishkinColoring, MISFromColoring)
POINTS = sorted(
    {
        (name, param)
        for name in ("cycle", "cycle-small")
        for param in FAMILIES.get(name).quick + FAMILIES.get(name).full
        if param <= 1024
    }
)


def _assert_batch_matches_scalar(oracle, algorithm, nodes):
    batched = algorithm.run_node_batch(oracle, nodes)
    assert batched is not None
    assert [node for node, _, _ in batched] == list(nodes)
    for node, output, profile in batched:
        assert (output, profile) == execute_at(oracle, algorithm, node)
    # Every start node owns its profile: a CostProfile is mutable.
    assert len({id(profile) for _, _, profile in batched}) == len(batched)


def _instance(graph, n=0):
    labeling = Labeling()
    for node in graph.nodes():
        labeling[node] = NodeLabel()
    return Instance(graph=graph, labeling=labeling, n=n)


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("family, param", POINTS)
    @pytest.mark.parametrize("make", ALGORITHMS, ids=lambda cls: cls.name)
    def test_registry_points(self, family, param, make):
        instance = FAMILIES.get(family).instance(param)
        nodes = list(instance.graph.nodes())
        random.Random(param).shuffle(nodes)
        _assert_batch_matches_scalar(compile_oracle(instance), make(), nodes)

    @given(
        n=st.integers(min_value=3, max_value=40),
        shuffle_ids=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        make=st.sampled_from(ALGORITHMS),
        id_bits=st.sampled_from([None, 3, 8, 200]),
    )
    @settings(max_examples=120, deadline=None)
    def test_drawn_cycles(self, n, shuffle_ids, seed, make, id_bits):
        # n = 3..40 spans cycles shorter and longer than the CV walk
        # window (T + 7 ahead, 4 behind); shuffled IDs come from
        # range(1, 4n + 1).
        instance = cycle_instance(
            n, rng=random.Random(seed), shuffle_ids=shuffle_ids
        )
        algorithm = make() if make is TwoColoringGather else make(id_bits)
        nodes = list(instance.graph.nodes())
        random.Random(seed).shuffle(nodes)
        _assert_batch_matches_scalar(compile_oracle(instance), algorithm, nodes)

    @pytest.mark.parametrize("make", ALGORITHMS, ids=lambda cls: cls.name)
    def test_implicit_cycle(self, make):
        spec = InstanceSpec("cycle-uniform", 64)
        batched = run_algorithm(spec, make())
        reference = run_algorithm(
            spec, make(), backend=SerialBackend(compiled=False)
        )
        assert batched.outputs == reference.outputs
        assert batched.profiles == reference.profiles


def _swapped_ports(n=8, node=4):
    graph = PortGraph(max_degree=3)
    for v in range(1, n + 1):
        graph.add_node(v)
    for v in range(1, n + 1):
        w = v % n + 1
        graph.add_edge(
            v, 1 if v == node else 2, w, 2 if w == node else 1
        )
    return _instance(graph)


def _path(n=8):
    graph = PortGraph(max_degree=3)
    for v in range(1, n + 1):
        graph.add_node(v)
    for v in range(1, n):
        graph.add_edge(v, 2, v + 1, 1)
    return _instance(graph)


def _two_cycles(a=5, b=6, n=0):
    graph = cycle_graph(a)
    for v in range(a + 1, a + b + 1):
        graph.add_node(v)
    for i in range(b):
        graph.add_edge(a + 1 + i, 2, a + 1 + (i + 1) % b, 1)
    return _instance(graph, n=n)


def _third_port(n=8):
    graph = cycle_graph(n)
    graph.add_edge(1, 3, n // 2 + 1, 3)
    return _instance(graph)


FALLBACKS = {
    "swapped-ports": lambda: (_swapped_ports(), None),
    "path": lambda: (_path(), None),
    "two-cycles": lambda: (_two_cycles(), None),
    "n-advertised-larger": lambda: (_instance(cycle_graph(8), n=9), None),
    # n start nodes on an 8-ring that n = 7 successor steps do not close.
    "n-advertised-smaller": lambda: (
        _instance(cycle_graph(8), n=7),
        [1, 2, 3, 4, 5, 6, 7],
    ),
    # A closed n-ring, and one of the n start nodes off it.
    "start-off-the-ring": lambda: (_two_cycles(5, 5, n=5), [1, 2, 3, 4, 6]),
    "third-port": lambda: (_third_port(), None),
    "partial-selection": lambda: (_instance(cycle_graph(8)), [3, 1, 5]),
    "single-node": lambda: (_instance(cycle_graph(8)), [6]),
    # n start nodes, all on a ring of n / 2 nodes.
    "repeated-short-ring": lambda: (_two_cycles(5, 5), [1, 2, 3, 4, 5] * 2),
}


class _OneWayOracle:
    """A cycle oracle whose node 4 answers port 1 with a node two back.

    A port graph's edges are symmetric, so on one the back-pointer
    condition follows from the others; an oracle need not be.
    """

    def __init__(self, oracle):
        self._oracle = oracle
        self.n = oracle.n
        self.node_info = oracle.node_info

    def resolve(self, node, port):
        if (node, port) == (4, 1):
            return 2
        return self._oracle.resolve(node, port)


class TestFallback:
    @pytest.mark.parametrize("case", sorted(FALLBACKS))
    @pytest.mark.parametrize("make", ALGORITHMS, ids=lambda cls: cls.name)
    def test_batch_declines_and_run_equals_reference(self, case, make):
        instance, nodes = FALLBACKS[case]()
        selection = list(instance.graph.nodes()) if nodes is None else nodes
        oracle = compile_oracle(instance)
        assert make().run_node_batch(oracle, selection) is None
        run = run_algorithm(instance, make(), nodes=nodes)
        reference = run_algorithm(
            instance,
            make(),
            nodes=nodes,
            backend=SerialBackend(compiled=False),
        )
        assert run.outputs == reference.outputs
        assert run.profiles == reference.profiles
        assert list(run.outputs) == list(dict.fromkeys(selection))

    def test_empty_selection(self):
        oracle = compile_oracle(_instance(cycle_graph(8)))
        for make in ALGORITHMS:
            assert make().run_node_batch(oracle, []) is None

    def test_port_one_not_leading_back(self):
        instance = _instance(cycle_graph(8))
        oracle = _OneWayOracle(compile_oracle(instance))
        nodes = list(instance.graph.nodes())
        for make in ALGORITHMS:
            assert make().run_node_batch(oracle, nodes) is None


class TestScalarExecutions:
    @pytest.mark.parametrize("make", ALGORITHMS, ids=lambda cls: cls.name)
    def test_one_scalar_run_per_whole_run(self, make, monkeypatch):
        calls = []
        scalar = make.run

        def counted(self, view):
            calls.append(view.start)
            return scalar(self, view)

        monkeypatch.setattr(make, "run", counted)
        instance = cycle_instance(64, rng=random.Random(64))
        nodes = list(instance.graph.nodes())
        run_algorithm(instance, make())
        assert calls == [nodes[0]]
        calls.clear()
        run_algorithm(instance, make(), nodes=nodes[:10])
        assert calls == nodes[:10]


class TestScalarWalksOffCycles:
    def test_two_coloring_walk_is_bounded(self):
        # Node 4's ports 1 and 2 are exchanged, so a walk along port 2
        # from any node but 3 and 4 ends up bouncing between them and
        # never returns to its start.
        n = 8
        instance = _swapped_ports(n, node=4)
        run = run_algorithm(instance, TwoColoringGather(), max_queries=4 * n)
        assert run.truncated_nodes == []
        for node, profile in run.profiles.items():
            if node in (3, 4):
                assert profile.queries == 2
            else:
                assert (run.outputs[node], profile.queries) == (0, n)

    def test_mis_bails_out_on_a_dangling_port(self):
        # Like the coloring, a walk off the end of a path answers 0.
        instance = _path(8)
        oracle = compile_oracle(instance)
        for node in instance.graph.nodes():
            output, profile = execute_at(oracle, MISFromColoring(), node)
            assert output in (0, 1)
            if node in (1, 2, 7, 8):  # within two steps of an end
                assert output == 0
                assert profile.queries <= 4
