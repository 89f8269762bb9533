"""One compiled table serves the oracle, the tree rows and the validator.

``CompiledOracle`` builds its ``NodeInfo`` table and port rows in one
pass over the graph's port table; its ``TreeTable`` and gather kernel
keep those tables, never the oracle; and its ``validation_topology`` is
an ``InstanceTopology`` prefilled from copies of the label and row tables
whose ``is_internal`` memo the tree table fills (DESIGN.md §6.2).  These
tests pin that topology against a fresh ``InstanceTopology``, check that
the copies keep the oracle's own answers intact, count the ``is_internal``
evaluations of a run plus its validation, and check that a dropped
oracle is freed by reference counting alone.
"""

import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.leaf_coloring_algs import (
    LeafColoringDistanceSolver,
    _internal_row,
)
from repro.exec.backends import SerialBackend
from repro.graphs import tree_structure
from repro.graphs.generators import (
    balanced_tree_instance,
    corrupt_instance,
    leaf_coloring_instance,
    random_tree_instance,
)
from repro.graphs.labelings import COLORS, Instance, Labeling, NodeLabel
from repro.graphs.port_graph import PortGraph, PortGraphError
from repro.graphs.tree_structure import (
    InstanceTopology,
    classify_all,
    is_internal,
)
from repro.model.implicit import as_oracle
from repro.model.oracle import StaticOracle, compile_oracle
from repro.model.runner import solve_and_check
from repro.problems.leaf_coloring import LeafColoring
from repro.registry import FAMILIES, iter_compatible, load_components

load_components()

# Every materializable registry point small enough to compare node by
# node (the quick grids).
POINTS = sorted(
    {
        (family.name, param)
        for family in FAMILIES
        for param in family.quick
        if family.instance(param).graph.num_nodes <= 600
    },
    key=repr,
)


def _assert_same_topology(got, want, instance):
    """``got`` answers every read ``want`` answers, unknown ids too."""
    graph = instance.graph
    nodes = list(graph.nodes())
    probes = nodes + [max(nodes) + 1, min(nodes) - 1]
    ports = [None, 0] + list(range(1, graph.max_degree + 2))
    for v in probes:
        assert got.label(v) == want.label(v)
        for port in ports:
            assert got.node_at(v, port) == want.node_at(v, port)
    for v in probes:
        assert is_internal(got, v) == is_internal(want, v)
    assert classify_all(instance, got) == classify_all(instance, want)


def _fill_tree_rows(oracle, instance):
    """Build every node's ``is_internal`` row, as a tree batch would."""
    table = oracle.tree_table()
    for v in instance.graph.nodes():
        table.record(_internal_row, v)


class TestTopologyEqualsInstanceTopology:
    @pytest.mark.parametrize("family, param", POINTS)
    def test_registry_points(self, family, param):
        instance = FAMILIES.get(family).instance(param)
        oracle = compile_oracle(instance)
        _assert_same_topology(
            oracle.validation_topology(), InstanceTopology(instance), instance
        )
        # Once the tree rows exist, a new topology reads their verdicts.
        _fill_tree_rows(oracle, instance)
        _assert_same_topology(
            oracle.validation_topology(), InstanceTopology(instance), instance
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        shape=st.sampled_from(["complete", "tree", "cyclic", "balanced"]),
        size=st.integers(min_value=2, max_value=40),
        fraction=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
        recolor=st.lists(st.integers(min_value=0, max_value=10**6),
                         max_size=4),
        rows_first=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_corrupted_labelings(
        self, seed, shape, size, fraction, recolor, rows_first
    ):
        rng = random.Random(seed)
        if shape == "complete":
            instance = leaf_coloring_instance(1 + size % 5, rng=rng)
        elif shape == "balanced":
            instance = balanced_tree_instance(1 + size % 4)
        else:
            instance = random_tree_instance(
                size,
                rng=rng,
                with_cycle=shape == "cyclic",
                cycle_length=2 + size % 7,
                max_degree=4,
            )
        if fraction:
            instance = corrupt_instance(instance, fraction, rng=rng)
        nodes = sorted(instance.graph.nodes())
        for pick in recolor:
            v = nodes[pick % len(nodes)]
            label = instance.labeling.get(v).copy()
            label.color = COLORS[pick % 2]
            instance.labeling[v] = label
        oracle = compile_oracle(instance)
        if rows_first:
            _fill_tree_rows(oracle, instance)
        _assert_same_topology(
            oracle.validation_topology(), InstanceTopology(instance), instance
        )


class TestCopiesKeepTheOracleIntact:
    def test_unknown_node_still_raises_after_validation_reads_it(self):
        instance = leaf_coloring_instance(3, rng=random.Random(4))
        oracle = compile_oracle(instance)
        unknown = max(instance.graph.nodes()) + 1
        topology = oracle.validation_topology()
        assert topology.label(unknown) == NodeLabel()
        assert topology.node_at(unknown, 1) is None
        assert not is_internal(topology, unknown)
        LeafColoring().validate(instance, {}, topology)
        with pytest.raises(PortGraphError):
            oracle.resolve(unknown, 1)
        with pytest.raises(PortGraphError):
            oracle.node_info(unknown)
        with pytest.raises(PortGraphError):
            oracle.tree_table().record(_internal_row, unknown)
        # The oracle's answers for known nodes are untouched too.
        reference = StaticOracle(instance)
        for v in instance.graph.nodes():
            assert oracle.node_info(v) == reference.node_info(v)
            for port in range(0, 5):
                assert oracle.resolve(v, port) == reference.resolve(v, port)

    def test_validation_reads_the_compiled_labels(self):
        instance = leaf_coloring_instance(3, rng=random.Random(4))
        oracle = compile_oracle(instance)
        topology = oracle.validation_topology()
        for v in instance.graph.nodes():
            assert topology.label(v) is instance.label(v)
            assert topology.label(v) is oracle.node_info(v).label


class TestOneVerdictPerNode:
    def test_distance_run_and_validation_evaluate_is_internal_once(
        self, monkeypatch
    ):
        asked = []
        real = tree_structure._is_internal

        def counted(t, v):
            asked.append(v)
            return real(t, v)

        monkeypatch.setattr(tree_structure, "_is_internal", counted)
        instance = leaf_coloring_instance(4, rng=random.Random(5))
        report = solve_and_check(
            LeafColoring(), instance, LeafColoringDistanceSolver()
        )
        assert report.valid
        assert Counter(asked) == {v: 1 for v in instance.graph.nodes()}


class TestPortRows:
    @pytest.mark.parametrize("family, param", POINTS[:12])
    def test_port_rows_match_neighbor_at(self, family, param):
        graph = FAMILIES.get(family).instance(param).graph
        want = [
            (
                v,
                tuple(
                    graph.neighbor_at(v, port)
                    for port in range(1, graph.num_ports(v) + 1)
                ),
            )
            for v in graph.nodes()
        ]
        assert list(graph.port_rows()) == want
        assert list(graph.freeze().port_rows()) == want

    def test_non_contiguous_ports_refuse_to_compile(self):
        graph = PortGraph(max_degree=3)
        graph.add_node(1, 1)
        graph.add_node(2, 1)
        graph.add_edge(1, 1, 2, 1)
        graph._ports[2][3] = None  # ports {1, 3}: port 2 is missing
        instance = Instance(graph=graph, labeling=Labeling())
        with pytest.raises(PortGraphError, match="non-contiguous"):
            compile_oracle(instance)
        with pytest.raises(PortGraphError, match="non-contiguous"):
            as_oracle(instance)
        with pytest.raises(PortGraphError, match="non-contiguous"):
            SerialBackend().validation_topology(instance)
        with pytest.raises(PortGraphError, match="non-contiguous"):
            graph.freeze()

    def test_frozen_graph_is_built_on_first_use(self):
        instance = leaf_coloring_instance(3, rng=random.Random(6))
        oracle = compile_oracle(instance)
        assert oracle._frozen is None
        frozen = oracle.frozen_graph
        assert oracle.frozen_graph is frozen
        assert list(frozen.port_rows()) == list(instance.graph.port_rows())

    def test_frozen_graph_refuses_a_graph_changed_since_compile(self):
        instance = leaf_coloring_instance(3, rng=random.Random(6))
        oracle = compile_oracle(instance)
        instance.graph.add_node(10**6)
        with pytest.raises(PortGraphError, match="changed"):
            oracle.frozen_graph


class TestNoReferenceCycles:
    @pytest.fixture
    def no_gc(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    def test_oracle_with_every_table_dies_with_its_last_reference(
        self, no_gc
    ):
        instance = leaf_coloring_instance(4, rng=random.Random(7))
        oracle = compile_oracle(instance)
        start = next(iter(instance.graph.nodes()))
        oracle.tree_table().record(_internal_row, start)
        kernel = oracle.gather_kernel()
        kernel.ball(start, 3)
        topology = oracle.validation_topology()
        is_internal(topology, start)
        ref = weakref.ref(oracle)
        del oracle
        assert ref() is None
        # What the oracle built still answers without it.
        assert kernel.summarize(start, 2)[0] > 1
        assert topology.label(start) is instance.label(start)

    @pytest.mark.parametrize(
        "cell",
        [c for c in iter_compatible() if c.family.quick],
        ids=lambda c: f"{c.algorithm.name}@{c.family.name}",
    )
    def test_every_cell_frees_its_oracle_on_close(self, cell, no_gc):
        instance = cell.family.instance(cell.family.quick[0])
        backend = SerialBackend()
        solve_and_check(
            cell.problem.make(), instance, cell.algorithm.make(),
            seed=cell.algorithm.seed, backend=backend,
        )
        ref = weakref.ref(backend._oracle)
        backend.close()
        assert ref() is None
