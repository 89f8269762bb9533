"""Shared fixtures for the suite.

Extracted from ``tests/corpus/`` and ``tests/cli/test_corpus_cli.py``
(PR 10) so every suite — including ``tests/serve/`` — reuses the same
canonical small corpus and empty sqlite result store instead of
re-rolling them per file.
"""

import pytest


@pytest.fixture
def tmp_result_store(tmp_path):
    """An empty sqlite :class:`ResultStore` under this test's tmp dir."""
    from repro.corpus import ResultStore

    return ResultStore(tmp_path / "r.sqlite")


@pytest.fixture
def make_corpus():
    """Factory building the canonical two-entry corpus at any root."""
    from repro.corpus import InstanceCorpus
    from repro.graphs.generators import (
        balanced_tree_instance,
        cycle_instance,
    )

    def build(root):
        corpus = InstanceCorpus(root)
        corpus.add("cycle", 8, 0, cycle_instance(8))
        corpus.add("balanced-tree", 3, 0, balanced_tree_instance(3))
        return corpus

    return build


@pytest.fixture
def tmp_corpus(tmp_path, make_corpus):
    """The canonical small corpus: cycle(n=8) + balanced-tree(depth=3)."""
    return make_corpus(tmp_path / "corpus")


@pytest.fixture
def reinsert():
    """Rebuild an instance with its nodes and edges inserted in new orders.

    The rebuilt instance has the same nodes, ports, edges and labels, so a
    solver that depends only on the input gives the same answer on it.
    """
    from repro.graphs.labelings import Instance, Labeling
    from repro.graphs.port_graph import PortGraph

    def rebuild(instance, nodes, edges=None):
        source = instance.graph
        graph = PortGraph(max_degree=source.max_degree)
        graph.meta.update(source.meta)
        for v in nodes:
            graph.add_node(v, source.num_ports(v))
        for e in source.edges() if edges is None else edges:
            graph.add_edge(e.u, e.u_port, e.v, e.v_port)
        labeling = Labeling({v: instance.label(v).copy() for v in nodes})
        return Instance(
            graph=graph,
            labeling=labeling,
            n=instance.n,
            name=instance.name,
            meta=dict(instance.meta),
        )

    return rebuild


@pytest.fixture
def cyclic_gt_instance():
    """A 42-node BalancedTree input whose G_T has a cycle.

    Compatible internal nodes c1 → c2 → c3 → c1 are linked by LC edges.
    RC(c1) = r1 and RC(c2) = r2 are clean complete subtrees of heights 3
    and 2; RC(c3) = r3 is internal, with a complete height-3 LC subtree
    and a leaf RC.  The lateral rows (LN → RN) are

    * [c2, r1, LC(r3)],
    * [c3, r2, depth 1 of r1, depth 1 of LC(r3)],
    * [c1, r3, depth 1 of r2, depth 2 of r1, depth 2 of LC(r3)],
    * [RC(r3), the leaves of r2, then of r1, then of LC(r3)].

    RN(LC(r3)) is unset, so r3 fails the siblings condition and is the
    only incompatible node; the whole cycle lies above it in G_T.  Nodes
    are inserted c1, c2, c3 first; ``meta["cycle"]`` is ``[c1, c2, c3]``.
    """
    from repro.graphs.builders import (
        PORT_LEFT_CHILD,
        PORT_LEFT_NEIGHBOR,
        PORT_PARENT,
        PORT_RIGHT_CHILD,
        PORT_RIGHT_NEIGHBOR,
    )
    from repro.graphs.labelings import Instance, Labeling, NodeLabel
    from repro.graphs.port_graph import PortGraph

    graph = PortGraph(max_degree=5)
    labeling = Labeling()

    def node():
        v = graph.num_nodes + 1
        graph.add_node(v)
        labeling[v] = NodeLabel()
        return v

    def hang(parent, left, right):
        for port, child in ((PORT_LEFT_CHILD, left), (PORT_RIGHT_CHILD, right)):
            graph.add_edge(parent, port, child, PORT_PARENT)
            labeling[child].parent = PORT_PARENT
        labeling[parent].left_child = PORT_LEFT_CHILD
        labeling[parent].right_child = PORT_RIGHT_CHILD

    def subtree(height):
        """A complete subtree; returns its rows, root row first."""
        rows = [[node()]]
        for _ in range(height):
            row = []
            for v in rows[-1]:
                left, right = node(), node()
                hang(v, left, right)
                row += [left, right]
            rows.append(row)
        return rows

    c1, c2, c3 = node(), node(), node()
    r1, r2 = subtree(3), subtree(2)
    r3, x, y = node(), subtree(3), node()
    hang(c1, c2, r1[0][0])
    hang(c2, c3, r2[0][0])
    hang(c3, c1, r3)
    hang(r3, x[0][0], y)
    rows = [
        [c2, *r1[0], *x[0]],
        [c3, *r2[0], *r1[1], *x[1]],
        [c1, r3, *r2[1], *r1[2], *x[2]],
        [y, *r2[2], *r1[3], *x[3]],
    ]
    for row in rows:
        for left, right in zip(row, row[1:]):
            graph.add_edge(left, PORT_RIGHT_NEIGHBOR, right, PORT_LEFT_NEIGHBOR)
            labeling[left].right_neighbor = PORT_RIGHT_NEIGHBOR
            labeling[right].left_neighbor = PORT_LEFT_NEIGHBOR
    return Instance(
        graph=graph,
        labeling=labeling,
        name="balanced-tree-cyclic-gt",
        meta={"cycle": [c1, c2, c3], "incompatible": r3},
    )
