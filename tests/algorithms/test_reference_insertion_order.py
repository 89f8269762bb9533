"""Every full-gather reference answers independently of insertion order.

``FullGatherAlgorithm.run_node_batch`` solves each gathered component
once and gives every later start node of that component its entry from
the same output dict.  The scalar path instead solves the instance
rebuilt from that node's own ball, whose nodes are inserted in that
node's discovery order.  The two agree only if a reference's answer does
not depend on the order an instance's nodes and edges were inserted in.
This suite pins that property for the reference of every full-gather
cell, at every quick point and on a BalancedTree input with a cyclic G_T.
"""

import random

import pytest

from repro.algorithms.generic import FullGatherAlgorithm
from repro.registry import iter_compatible, load_components

load_components()
CELLS = [
    c
    for c in iter_compatible()
    if isinstance(c.algorithm.make(), FullGatherAlgorithm)
]
PERMUTATIONS = 3


def _cell_id(cell):
    return f"{cell.algorithm.name}@{cell.family.name}"


def _assert_order_free(reference, instance, reinsert, seed):
    expected = reference(instance)
    rng = random.Random(seed)
    for _ in range(PERMUTATIONS):
        nodes = list(instance.graph.nodes())
        edges = list(instance.graph.edges())
        rng.shuffle(nodes)
        rng.shuffle(edges)
        assert reference(reinsert(instance, nodes, edges)) == expected


@pytest.mark.parametrize(
    "cell, param",
    [
        pytest.param(cell, param, id=f"{_cell_id(cell)}:{param!r}")
        for cell in CELLS
        for param in cell.family.quick
    ],
)
def test_reference_is_insertion_order_free(cell, param, reinsert):
    reference = cell.algorithm.make()._reference
    instance = cell.family.instance(param)
    _assert_order_free(
        reference, instance, reinsert, seed=f"{_cell_id(cell)}:{param!r}"
    )


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_reference_is_insertion_order_free_on_cyclic_gt(
    cell, cyclic_gt_instance, reinsert
):
    reference = cell.algorithm.make()._reference
    _assert_order_free(
        reference, cyclic_gt_instance, reinsert, seed=_cell_id(cell)
    )
