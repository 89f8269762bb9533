"""The memoized ``InstanceTopology`` answers like an uncached topology.

``InstanceTopology`` reads each node's label and port row once and keeps
``is_internal`` per node.  For one quick instance of every registry
family, the structure maps and every registry cell's validator verdict
must be the same through it as through :class:`BareTopology`, which
re-reads the instance on every call, and a ``LocalityGuard`` must still
check every read a predicate makes.
"""

import pytest

from repro.graphs import tree_structure as ts
from repro.lcl.base import LCLProblem
from repro.lcl.verifier import LocalityGuard, LocalityViolation
from repro.model.runner import run_algorithm
from repro.problems.balanced_tree import compatibility_map
from repro.registry import FAMILIES, iter_compatible, load_components

load_components()


class BareTopology:
    """The :class:`~repro.graphs.tree_structure.Topology` protocol over an
    instance with no memo: every call reads the instance again."""

    def __init__(self, instance):
        self._instance = instance

    def label(self, node_id):
        return self._instance.label(node_id)

    def node_at(self, node_id, port):
        if port is None:
            return None
        graph = self._instance.graph
        if not graph.has_node(node_id):
            return None
        if port < 1 or port > graph.num_ports(node_id):
            return None
        return graph.neighbor_at(node_id, port)


def _quick_instance(family):
    return family.instance(family.quick[0])


@pytest.mark.parametrize("family", list(FAMILIES), ids=lambda f: f.name)
def test_structure_maps_match_uncached(family):
    instance = _quick_instance(family)
    memo = ts.InstanceTopology(instance)
    bare = BareTopology(instance)
    for build in (ts.classify_all, ts.derive_gt, compatibility_map):
        expected = build(instance, bare)
        assert build(instance, memo) == expected
        # Asked again, the memo answers from its tables.
        assert build(instance, memo) == expected
        assert build(instance) == expected


def _rotated(outputs):
    """Every node gets the next node's output: a mostly invalid labeling."""
    nodes = list(outputs)
    return {v: outputs[nodes[(i + 1) % len(nodes)]] for i, v in enumerate(nodes)}


CELLS = [
    c
    for c in iter_compatible()
    if type(c.problem.make()).validate is LCLProblem.validate
]


@pytest.mark.parametrize(
    "cell",
    CELLS,
    ids=lambda c: f"{c.algorithm.name}@{c.family.name}",
)
def test_validator_verdicts_match_uncached(cell):
    instance = _quick_instance(cell.family)
    problem = cell.problem.make()
    run = run_algorithm(instance, cell.algorithm.make(), seed=cell.algorithm.seed)
    for outputs in (run.outputs, _rotated(run.outputs)):
        bare = BareTopology(instance)
        expected = [
            violation
            for node in instance.graph.nodes()
            for violation in problem.check_node(bare, node, outputs)
        ]
        assert problem.validate(instance, outputs) == expected


def test_guard_checks_every_read_of_a_repeated_predicate():
    instance = _quick_instance(FAMILIES.get("balanced-tree"))
    root = instance.meta["root"]
    assert ts.is_internal(ts.InstanceTopology(instance), root)
    guard = LocalityGuard(instance, root, 0)
    for _ in range(2):
        with pytest.raises(LocalityViolation):
            ts.is_internal(guard, root)
