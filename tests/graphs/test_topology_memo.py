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


PROBE_PROBLEMS = (
    "leaf-coloring",
    "balanced-tree",
    "hierarchical-thc(2)",
    "hybrid-thc(2)",
    "hh-thc(2,3)",
)
PROBE_CELLS = [
    c
    for c in iter_compatible(problems=PROBE_PROBLEMS)
    if not c.algorithm.name.endswith("/full-gather")
]


@pytest.mark.parametrize(
    "cell",
    PROBE_CELLS,
    ids=lambda c: f"{c.algorithm.name}@{c.family.name}",
)
def test_probe_topology_memo_changes_no_run(cell, monkeypatch):
    """``ProbeTopology.internal_memo`` leaves outputs and costs alone."""
    from repro.exec.backends import SerialBackend
    from repro.model.views import ProbeTopology

    instance = _quick_instance(cell.family)
    algorithm = cell.algorithm

    def run():
        return run_algorithm(
            instance,
            algorithm.make(),
            seed=algorithm.seed,
            backend=SerialBackend(),
        )

    memoized = run()
    init = ProbeTopology.__init__

    def unmemoized(self, view):
        init(self, view)
        self.internal_memo = None  # is_internal recomputes every ask

    monkeypatch.setattr(ProbeTopology, "__init__", unmemoized)
    plain = run()
    assert memoized.outputs == plain.outputs
    assert memoized.profiles == plain.profiles


@pytest.mark.parametrize(
    "algorithm", ["hybrid-thc(2)/distance", "hh-thc(2,3)/distance"]
)
def test_probe_topology_evaluates_each_node_once(algorithm, monkeypatch):
    from repro.model.views import ProbeTopology

    cell = next(c for c in PROBE_CELLS if c.algorithm.name == algorithm)
    evaluated = []
    inner = ts._is_internal

    def counting(t, v):
        if isinstance(t, ProbeTopology):
            evaluated.append((t, v))
        return inner(t, v)

    monkeypatch.setattr(ts, "_is_internal", counting)
    run_algorithm(
        _quick_instance(cell.family),
        cell.algorithm.make(),
        seed=cell.algorithm.seed,
    )
    assert evaluated
    assert len(evaluated) == len(set(evaluated))


@pytest.mark.parametrize(
    "param", FAMILIES.get("hybrid-thc(2)").quick, ids=repr
)
def test_hybrid_reference_builds_one_topology(param, monkeypatch):
    from repro.graphs.labelings import EXEMPT
    from repro.problems.balanced_tree import (
        reference_solution as balanced_reference,
    )
    from repro.problems.hybrid_thc import reference_solution

    instance = FAMILIES.get("hybrid-thc(2)").instance(param)
    fresh = ts.InstanceTopology(instance)
    balanced = balanced_reference(instance)
    expected = {
        v: balanced[v] if ts.level_of(fresh, v, cap=2) == 1 else EXEMPT
        for v in instance.graph.nodes()
    }
    built = []
    init = ts.InstanceTopology.__init__

    def counting(self, inst):
        built.append(inst)
        init(self, inst)

    monkeypatch.setattr(ts.InstanceTopology, "__init__", counting)
    assert reference_solution(instance, 2) == expected
    assert built == [instance]
