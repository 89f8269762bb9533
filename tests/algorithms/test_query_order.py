"""The live query order of the solvers whose batches replay their body.

The tree-distance solvers (``leaf-coloring/distance``,
``balanced-tree/distance``, ``hybrid-thc(2)/distance``,
``hh-thc(2,3)/distance``), the two random walks and the THC recursive
and waypoint solvers each have one body that a batch replays over table
rows (DESIGN.md §9.3).  The profiles those replays must match do not
pin the order of the live queries; the adversary's golden transcripts
pin it for two cells only.  This suite runs every start of every
registry point with n ≤ 300 of those eleven solvers (19 cells) on the
reference engine, through a ``StaticOracle`` that logs each
``resolve(node, port)``, unbudgeted and with ``max_queries`` 3 and 7,
and compares a per-cell digest of every start's log, output and profile
with one recorded from the scalar ``run`` methods before their bodies
read structure through ``topo.row``.
"""

import hashlib

import pytest

from repro.algorithms.balanced_tree_algs import BalancedTreeDistanceSolver
from repro.algorithms.hh_algs import HHDistanceSolver, HHWaypointSolver
from repro.algorithms.hierarchical_algs import RecursiveHTHC, WaypointHTHC
from repro.algorithms.hybrid_algs import (
    HybridDistanceSolver,
    HybridRecursiveSolver,
    HybridWaypointSolver,
)
from repro.algorithms.leaf_coloring_algs import (
    LeafColoringDistanceSolver,
    RWtoLeaf,
    SecretRWtoLeaf,
)
from repro.model.oracle import StaticOracle
from repro.model.probe import execute_at
from repro.model.randomness import TapeStore
from repro.registry import iter_compatible, load_components

load_components()

ALGORITHMS = (
    LeafColoringDistanceSolver,
    RWtoLeaf,
    SecretRWtoLeaf,
    BalancedTreeDistanceSolver,
    HybridDistanceSolver,
    HHDistanceSolver,
    HHWaypointSolver,
    RecursiveHTHC,
    WaypointHTHC,
    HybridRecursiveSolver,
    HybridWaypointSolver,
)
MAX_N = 300
BUDGETS = (None, 3, 7)

DIGESTS = {
    ("balanced-tree/distance", "balanced-tree"): "23803b32e96812b6",
    ("hierarchical-thc(2)/recursive", "hierarchical-thc(2)"):
        "69f6da4da31b4ffa",
    ("hierarchical-thc(2)/waypoint", "hierarchical-thc(2)"):
        "69f6da4da31b4ffa",
    ("hybrid-thc(2)/distance", "hybrid-thc(2)"): "f7288d25373e12f5",
    ("hybrid-thc(2)/recursive", "hybrid-thc(2)"): "29eade83faaf9649",
    ("hybrid-thc(2)/waypoint", "hybrid-thc(2)"): "29eade83faaf9649",
    ("hh-thc(2,3)/distance", "hh-thc(2,3)"): "889081a12ff47562",
    ("hh-thc(2,3)/waypoint", "hh-thc(2,3)"): "40cf746323fa2377",
    ("leaf-coloring/distance", "leaf-coloring"): "e0bf4d160b36eb47",
    ("leaf-coloring/distance", "leaf-coloring-hard"): "09ca2a0e428ac400",
    ("leaf-coloring/distance", "random-tree"): "646972c286400662",
    ("leaf-coloring/distance", "random-tree-cyclic"): "7ca557905a22bcc4",
    ("leaf-coloring/distance", "leaf-coloring-perturbed"): "b86cac5fa9598d3c",
    ("leaf-coloring/rw-to-leaf", "leaf-coloring"): "dcd879b4ead52422",
    ("leaf-coloring/rw-to-leaf", "leaf-coloring-hard"): "75bd923bcea6a01f",
    ("leaf-coloring/rw-to-leaf", "random-tree"): "485b7aa2372c7aca",
    ("leaf-coloring/rw-to-leaf", "random-tree-cyclic"): "3782942255b2007f",
    ("leaf-coloring/rw-to-leaf", "leaf-coloring-perturbed"):
        "29da0e6d0879cc27",
    ("leaf-coloring/secret-rw", "leaf-coloring-hard"): "37395ba76b9b9ecb",
}


class _LoggingOracle(StaticOracle):
    """A reference oracle that logs every ``resolve`` call, in order."""

    def __init__(self, instance) -> None:
        super().__init__(instance)
        self.log = []

    def resolve(self, node_id, port):
        self.log.append((node_id, port))
        return super().resolve(node_id, port)


def _cell_digest(cell):
    rows = []
    for param in dict.fromkeys(cell.family.quick + cell.family.full):
        instance = cell.family.instance(param)
        if instance.n > MAX_N:
            continue
        for max_queries in BUDGETS:
            algorithm = cell.algorithm.make()
            oracle = _LoggingOracle(instance)
            tapes = (
                TapeStore(cell.algorithm.seed)
                if algorithm.is_randomized
                else None
            )
            for node in instance.graph.nodes():
                mark = len(oracle.log)
                output, profile = execute_at(
                    oracle,
                    algorithm,
                    node,
                    tape_store=tapes,
                    max_queries=max_queries,
                    distance_mode="reference",
                )
                rows.append(
                    (param, max_queries, node, oracle.log[mark:], output,
                     profile)
                )
    return hashlib.blake2b(repr(rows).encode(), digest_size=8).hexdigest()


CELLS = [c for c in iter_compatible() if c.algorithm.cls in ALGORITHMS]


def test_every_cell_is_pinned():
    assert len(CELLS) == 19
    assert {(c.algorithm.name, c.family.name) for c in CELLS} == set(DIGESTS)


@pytest.mark.parametrize(
    "cell", CELLS, ids=lambda c: f"{c.algorithm.name}@{c.family.name}"
)
def test_live_queries_outputs_and_profiles(cell):
    key = (cell.algorithm.name, cell.family.name)
    assert _cell_digest(cell) == DIGESTS[key]
