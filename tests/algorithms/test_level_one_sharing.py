"""The Hybrid solvers' shared level-1 solve is exact and scoped.

``_HybridTHCMixin`` gathers a level-1 component at every start node and
recursion step that asks for it: live through the view on the scalar
path, and charged from one per-oracle gather record per component in a
compiled batch (``test_thc_batch.py``).  Either way it solves the
gathered component once per node set and oracle and hands every later
start node its entry from that one output.  That is exact only if the
node set fixes the ball, the balanced reference is insertion-order free
(``test_reference_insertion_order.py``) and the level-1 solve reads no
random bits.  This suite pins the result against runs that give every
start node a fresh solver, counts the reference solves, checks that a
solver reused on a second instance with the same node ids answers it
afresh, and checks that no registry algorithm pickles its memo or an
oracle.
"""

import pickle
import random
from collections import Counter

import pytest

import repro.algorithms.hybrid_algs as hybrid_algs
from repro.algorithms.hh_algs import HHWaypointSolver
from repro.algorithms.hybrid_algs import (
    HybridRecursiveSolver,
    HybridWaypointSolver,
)
from repro.exec.backends import SerialBackend
from repro.graphs.generators import hybrid_thc_instance
from repro.graphs.tree_structure import InstanceTopology, right_child_node
from repro.model.oracle import compile_oracle
from repro.model.probe import execute_at
from repro.model.randomness import TapeStore
from repro.model.runner import run_algorithm
from repro.registry import iter_compatible, load_components

load_components()
PROBLEMS = ("hybrid-thc(2)", "hh-thc(2,3)")
MAX_N = 256
CELLS = [
    c
    for c in iter_compatible()
    if c.problem.name in PROBLEMS
    and not c.algorithm.name.endswith("/full-gather")
]


def _cell_id(cell):
    return f"{cell.algorithm.name}@{cell.family.name}"


def _points(cell):
    family = cell.family
    points = list(family.quick)
    for param in family.full:
        if param not in points and family.instance(param).n <= MAX_N:
            points.append(param)
    return points


@pytest.fixture
def solves(monkeypatch):
    """The node set of every balanced reference solve, in call order."""
    seen = []
    real = hybrid_algs.balanced_reference

    def counting(instance):
        seen.append(frozenset(instance.graph.nodes()))
        return real(instance)

    monkeypatch.setattr(hybrid_algs, "balanced_reference", counting)
    return seen


def _fresh_per_node(make, instance, seed):
    """Outputs and profiles with a new solver object at every start node."""
    oracle = compile_oracle(instance)
    tapes = TapeStore(seed) if make().is_randomized else None
    outputs, profiles = {}, {}
    for node in instance.graph.nodes():
        outputs[node], profiles[node] = execute_at(
            oracle, make(), node, tape_store=tapes
        )
    return outputs, profiles


@pytest.mark.parametrize(
    "cell, param, seed",
    [
        pytest.param(cell, param, seed, id=f"{_cell_id(cell)}:{param!r}:{seed}")
        for cell in CELLS
        for param in _points(cell)
        for seed in (cell.algorithm.seed, cell.algorithm.seed + 1)
    ],
)
def test_shared_run_equals_fresh_solvers(cell, param, seed, solves):
    instance = cell.family.instance(param)
    outputs, profiles = _fresh_per_node(cell.algorithm.make, instance, seed)
    fresh = Counter(solves)
    solves.clear()
    shared = run_algorithm(instance, cell.algorithm.make(), seed=seed)
    assert shared.outputs == outputs
    assert shared.profiles == profiles
    # One reference solve per distinct gathered node set on the oracle.
    assert Counter(solves) == Counter(set(fresh))


@pytest.mark.parametrize(
    "cls", [HybridRecursiveSolver, HybridWaypointSolver], ids=lambda c: c.__name__
)
def test_trials_on_one_oracle_share_the_solve(cls, solves):
    instance = hybrid_thc_instance(2, 3, 3, rng=random.Random(1))
    solver = cls(2)
    with SerialBackend() as backend:
        for seed in range(4):
            backend.run(instance, solver, seed=seed)
    assert solves
    assert len(solves) == len(set(solves))


@pytest.mark.parametrize(
    "cls", [HybridRecursiveSolver, HybridWaypointSolver], ids=lambda c: c.__name__
)
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_start_off_level_one_gathers_its_own_node_set(cls, reverse):
    """A deep level-2 backbone's RC walk solves ``_solve_level_one`` from
    its hung root.  Relabeled to level 2, that root joins only its own
    gather, so its node set differs from its level-1 neighbours' and the
    two must not share an entry, whichever runs first."""
    instance = hybrid_thc_instance(
        2, 4, 2, rng=random.Random(6), lengths=[40]
    )
    root = instance.meta["root"]
    hung = right_child_node(InstanceTopology(instance), root)
    instance.labeling[hung].level = 2
    nodes = list(instance.graph.nodes())
    if reverse:
        nodes.reverse()
    outputs, profiles = _fresh_per_node(lambda: cls(2), instance, seed=5)
    shared = run_algorithm(instance, cls(2), seed=5, nodes=nodes)
    assert shared.outputs == outputs
    assert shared.profiles == profiles


@pytest.mark.parametrize(
    "cls", [HybridRecursiveSolver, HybridWaypointSolver], ids=lambda c: c.__name__
)
def test_reused_solver_answers_a_second_instance_afresh(cls):
    first, second = (
        hybrid_thc_instance(
            2, 3, 3, rng=random.Random(1), compatible=compatible
        )
        for compatible in (True, False)
    )
    assert set(first.graph.nodes()) == set(second.graph.nodes())
    solver = cls(2)
    run_algorithm(first, solver, seed=5)
    reused = run_algorithm(second, solver, seed=5)
    fresh = run_algorithm(second, cls(2), seed=5)
    assert reused.outputs == fresh.outputs
    assert reused.profiles == fresh.profiles


#: One compatible cell per registry algorithm, to run it on.
ALGORITHM_CELLS = list(
    {c.algorithm.name: c for c in iter_compatible()}.values()
)
#: The solvers whose runs fill the per-oracle level-1 memo.
MEMO_SOLVERS = (HybridRecursiveSolver, HybridWaypointSolver, HHWaypointSolver)


@pytest.mark.parametrize(
    "cell", ALGORITHM_CELLS, ids=lambda c: c.algorithm.name
)
def test_pickle_carries_neither_memo_nor_oracle(cell, solves):
    """Every registry algorithm pickles, fresh and after a compiled whole
    run, without its per-oracle memo or the oracle, and a restored copy
    answers as a fresh one does.  An unpicklable solver would silently
    run a pool's whole dispatch in-process."""
    instance = cell.family.instance(cell.family.quick[-1])
    make, seed = cell.algorithm.make, cell.algorithm.seed
    fresh_size = len(pickle.dumps(make()))
    used = make()
    run_algorithm(instance, used, seed=seed)
    solved = len(solves)
    if cell.algorithm.cls in MEMO_SOLVERS:
        assert solved  # the run did fill the memo
    blob = pickle.dumps(used)
    assert len(blob) < fresh_size + 64
    for name in (b"Oracle", b"TreeTable", b"GatherRecord"):
        assert name not in blob
    solves.clear()
    restored = pickle.loads(blob)
    again = run_algorithm(instance, restored, seed=seed)
    assert again == run_algorithm(instance, make(), seed=seed)
    # The restored copy solved its level-1 components itself.
    assert len(solves) == 2 * solved
