"""Hybrid-THC(k) algorithms (Section 6).

Theorem 6.3's upper bounds:

* :class:`HybridDistanceSolver` — distance O(log n): solve every level-1
  BalancedTree component with the Proposition 4.8 machinery and let every
  node at level ≥ 2 go exempt (lawful because a BalancedTree instance is
  always *solvable*, so χout(RC) ∈ {B, U} at level 2 and X above).
* :class:`HybridWaypointSolver` — randomized volume Θ̃(n^{1/k}): the
  waypoint-gated Algorithm 2, with level-1 components solved by bounded
  full gather (components larger than the volume budget decline
  unanimously, which Definition 6.1 permits).
* :class:`HybridRecursiveSolver` — the deterministic counterpart.
* :class:`HybridFullGather` — volume O(n).
"""

from __future__ import annotations

import functools
import math

from repro.graphs.labelings import DECLINE, EXEMPT
from repro.model.probe import CostProfile, ProbeAlgorithm, ProbeView
from repro.model.randomness import RandomnessModel
from repro.algorithms.balanced_tree_algs import BalancedTreeDistanceSolver
from repro.algorithms.generic import (
    FullGatherAlgorithm,
    ball_to_instance,
)
from repro.algorithms.hierarchical_algs import (
    RecursiveHTHC,
    WaypointHTHC,
    thc_replayer,
)
from repro.problems.balanced_tree import (
    _is_output_pair,
    reference_solution as balanced_reference,
)
from repro.problems.hybrid_thc import reference_solution as hybrid_reference
from repro.model.views import Ball
from repro.registry import register_algorithm


@register_algorithm(
    "hybrid-thc(2)/distance", problem="hybrid-thc(2)", defaults={"k": 2}
)
class HybridDistanceSolver(ProbeAlgorithm):
    """Distance O(log n): level-1 answers BalancedTree, the rest go X."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.name = f"hybrid-thc({k})/distance"
        self._balanced = BalancedTreeDistanceSolver()

    def run(self, view: ProbeView):
        lvl = view.start_info.label.level
        if lvl is None or lvl >= 2:
            return EXEMPT
        return self._balanced.run(view)

    def run_node_batch(self, oracle, nodes, tapes=None):
        """Exempt starts answer at once; the rest go through the
        BalancedTree batch.

        A start at level ⊥ or ≥ 2 returns ``EXEMPT`` before any query,
        so its profile is the start alone.  Every other start runs the
        BalancedTree solver on the same view, so it takes that batch's
        triple.  ``None`` (the scalar loop) for any subclass, and
        whenever the BalancedTree batch declines.
        """
        if type(self) is not HybridDistanceSolver:
            return None
        node_info = oracle.node_info
        exempt = []
        for start in nodes:
            lvl = node_info(start).label.level
            exempt.append(lvl is None or lvl >= 2)
        solved = self._balanced.run_node_batch(
            oracle, [v for v, x in zip(nodes, exempt) if not x]
        )
        if solved is None:
            return None
        solved = iter(solved)
        return [
            (start, EXEMPT, CostProfile(1, 0, 0, 0)) if x else next(solved)
            for start, x in zip(nodes, exempt)
        ]


class _HybridTHCMixin:
    """Entry point, level-1 handling and exemption predicate for Hybrid
    solvers.

    Mixed into the hierarchical solver classes, ahead of them in the MRO:
    levels are explicit input labels, level-1 components are BalancedTree
    instances, solved by bounded gather, and the level-2 exemption
    predicate is "RC answered a (β, p) pair" (Definition 6.1).
    """

    def _start(self, view, topo):
        lvl = view.start_info.label.level
        if lvl is None or lvl > self.k:
            return EXEMPT
        self._memo = {}
        return self._solve(view, topo, view.start, lvl)

    def run_node_batch(self, oracle, nodes, tapes=None):
        """Each start's :meth:`run`, replayed as the hierarchical solvers
        replay theirs, with every level-1 gather charged from its
        component's record.  ``None`` for any subclass, and when
        :func:`~repro.algorithms.hierarchical_algs.thc_replayer`
        declines."""
        if type(self) not in (HybridRecursiveSolver, HybridWaypointSolver):
            return None
        replay = thc_replayer(oracle, tapes, self)
        return None if replay is None else [replay(self, v) for v in nodes]

    def fallback(self, view: ProbeView):
        lvl = view.start_info.label.level
        return DECLINE if lvl == 1 else EXEMPT

    def __getstate__(self):
        # The level-1 outputs belong to one oracle in this process.
        state = self.__dict__.copy()
        state.pop("_level_one", None)
        return state

    def component_budget(self, view: ProbeView) -> int:
        """Max level-1 component size we solve rather than decline."""
        n = max(2, view.n)
        return max(32, math.ceil(8 * n ** (1.0 / self.k)))

    def _solve_level_one(self, view, topo, v):
        # The gather always runs: its queries are this node's volume.
        ball = topo.level_one_component(v, self.component_budget(view))
        if ball is None:
            return DECLINE
        return self._component_outputs(view, ball)[v]

    def _component_outputs(self, view: ProbeView, ball: Ball):
        """The balanced reference over a gathered component, solved once
        per node set and oracle (DESIGN.md §9.3).

        The node set fixes the ball: every gathered node is expanded and
        records each port to a level-1 neighbour, so whichever member
        the BFS began at, one set means the same infos and edges.  The
        key is the set, not a member: a start reached through
        ``_rc_value`` need not be level 1, and its set (itself plus its
        level-1 neighbours' components) differs from theirs.  The
        reference answers independently of insertion order and reads no
        random bits, so every run and trial on the oracle may share it.
        The memo holds the oracle itself, so no later oracle matches it.
        """
        scope = view.scope
        level_one = getattr(self, "_level_one", None)
        if level_one is None or level_one[0] is not scope:
            level_one = self._level_one = (scope, {})
        solved = level_one[1]
        key = frozenset(ball.info)
        outputs = solved.get(key)
        if outputs is None:
            outputs = solved[key] = balanced_reference(
                ball_to_instance(ball, view.n)
            )
        return outputs

    def _rc_supports_exemption(self, rc_value, lvl: int) -> bool:
        if lvl == 2:
            # Definition 6.1: level-2 exemption needs χout(RC) ∈ {B, U}.
            return _is_output_pair(rc_value)
        return super()._rc_supports_exemption(rc_value, lvl)


@register_algorithm(
    "hybrid-thc(2)/recursive", problem="hybrid-thc(2)", defaults={"k": 2}
)
class HybridRecursiveSolver(_HybridTHCMixin, RecursiveHTHC):
    """Deterministic Algorithm-2 analogue for Hybrid-THC(k)."""

    def __init__(self, k: int) -> None:
        super().__init__(k)
        self.name = f"hybrid-thc({k})/recursive"


@register_algorithm(
    "hybrid-thc(2)/waypoint",
    problem="hybrid-thc(2)",
    defaults={"k": 2},
    seed=5,
)
class HybridWaypointSolver(_HybridTHCMixin, WaypointHTHC):
    """Prop 5.14's waypoint gating applied to Hybrid-THC(k)."""

    randomness = RandomnessModel.PRIVATE

    def __init__(self, k: int, factor: float = 1.0, c: float = 3.0) -> None:
        super().__init__(k, factor=factor, c=c)
        self.name = f"hybrid-thc({k})/waypoint"


@register_algorithm(
    "hybrid-thc(2)/full-gather", problem="hybrid-thc(2)", defaults={"k": 2}
)
class HybridFullGather(FullGatherAlgorithm):
    """Volume O(n): gather everything and run the global reference."""

    def __init__(self, k: int) -> None:
        super().__init__(
            functools.partial(hybrid_reference, k=k),
            name=f"hybrid-thc({k})/full-gather",
        )
