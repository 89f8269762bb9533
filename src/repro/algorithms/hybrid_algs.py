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
from repro.model.batched import ReplayedAlgorithm, replayable
from repro.model.probe import ProbeView
from repro.model.randomness import RandomnessModel
from repro.algorithms.balanced_tree_algs import BalancedTreeDistanceSolver
from repro.algorithms.generic import (
    FullGatherAlgorithm,
    ball_to_instance,
)
from repro.algorithms.hierarchical_algs import RecursiveHTHC, WaypointHTHC
from repro.problems.balanced_tree import (
    _is_output_pair,
    reference_solution as balanced_reference,
)
from repro.problems.hybrid_thc import reference_solution as hybrid_reference
from repro.model.views import Ball
from repro.registry import register_algorithm


@replayable
@register_algorithm(
    "hybrid-thc(2)/distance", problem="hybrid-thc(2)", defaults={"k": 2}
)
class HybridDistanceSolver(ReplayedAlgorithm):
    """Distance O(log n): level-1 answers BalancedTree, the rest go X."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.name = f"hybrid-thc({k})/distance"
        self._balanced = BalancedTreeDistanceSolver()

    def _start(self, view, topo):
        lvl = view.start_info.label.level
        if lvl is None or lvl >= 2:
            return EXEMPT
        return self._balanced._start(view, topo)


class _HybridTHCMixin:
    """Start level, level-1 handling and exemption predicate for Hybrid
    solvers.

    Mixed into the hierarchical solver classes, ahead of them in the MRO:
    levels are explicit input labels, level-1 components are BalancedTree
    instances, solved by bounded gather, and the level-2 exemption
    predicate is "RC answered a (β, p) pair" (Definition 6.1).
    """

    def _start_level(self, view, topo):
        return view.start_info.label.level

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


@replayable
@register_algorithm(
    "hybrid-thc(2)/recursive", problem="hybrid-thc(2)", defaults={"k": 2}
)
class HybridRecursiveSolver(_HybridTHCMixin, RecursiveHTHC):
    """Deterministic Algorithm-2 analogue for Hybrid-THC(k)."""

    def __init__(self, k: int) -> None:
        super().__init__(k)
        self.name = f"hybrid-thc({k})/recursive"


@replayable
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
