"""HH-THC(k, ℓ) algorithms (Section 6.1): dispatch on the selector bit.

Theorem 6.5's upper bounds are maxima of the per-population bounds, so
every solver simply runs the right sub-solver for its node's population:

* :class:`HHDistanceSolver` — distance Θ(n^{1/ℓ}): RecursiveHTHC(ℓ) on the
  bit-0 population, the O(log n) hybrid distance solver on bit-1.
* :class:`HHWaypointSolver` — randomized volume Θ̃(n^{1/k}): waypoint
  solvers on both populations (the hierarchical part costs Θ̃(n^{1/ℓ}) ≤
  Θ̃(n^{1/k}) since k ≤ ℓ).
* :class:`HHFullGather` — volume O(n).
"""

from __future__ import annotations

import functools

from repro.model.batched import ReplayedAlgorithm, replayable
from repro.model.probe import ProbeView
from repro.model.randomness import RandomnessModel
from repro.algorithms.generic import FullGatherAlgorithm
from repro.algorithms.hierarchical_algs import RecursiveHTHC, WaypointHTHC
from repro.algorithms.hybrid_algs import (
    HybridDistanceSolver,
    HybridWaypointSolver,
)
from repro.problems.hh_thc import reference_solution as hh_reference
from repro.registry import register_algorithm


class _HHDispatch(ReplayedAlgorithm):
    """Run one of two sub-solvers depending on the node's input bit.

    Both sub-solvers have a ``_start`` body, so a batch replays each
    start through its own population's body, in node order.
    """

    def __init__(
        self, bit0: ReplayedAlgorithm, bit1: ReplayedAlgorithm, name: str
    ) -> None:
        self._bit0 = bit0
        self._bit1 = bit1
        self.name = name

    def _solver(self, view: ProbeView) -> ReplayedAlgorithm:
        return self._bit0 if view.start_info.label.bit == 0 else self._bit1

    def _start(self, view, topo):
        return self._solver(view)._start(view, topo)

    def fallback(self, view: ProbeView):
        return self._solver(view).fallback(view)


@replayable
@register_algorithm(
    "hh-thc(2,3)/distance",
    problem="hh-thc(2,3)",
    defaults={"k": 2, "ell": 3},
)
class HHDistanceSolver(_HHDispatch):
    """Distance Θ(n^{1/ℓ}) (dominated by the hierarchical population)."""

    def __init__(self, k: int, ell: int) -> None:
        super().__init__(
            RecursiveHTHC(ell),
            HybridDistanceSolver(k),
            name=f"hh-thc({k},{ell})/distance",
        )


@replayable
@register_algorithm(
    "hh-thc(2,3)/waypoint",
    problem="hh-thc(2,3)",
    defaults={"k": 2, "ell": 3},
    seed=2,
)
class HHWaypointSolver(_HHDispatch):
    """Randomized volume Θ̃(n^{1/k}) (dominated by the hybrid population)."""

    randomness = RandomnessModel.PRIVATE

    def __init__(self, k: int, ell: int, factor: float = 1.0) -> None:
        super().__init__(
            WaypointHTHC(ell, factor=factor),
            HybridWaypointSolver(k, factor=factor),
            name=f"hh-thc({k},{ell})/waypoint",
        )


@register_algorithm(
    "hh-thc(2,3)/full-gather",
    problem="hh-thc(2,3)",
    defaults={"k": 2, "ell": 3},
)
class HHFullGather(FullGatherAlgorithm):
    """Volume O(n)."""

    def __init__(self, k: int, ell: int) -> None:
        super().__init__(
            functools.partial(hh_reference, k=k, ell=ell),
            name=f"hh-thc({k},{ell})/full-gather",
        )
