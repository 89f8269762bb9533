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

from repro.model.probe import ProbeAlgorithm, ProbeView
from repro.model.randomness import RandomnessModel
from repro.algorithms.generic import FullGatherAlgorithm
from repro.algorithms.hierarchical_algs import (
    RecursiveHTHC,
    WaypointHTHC,
    thc_replayer,
)
from repro.algorithms.hybrid_algs import (
    HybridDistanceSolver,
    HybridWaypointSolver,
)
from repro.problems.hh_thc import reference_solution as hh_reference
from repro.registry import register_algorithm


class _HHDispatch(ProbeAlgorithm):
    """Run one of two sub-solvers depending on the node's input bit."""

    def __init__(self, bit0: ProbeAlgorithm, bit1: ProbeAlgorithm, name: str) -> None:
        self._bit0 = bit0
        self._bit1 = bit1
        self.name = name

    def run(self, view: ProbeView):
        bit = view.start_info.label.bit
        solver = self._bit0 if bit == 0 else self._bit1
        return solver.run(view)

    def fallback(self, view: ProbeView):
        bit = view.start_info.label.bit
        solver = self._bit0 if bit == 0 else self._bit1
        return solver.fallback(view)


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

    def run_node_batch(self, oracle, nodes, tapes=None):
        """Bit-1 starts through the Hybrid batch, bit-0 starts replayed.

        A bit-1 start runs the Hybrid distance solver on its view, so it
        takes that batch's triple; a bit-0 start replays its
        RecursiveHTHC(ℓ) run over the oracle's table rows
        (:func:`~repro.algorithms.hierarchical_algs.thc_replayer`),
        merged in node order.  Neither half reads a bit.  ``None`` (the
        scalar loop) for any subclass, and whenever either half declines.
        """
        if type(self) is not HHDistanceSolver:
            return None
        replay = thc_replayer(oracle, None, self._bit0)
        if replay is None:
            return None
        node_info = oracle.node_info
        hybrid = [node_info(v).label.bit != 0 for v in nodes]
        solved = self._bit1.run_node_batch(
            oracle, [v for v, h in zip(nodes, hybrid) if h]
        )
        if solved is None:
            return None
        solved = iter(solved)
        return [
            next(solved) if h else replay(self._bit0, v)
            for v, h in zip(nodes, hybrid)
        ]


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

    def run_node_batch(self, oracle, nodes, tapes=None):
        """Each start replayed by its own population's waypoint solver.

        Starts dispatch one at a time by their bit, in node order, as
        the scalar loop runs them, so both halves read the run's
        ``tapes`` in the scalar order
        (:func:`~repro.algorithms.hierarchical_algs.thc_replayer`).
        ``None`` (the scalar loop) for any subclass, and when the replay
        declines.
        """
        if type(self) is not HHWaypointSolver:
            return None
        bit0, bit1 = self._bit0, self._bit1
        replay = thc_replayer(oracle, tapes, bit0, bit1)
        if replay is None:
            return None
        node_info = oracle.node_info
        return [
            replay(bit0 if node_info(v).label.bit == 0 else bit1, v)
            for v in nodes
        ]


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
