"""LeafColoring algorithms (Section 3).

Three upper bounds from Theorem 3.6, plus the secret-randomness variant
discussed in Section 7.4:

* :class:`LeafColoringDistanceSolver` — Proposition 3.9's deterministic
  O(log n)-distance algorithm (nearest leftmost descendant leaf).
* :class:`RWtoLeaf` — Algorithm 1: the randomized O(log n)-volume downward
  random walk steered by each visited node's *private* bit, with the
  revisit-flip rule for the (unique) G_T cycle and the Remark 3.11
  truncation.
* :class:`LeafColoringFullGather` — the trivial O(n)-volume deterministic
  solver (tight by Proposition 3.13).
* :class:`SecretRWtoLeaf` — the same walk steered only by the *initiator's*
  tape.  Walks from different nodes no longer merge, so it only solves the
  promise variant where all leaves share a color (Section 7.4's example of
  secret randomness helping).
"""

from __future__ import annotations

import functools
import math

from repro.graphs.tree_structure import (
    is_internal,
    left_child_node,
    right_child_node,
)
from repro.model.batched import ReplayedAlgorithm, replayable
from repro.model.probe import ProbeView
from repro.model.randomness import RandomnessModel
from repro.algorithms.generic import FullGatherAlgorithm
from repro.problems.leaf_coloring import reference_solution
from repro.registry import register_algorithm


@functools.lru_cache(maxsize=128)
def _log2_ceil(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n))))


def _internal_row(topo, v):
    """The leaf-coloring solvers' read at ``v``, for a table row:
    ``(is_internal(v), LC(v), RC(v), χin(v))``, both children ``None``
    unless ``v`` is internal.

    An internal node resolved both child ports on its way to the
    verdict, so reading its children resolves nothing new, and a node
    that is not internal reads no child; the color is its own label's.
    """
    color = topo.label(v).color
    if not is_internal(topo, v):
        return (False, None, None, color)
    return (True, left_child_node(topo, v), right_child_node(topo, v), color)


@replayable
@register_algorithm("leaf-coloring/distance", problem="leaf-coloring")
class LeafColoringDistanceSolver(ReplayedAlgorithm):
    """Proposition 3.9: deterministic distance O(log n).

    A non-internal node echoes its input color.  An internal node explores
    its G_T descendants breadth-first to the nearest leaf (at depth
    d ≤ log n by Lemma 3.8) and outputs that leaf's input color, breaking
    ties toward the lexicographically least LC/RC sequence.  The suffix
    property of that tie-break makes parent and child choose leaves on a
    common path, which is exactly the induction in the proposition's proof.
    """

    name = "leaf-coloring/distance"

    def _start(self, view, topo):
        start = view.start
        internal, left, right, own = topo.row(_internal_row, start)
        if not internal:
            return own
        # Breadth-first by layers; expansion order encodes LC < RC.
        frontier = [(left, right)]
        seen = {start}
        for _ in range(_log2_ceil(view.n) + 1):
            next_frontier = []
            for children in frontier:
                for child in children:
                    if child in seen:
                        continue
                    seen.add(child)
                    internal, left, right, color = topo.row(
                        _internal_row, child
                    )
                    if not internal:
                        # A child of an internal node names it as its
                        # parent, so a child that is not internal is a leaf.
                        return color
                    next_frontier.append((left, right))
            if not next_frontier:
                break
            frontier = next_frontier
        # No leaf within the limit (cannot happen on well-formed inputs,
        # Lemma 3.8); echo the input color as a safe fallback.
        return own


@replayable
@register_algorithm("leaf-coloring/rw-to-leaf", problem="leaf-coloring", seed=7)
class RWtoLeaf(ReplayedAlgorithm):
    """Algorithm 1: randomized volume O(log n) with high probability.

    The walk starts at the initiating node and repeatedly steps to the
    left or right child according to bit ``r_v(0)`` of the *current* node
    ``v`` — so every walk passing through ``v`` takes the same turn and
    all walks merge toward a common leaf (the key to validity).  If the
    walk returns to its starting node (possible only on the unique cycle
    of the component, Observation 3.7), the bit is flipped, which steers
    the walk off the cycle.  The step count is capped at
    ``cap_factor · log n`` (Remark 3.11); the proof of Proposition 3.10
    shows 16 log n steps suffice with probability 1 − O(1/n³) per node.
    """

    name = "leaf-coloring/rw-to-leaf"
    randomness = RandomnessModel.PRIVATE

    def __init__(self, cap_factor: int = 32) -> None:
        self.cap_factor = cap_factor

    def _bit(self, view: ProbeView, node: int, step: int) -> int:
        """The bit steering step ``step`` of the walk, taken at ``node``."""
        return view.random_bit(node, 0)

    def _start(self, view, topo):
        start = view.start
        internal, left, right, color = topo.row(_internal_row, start)
        if not internal:
            return color
        current = start
        for step in range(self.cap_factor * _log2_ceil(view.n) + 8):
            bit = self._bit(view, current, step)
            if current == start and step > 0:
                # Line 4: the walk revisited its origin; take the other
                # child to leave the cycle.
                bit = 1 - bit
            # Current is internal, so both children exist.
            current = left if bit == 0 else right
            internal, left, right, color = topo.row(_internal_row, current)
            if not internal:
                # Leaf or inconsistent: RWtoLeaf returns its input color.
                return color
        return self.fallback(view)

    def fallback(self, view: ProbeView):
        return view.start_info.label.color


@replayable
@register_algorithm(
    "leaf-coloring/secret-rw",
    problem="leaf-coloring",
    seed=7,
    families=("leaf-coloring-hard",),
)
class SecretRWtoLeaf(RWtoLeaf):
    """RWtoLeaf steered by the initiator's own tape only (Section 7.4).

    Uses bit ``r_{v0}(step)`` instead of ``r_v(0)``: legal under secret
    randomness, but walks from different nodes no longer coordinate, so
    internal nodes may reach *different* leaves.  On promise instances
    (all leaves share χ0) that is still correct; on general instances it
    is not — the gap the paper highlights.
    """

    name = "leaf-coloring/secret-rw"
    randomness = RandomnessModel.SECRET

    def _bit(self, view: ProbeView, node: int, step: int) -> int:
        return view.random_bit(view.start, step)


@register_algorithm("leaf-coloring/full-gather", problem="leaf-coloring")
class LeafColoringFullGather(FullGatherAlgorithm):
    """Deterministic volume O(n): gather everything, solve globally."""

    def __init__(self) -> None:
        super().__init__(reference_solution, name="leaf-coloring/full-gather")
