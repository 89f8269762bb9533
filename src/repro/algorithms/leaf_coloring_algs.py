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

import math

from repro.graphs.tree_structure import (
    is_internal,
    is_leaf,
    left_child_node,
    right_child_node,
)
from repro.model.batched import resolution_profile, tree_table
from repro.model.probe import ProbeAlgorithm, ProbeView
from repro.model.randomness import RandomnessModel
from repro.model.views import ProbeTopology
from repro.algorithms.generic import FullGatherAlgorithm
from repro.problems.leaf_coloring import reference_solution
from repro.registry import register_algorithm


def _log2_ceil(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n))))


@register_algorithm("leaf-coloring/distance", problem="leaf-coloring")
class LeafColoringDistanceSolver(ProbeAlgorithm):
    """Proposition 3.9: deterministic distance O(log n).

    A non-internal node echoes its input color.  An internal node explores
    its G_T descendants breadth-first to the nearest leaf (at depth
    d ≤ log n by Lemma 3.8) and outputs that leaf's input color, breaking
    ties toward the lexicographically least LC/RC sequence.  The suffix
    property of that tie-break makes parent and child choose leaves on a
    common path, which is exactly the induction in the proposition's proof.
    """

    name = "leaf-coloring/distance"

    def run(self, view: ProbeView):
        topo = ProbeTopology(view)
        start = view.start
        if not is_internal(topo, start):
            return view.start_info.label.color
        limit = _log2_ceil(view.n) + 1
        # Breadth-first by layers; expansion order encodes LC < RC.
        frontier = [start]
        seen = {start}
        for _ in range(limit):
            next_frontier = []
            for u in frontier:
                for child in (
                    left_child_node(topo, u),
                    right_child_node(topo, u),
                ):
                    if child is None or child in seen:
                        continue
                    seen.add(child)
                    if is_leaf(topo, child):
                        return view.info(child).label.color
                    if is_internal(topo, child):
                        next_frontier.append(child)
            if not next_frontier:
                break
            frontier = next_frontier
        # No leaf within the limit (cannot happen on well-formed inputs,
        # Lemma 3.8); echo the input color as a safe fallback.
        return view.start_info.label.color

    def run_node_batch(self, oracle, nodes, tapes=None):
        """Every start node's search over the oracle's ``is_internal`` rows.

        Each search replays the scalar :meth:`run`: the start's row, then
        layers of LC-then-RC children with the same ``seen`` set and
        layer limit, each new child's row, and the first leaf's color in
        scalar order.  The scalar run resolves ports only inside
        ``is_internal`` and ``is_leaf``.  A child of an internal node
        names it as parent, so ``is_leaf(child)`` is ``not
        is_internal(child)`` and its parent resolution is already in the
        parent's row.  The profile is therefore the
        :func:`~repro.model.batched.resolution_profile` of the rows the
        search evaluated (DESIGN.md §9.3).

        ``None`` (the scalar loop) without a compiled oracle, and for any
        subclass.
        """
        table = tree_table(oracle)
        if type(self) is not LeafColoringDistanceSolver or table is None:
            return None
        entry = table.entry
        limit = _log2_ceil(oracle.n) + 1
        triples = []
        for start in nodes:
            first = entry(start)
            evaluated = [first.resolutions]
            output = first.color
            if first.internal:
                leaf = _nearest_leaf(entry, start, first, limit, evaluated)
                if leaf is not None:
                    output = leaf.color
            triples.append(
                (start, output, resolution_profile(start, evaluated, 0))
            )
        return triples


def _nearest_leaf(entry, start, first, limit, evaluated):
    """The scalar search's leaf row, or ``None``; appends each row read."""
    frontier = [first]
    seen = {start}
    for _ in range(limit):
        next_frontier = []
        for row in frontier:
            # Frontier rows are internal, so both children exist.
            for child in (row.left, row.right):
                if child in seen:
                    continue
                seen.add(child)
                child_row = entry(child)
                evaluated.append(child_row.resolutions)
                if not child_row.internal:
                    return child_row
                next_frontier.append(child_row)
        if not next_frontier:
            break
        frontier = next_frontier
    return None


@register_algorithm("leaf-coloring/rw-to-leaf", problem="leaf-coloring", seed=7)
class RWtoLeaf(ProbeAlgorithm):
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

    def run(self, view: ProbeView):
        topo = ProbeTopology(view)
        start = view.start
        if not is_internal(topo, start):
            return view.start_info.label.color
        max_steps = self.cap_factor * _log2_ceil(view.n) + 8
        current = start
        for step in range(max_steps):
            bit = self._bit(view, current, step)
            if current == start and step > 0:
                # Line 4: the walk revisited its origin; take the other
                # child to leave the cycle.
                bit = 1 - bit
            nxt = (
                left_child_node(topo, current)
                if bit == 0
                else right_child_node(topo, current)
            )
            if nxt is None:
                # Current was internal, so both children exist; ``None``
                # can only mean a malformed instance — echo input.
                return view.info(current).label.color
            if not is_internal(topo, nxt):
                # Leaf or inconsistent: RWtoLeaf returns its input color.
                return view.info(nxt).label.color
            current = nxt
        return self.fallback(view)

    def fallback(self, view: ProbeView):
        return view.start_info.label.color

    def run_node_batch(self, oracle, nodes, tapes=None):
        """Every start node's walk over the oracle's tree table.

        Each walk takes the scalar :meth:`run`'s steps: the same bits,
        read through the run's own ``tapes`` in the same order, the flip
        on coming back to the start, the same step cap and outputs.  Its
        profile is the one the scalar view would measure.  The scalar run
        resolves ports only inside ``is_internal`` (an internal node's
        children are resolved there before the walk reads them), so its
        queries are the distinct resolutions of the nodes it evaluated,
        its volume is the start plus their endpoints, its distance is a
        BFS from the start over those edges, and it read one bit per
        step.  Walks share nothing but the table (DESIGN.md §9.3).

        ``None`` (the scalar loop) without a compiled oracle or a tape
        store, and for any subclass: one may steer or fall back
        otherwise.
        """
        walker = type(self)
        table = tree_table(oracle)
        if (
            walker not in (RWtoLeaf, SecretRWtoLeaf)
            or tapes is None
            or table is None
        ):
            return None
        secret = walker is SecretRWtoLeaf
        tape_for = tapes.tape_for
        entry = table.entry
        max_steps = self.cap_factor * _log2_ceil(oracle.n) + 8
        triples = []
        for start in nodes:
            first = entry(start)
            walked = [first.resolutions]
            output = first.color
            steps = 0
            if first.internal:
                # SecretRWtoLeaf reads r_start(step), RWtoLeaf r_node(0).
                own = tape_for(start) if secret else None
                current, row = start, first
                for step in range(max_steps):
                    bit = own.bit(step) if secret else tape_for(current).bit(0)
                    steps += 1
                    if current == start and step > 0:
                        bit = 1 - bit
                    nxt = row.left if bit == 0 else row.right
                    if nxt is None:
                        output = row.color
                        break
                    row = entry(nxt)
                    walked.append(row.resolutions)
                    if not row.internal:
                        output = row.color
                        break
                    current = nxt
            profile = resolution_profile(start, walked, steps)
            triples.append((start, output, profile))
        return triples


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
