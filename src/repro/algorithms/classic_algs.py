"""Algorithms for the classic landscape problems (Figures 1–2, §7.3).

* :class:`ColeVishkinColoring` — 3-coloring a cycle in Θ(log* n) distance
  *and* volume (class B of Figure 1; Section 1.2 notes the volume class
  coincides with the distance class in this regime).
* :class:`MISFromColoring` — maximal independent set on a cycle via the
  3-coloring (still Θ(log* n)).
* :class:`TwoColoringGather` — proper 2-coloring of an even cycle: a
  genuinely global problem, Θ(n) distance and volume (class D).
* :class:`RelayProbeSolver` — Example 7.6: O(log n) probes where CONGEST
  needs Ω(n/B) rounds.
* :class:`RelayCongest` — the pipelined CONGEST protocol whose round count
  exhibits the Ω(n/B) bottleneck at the bridge edge.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.model.congest import CongestAlgorithm, Message
from repro.model.oracle import NodeInfo
from repro.model.probe import ProbeAlgorithm, ProbeView, execute_at
from repro.registry import register_algorithm

# Cycle port convention (builders.cycle_graph): 1 = predecessor, 2 = successor.
_PREV, _NEXT = 1, 2


def cv_iterations(id_bits: int) -> int:
    """Iterations of Cole–Vishkin reduction until every color is below 6.

    Colors start as IDs below ``2 ** id_bits`` (at least 3 bits).  One
    step maps colors below ``bound`` to colors below 2ℓ, where ℓ is the
    bit length of ``bound − 1``; the fixed point is bound 6 (colors
    0..5), the colors the three shift-down rounds reduce to 0..2.  3-bit
    colors still take a step, since they include 6 and 7.  The count is
    Θ(log* of the initial bit-length).
    """
    iterations = 0
    bound = 2 ** max(3, id_bits)
    while bound > 6:
        bound = 2 * (bound - 1).bit_length()
        iterations += 1
    return iterations


def _cv_step(own: int, successor: int) -> int:
    """One Cole–Vishkin color-reduction step on a directed cycle."""
    diff = own ^ successor
    i = (diff & -diff).bit_length() - 1  # lowest differing bit index
    return 2 * i + ((own >> i) & 1)


def _ring_positions(oracle, nodes) -> Optional[Dict[int, int]]:
    """Each node's position on the successor ring from ``nodes[0]``.

    The returned dict lists the ring in successor order.  ``None`` unless
    the batch is exact (DESIGN.md §9.3): the ring has exactly
    ``oracle.n`` nodes, each with connected ports (1, 2), port 2 of each
    u leads to a w whose port 1 leads back to u, and ``nodes`` is the
    whole ring.
    """
    n = oracle.n
    if not nodes or len(nodes) != n:
        return None
    resolve = oracle.resolve
    node_info = oracle.node_info
    position: Dict[int, int] = {}
    node = nodes[0]
    for index in range(n):
        if node in position or node_info(node).ports != (_PREV, _NEXT):
            return None
        position[node] = index
        successor = resolve(node, _NEXT)
        if successor is None or resolve(successor, _PREV) != node:
            return None
        node = successor
    if node != nodes[0] or any(v not in position for v in nodes):
        return None
    return position


def _ring_batch(
    algorithm: ProbeAlgorithm,
    oracle,
    nodes,
    ring_outputs: Callable[[List[int]], List[object]],
):
    """``run_node_batch`` of a cycle algorithm: one pass over the ring.

    On a port-uniform cycle every start node's walk issues the same
    queries relative to its own position, so one scalar execution gives
    every start node's profile (each gets its own copy: a
    :class:`CostProfile` is mutable).  ``ring_outputs`` maps the ring's
    IDs, in successor order, to every position's output.
    """
    position = _ring_positions(oracle, nodes)
    if position is None:
        return None
    _, first = execute_at(oracle, algorithm, nodes[0])
    outputs = ring_outputs(list(position))
    return [(node, outputs[position[node]], replace(first)) for node in nodes]


@register_algorithm("cycle/cole-vishkin", problem="cycle-3-coloring")
class ColeVishkinColoring(ProbeAlgorithm):
    """Θ(log* n) 3-coloring of a cycle (Cole–Vishkin + shift-down).

    The node gathers the forward chain of IDs it transitively depends on
    (length T + O(1), T = cv_iterations) plus a short backward chain, then
    simulates the synchronous algorithm locally:

    1. colors start as IDs;
    2. T Cole–Vishkin steps against the successor's color — after step t,
       the color of position j depends on IDs j..j+T−t transitively;
    3. three reduction rounds eliminating colors 5, 4, 3: a node with the
       eliminated color picks the least color unused by its two neighbors.

    Both the distance and the volume cost are Θ(log* n) — the class-B
    collapse of Figure 2.
    """

    name = "cycle/cole-vishkin"

    def __init__(self, id_bits: Optional[int] = None) -> None:
        self.id_bits = id_bits

    def iterations(self, n: int) -> int:
        """T: the Cole–Vishkin steps run on an ``n``-node input."""
        return cv_iterations(self.id_bits or max(8, (4 * n).bit_length()))

    def run_node_batch(self, oracle, nodes, tapes=None):
        return _ring_batch(self, oracle, nodes, self.ring_colors)

    def ring_colors(self, ids: List[int]) -> List[int]:
        """Every position's final color on the ring of ``ids``, in O(n·T).

        ``ids`` lists the ring in successor order.  These are the
        synchronous rounds :meth:`run` simulates around one position: T
        steps against the successor's color, then the shift-down of
        colors 5, 4, 3.
        """
        colors = list(ids)
        for _ in range(self.iterations(len(ids))):
            colors = [
                _cv_step(own, successor)
                for own, successor in zip(colors, colors[1:] + colors[:1])
            ]
        for eliminate in (5, 4, 3):
            colors = [
                min({0, 1, 2} - {left, right}) if c == eliminate else c
                for left, c, right in zip(
                    colors[-1:] + colors[:-1], colors, colors[1:] + colors[:1]
                )
            ]
        return colors

    def run(self, view: ProbeView):
        t_cv = self.iterations(view.n)
        back, forward = 4, t_cv + 7
        # Gather the chain: positions -back .. +forward relative to start.
        chain_ids: Dict[int, int] = {0: view.start}
        # The walk's period: n on an n-cycle, j if the walk is back at the
        # start after j steps (a shorter ring, or ports swapped somewhere).
        length = view.n
        node = view.start
        for j in range(1, forward + 1):
            info = view.query(node, _NEXT)
            if info is None:  # not a cycle; bail out
                return 0
            chain_ids[j] = info.node_id
            node = info.node_id
            if info.node_id == view.start:
                length = j  # tiny cycle: we have wrapped around
                break
        node = view.start
        for j in range(1, back + 1):
            info = view.query(node, _PREV)
            if info is None:
                return 0
            chain_ids[-j] = info.node_id
            node = info.node_id

        def id_at(pos: int) -> int:
            """ID at relative position pos, using wraparound on tiny cycles."""
            if pos in chain_ids:
                return chain_ids[pos]
            return chain_ids[pos % length]

        # Step 2: T CV iterations.  color[t][j] for j in a shrinking window.
        def color_after(t: int, pos: int) -> int:
            if t == 0:
                return id_at(pos)
            return _cv_step(color_after(t - 1, pos), color_after(t - 1, pos + 1))

        # Step 3: shift-down of colors 5, 4, 3 → {0, 1, 2}.
        def final_color(pos: int, stage: int) -> int:
            if stage == 0:
                return color_after(t_cv, pos)
            c = final_color(pos, stage - 1)
            eliminate = 6 - stage  # stages 1,2,3 eliminate 5,4,3
            if c != eliminate:
                return c
            left = final_color(pos - 1, stage - 1)
            right = final_color(pos + 1, stage - 1)
            return min({0, 1, 2} - {left, right})

        return final_color(0, 3)


@register_algorithm("cycle/mis", problem="mis")
class MISFromColoring(ProbeAlgorithm):
    """MIS on a cycle from the 3-coloring: color classes join greedily.

    A node joins iff its color is 0, or no smaller-colored neighbor is in
    the set already — resolvable from the final colors of positions ±2.
    """

    name = "cycle/mis"

    def __init__(self, id_bits: Optional[int] = None) -> None:
        self._coloring = ColeVishkinColoring(id_bits)

    def run_node_batch(self, oracle, nodes, tapes=None):
        return _ring_batch(self, oracle, nodes, self._ring_outputs)

    def _ring_outputs(self, ids: List[int]) -> List[int]:
        colors = self._coloring.ring_colors(ids)
        n = len(colors)
        return [
            _mis_output({k: colors[(i + k) % n] for k in range(-2, 3)})
            for i in range(n)
        ]

    def run(self, view: ProbeView):
        # Collect final colors of positions -2..2 by simulating the
        # coloring from each of those nodes' perspectives.  We reuse the
        # coloring algorithm on shifted views via fresh walks.
        colors: Dict[int, int] = {}
        node_at: Dict[int, int] = {0: view.start}
        node = view.start
        for j in range(1, 3):
            info = view.query(node, _NEXT)
            if info is None:  # not a cycle; bail out
                return 0
            node_at[j] = info.node_id
            node = info.node_id
        node = view.start
        for j in range(1, 3):
            info = view.query(node, _PREV)
            if info is None:
                return 0
            node_at[-j] = info.node_id
            node = info.node_id
        for pos in range(-2, 3):
            colors[pos] = _SubwalkColoring(self._coloring, node_at[pos]).run(view)
        return _mis_output(colors)


def _mis_output(colors: Dict[int, int]) -> int:
    """MIS output of position 0 from the final colors of positions −2..2.

    Greedy by color class: a node joins iff no smaller-colored neighbor
    joins.  With colors in {0, 1, 2} the recursion bottoms out within the
    ±2 window (a strictly decreasing color chain has length ≤ 3).
    """

    def joined(pos: int) -> bool:
        c = colors[pos]
        if c == 0:
            return True
        for nbr in (pos - 1, pos + 1):
            if nbr in colors and colors[nbr] < c and joined(nbr):
                return False
        return True

    return 1 if joined(0) else 0


class _SubwalkColoring:
    """Run the coloring algorithm 'as if' started at another node.

    The probe model allows this: the outer execution has already visited
    the target node, and further queries are issued through the same view
    (costs accrue to the outer execution, as they should).
    """

    def __init__(self, coloring: ColeVishkinColoring, start: int) -> None:
        self._coloring = coloring
        self._start = start

    def run(self, view: ProbeView):
        proxy = _ShiftedView(view, self._start)
        return self._coloring.run(proxy)


class _ShiftedView:
    """A ProbeView proxy whose ``start`` is a different visited node."""

    def __init__(self, view: ProbeView, start: int) -> None:
        self._view = view
        self._start = start

    @property
    def start(self) -> int:
        return self._start

    @property
    def start_info(self):
        return self._view.info(self._start)

    @property
    def n(self) -> int:
        return self._view.n

    def query(self, node_id: int, port: int):
        return self._view.query(node_id, port)

    def info(self, node_id: int):
        return self._view.info(node_id)

    def random_bit(self, node_id: int, index: int) -> int:
        return self._view.random_bit(node_id, index)


@register_algorithm("cycle/2-coloring", problem="cycle-2-coloring")
class TwoColoringGather(ProbeAlgorithm):
    """Proper 2-coloring of an even cycle: walk the whole cycle (Θ(n)).

    The color is the parity of the node's distance (along successor
    edges) from the minimum-ID node — a global anchor every node agrees
    on.  No o(n)-distance algorithm exists (class D), making this the
    Figure 1/2 "global" specimen.
    """

    name = "cycle/2-coloring"

    def run_node_batch(self, oracle, nodes, tapes=None):
        return _ring_batch(self, oracle, nodes, self._ring_outputs)

    @staticmethod
    def _ring_outputs(ids: List[int]) -> List[int]:
        n = len(ids)
        anchor = ids.index(min(ids))
        # The scalar run's (len(ids) - anchor) % 2, with its walk started
        # at position p: the anchor lies (anchor - p) % n steps ahead.
        return [(n - (anchor - p) % n) % 2 for p in range(n)]

    def run(self, view: ProbeView):
        ids = [view.start]
        node = view.start
        # A cycle leads back to the start within n queries; a walk that
        # has not (ports swapped somewhere) would bounce forever.
        for _ in range(view.n):
            info = view.query(node, _NEXT)
            if info is None:
                return 0
            if info.node_id == view.start:
                anchor = min(range(len(ids)), key=lambda i: ids[i])
                # distance from anchor to position 0 going forward
                return (len(ids) - anchor) % 2
            ids.append(info.node_id)
            node = info.node_id
        return 0


@register_algorithm("relay/probe", problem="relay")
class RelayProbeSolver(ProbeAlgorithm):
    """Example 7.6 with O(log n) probes: up, across the bridge, down.

    Left-tree leaves compute their heap index from their ID, climb to the
    left root (depth hops on port 1), cross the bridge (port 3), and
    descend the right tree following the index bits.  All other nodes
    output None (the problem only constrains left leaves).
    """

    name = "relay/probe"

    def run(self, view: ProbeView):
        n = view.n
        # n = 2(2^{depth+1} - 1)
        depth = int(math.log2(n / 2 + 1)) - 1
        half = 2 ** (depth + 1) - 1
        me = view.start
        if me > half:  # right tree: no output required
            return None
        if not (2**depth <= me <= 2 ** (depth + 1) - 1):
            return None  # internal left-tree node: no output required
        index = me - 2**depth
        # climb to the left root
        node = me
        for _ in range(depth):
            info = view.query(node, 1)
            node = info.node_id
        # cross the bridge
        info = view.query(node, 3)
        node = info.node_id
        # descend the right tree by index bits (most significant first)
        for level in range(depth):
            bit = (index >> (depth - 1 - level)) & 1
            at_root = level == 0
            port = (1 if bit == 0 else 2) if at_root else (2 if bit == 0 else 3)
            info = view.query(node, port)
            node = info.node_id
        return view.info(node).label.bit


class RelayCongest(CongestAlgorithm):
    """Pipelined CONGEST relay: every bit crosses the single bridge edge.

    Right-tree nodes flood (index, bit) pairs upward; the right root
    pushes them over the bridge; left-tree nodes route them down by index
    range.  Message capacity ⌊B / pair_bits⌋ pairs per edge per round
    makes the bridge the bottleneck: rounds ≈ N·pair_bits/B + O(depth),
    the Ω(n/B) behaviour of Example 7.6.
    """

    name = "relay/congest"

    def __init__(self, depth: int, id_bits: int, bandwidth: int) -> None:
        self.depth = depth
        self.id_bits = id_bits
        self.pair_bits = id_bits + 1
        self.bandwidth = bandwidth

    def init_state(self, info: NodeInfo, n: int) -> dict:
        half = 2 ** (self.depth + 1) - 1
        me = info.node_id
        in_right = me > half
        rel = me - half if in_right else me
        is_leaf = 2**self.depth <= rel <= 2 ** (self.depth + 1) - 1
        is_root = rel == 1
        state = {
            "info": info,
            "n": n,
            "half": half,
            "in_right": in_right,
            "rel": rel,
            "is_leaf": is_leaf,
            "is_root": is_root,
            "queue": [],
            "received": {},
            "deadline": None,
        }
        if in_right and is_leaf:
            index = rel - 2**self.depth
            state["queue"].append((index, info.label.bit))
        return state

    def _route_port(self, state, index: int) -> int:
        """Left tree: which child port leads toward leaf ``index``."""
        rel = state["rel"]
        depth_of_rel = rel.bit_length() - 1
        bit = (index >> (self.depth - 1 - depth_of_rel)) & 1
        if state["is_root"]:
            return 1 if bit == 0 else 2
        return 2 if bit == 0 else 3

    def step(self, state, round_index, inbox):
        info = state["info"]
        for port, msg in inbox.items():
            for index, bit in msg.payload:
                if state["in_right"] or not state["is_leaf"]:
                    state["queue"].append((index, bit))
                else:
                    state["received"][index] = bit
        # A left leaf halts once it has its own bit.
        if not state["in_right"] and state["is_leaf"]:
            index = state["rel"] - 2**self.depth
            if index in state["received"]:
                return {}, state["received"][index]
            return {}, None
        # forward queued pairs, bandwidth-limited per edge
        out: Dict[int, Message] = {}
        if state["queue"]:
            batches: Dict[int, List[Tuple[int, int]]] = {}
            remaining = []
            for index, bit in state["queue"]:
                port = self._out_port(state, index)
                if port is None:
                    continue
                batches.setdefault(port, [])
                batches[port].append((index, bit))
            state["queue"] = []
            for port, pairs in batches.items():
                take = max(1, self._pairs_per_message())
                send_now, defer = pairs[:take], pairs[take:]
                out[port] = Message(
                    payload=tuple(send_now),
                    bits=self.pair_bits * len(send_now),
                )
                state["queue"].extend(defer)
        # Internal nodes never "output"; they halt via the round cap.  To
        # let the simulator terminate, internal nodes output once idle for
        # a long stretch — handled by the runner's max_rounds in benches.
        return out, None

    def _pairs_per_message(self) -> int:
        return max(1, self.bandwidth // self.pair_bits)

    def _out_port(self, state, index: int) -> Optional[int]:
        info = state["info"]
        if state["in_right"]:
            # send upward: toward the right root, then over the bridge
            if state["is_root"]:
                return 3  # bridge
            return 1  # parent
        # left tree: route downward by index
        if state["is_leaf"]:
            return None
        return self._route_port(state, index)
