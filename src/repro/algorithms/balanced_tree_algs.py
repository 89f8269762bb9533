"""BalancedTree algorithms (Section 4 and Observation 7.4).

* :class:`BalancedTreeDistanceSolver` — Proposition 4.8: deterministic
  distance O(log n).  The node explores its G_T descendants down to the
  nearest-leaf depth d; by Lemma 4.6 an unbalanced subtree exposes an
  incompatible witness within that depth, and a fully compatible
  exploration certifies the subtree is a complete (balanced) tree.
* :class:`BalancedTreeFullGather` — volume O(n) (tight by Prop 4.9: even
  randomized algorithms need Ω(n) queries, via disjointness).
* :class:`BalancedTreeCongestFlood` — Observation 7.4: O(log n) rounds of
  CONGEST with O(log n)-bit messages, by flooding defect notices *upward*
  through G_T.  Together with Prop 4.9 this realizes the ∆^{Θ(T)} gap
  between CONGEST time and volume.
"""

from __future__ import annotations

from typing import Optional

from repro.graphs.labelings import BALANCED, UNBALANCED
from repro.graphs.tree_structure import (
    is_consistent,
    is_internal,
    left_child_node,
    right_child_node,
)
from repro.model.batched import ReplayedAlgorithm, replayable
from repro.model.congest import CongestAlgorithm, Message
from repro.model.oracle import NodeInfo
from repro.algorithms.generic import (
    FullGatherAlgorithm,
    ball_to_instance,
    gather_component,
)
from repro.algorithms.leaf_coloring_algs import _log2_ceil
from repro.problems.balanced_tree import is_compatible, reference_solution
from repro.registry import register_algorithm


@replayable
@register_algorithm("balanced-tree/distance", problem="balanced-tree")
class BalancedTreeDistanceSolver(ReplayedAlgorithm):
    """Proposition 4.8: deterministic distance O(log n).

    Output rules (matching Definition 4.3 and Lemma 4.7):

    * inconsistent → (B, ⊥) (unconstrained; the paper's choice);
    * incompatible → (U, ⊥);
    * compatible leaf → (B, P(v));
    * compatible internal → explore descendants to the nearest-leaf depth
      d; if any explored node is incompatible, output (U, port toward the
      nearest/leftmost one), else (B, P(v)).

    Lemma 4.6 makes the depth-d horizon sound: if the subtree is not a
    complete tree of depth d, an incompatible node exists at depth ≤ d;
    conversely a fully compatible exploration to depth d implies the
    subtree *is* complete (the lateral-connectivity claim), so nothing is
    hidden deeper.
    """

    name = "balanced-tree/distance"

    def _start(self, view, topo):
        start = view.start
        row = topo.row(_distance_row, start)
        if row is None:
            return (BALANCED, None)
        compatible, left, right = row
        if not compatible:
            return (UNBALANCED, None)
        label = view.start_info.label
        if left is None:
            return (BALANCED, label.parent)

        # Compatible internal: BFS down LC/RC edges layer by layer, in
        # lexicographic order, until the first layer containing a leaf;
        # check compatibility of everything explored (including that
        # layer).  Cap at log n + 2 layers below the start (Lemma 3.8
        # guarantees a leaf).  Every node below the start is a child of
        # an internal node, so it is consistent and its row is not None.
        # Entries are (node, first-hop port from start).
        frontier = [(left, label.left_child), (right, label.right_child)]
        for _ in range(_log2_ceil(view.n) + 2):
            next_frontier = []
            layer_has_leaf = False
            for u, first_port in frontier:
                compatible, left, right = topo.row(_distance_row, u)
                if not compatible:
                    return (UNBALANCED, first_port)
                if left is None:
                    layer_has_leaf = True
                elif u == start:
                    # Back at the start, round a G_T cycle.
                    next_frontier.append((left, label.left_child))
                    next_frontier.append((right, label.right_child))
                else:
                    next_frontier.append((left, first_port))
                    next_frontier.append((right, first_port))
            if layer_has_leaf:
                # The rest of this layer was checked as it was scanned.
                return (BALANCED, label.parent)
            frontier = next_frontier
        # No leaf within the horizon: malformed (cyclic) region.  Fall
        # back to full exploration to stay correct.
        ball = gather_component(view)
        return reference_solution(ball_to_instance(ball, view.n))[start]


def _distance_row(topo, v):
    """The distance solver's predicates at ``v``, for a table row.

    ``None`` if ``v`` is inconsistent, else ``(compatible, left,
    right)``: ``v``'s Definition 4.2 verdict and, when ``v`` is internal,
    the nodes ``LC(v)`` and ``RC(v)`` lead to (both ``None`` for a leaf).
    """
    if not is_consistent(topo, v):
        return None
    compatible = is_compatible(topo, v)
    if not is_internal(topo, v):
        return (compatible, None, None)
    return (compatible, left_child_node(topo, v), right_child_node(topo, v))


@register_algorithm("balanced-tree/full-gather", problem="balanced-tree")
class BalancedTreeFullGather(FullGatherAlgorithm):
    """Volume O(n) (optimal up to constants by Proposition 4.9)."""

    def __init__(self) -> None:
        super().__init__(reference_solution, name="balanced-tree/full-gather")


# ----------------------------------------------------------------------
# Observation 7.4: BalancedTree in O(log n) CONGEST rounds
# ----------------------------------------------------------------------
class BalancedTreeCongestFlood(CongestAlgorithm):
    """Flood defects up G_T; decide after ~log n rounds.

    Round plan (Observation 7.4's sketch, made concrete):

    1. send own label to all neighbors;
    2. send one's port→neighbor-ID map (O(Δ log n) bits);
    3. compute ID-verified internality (children's parent ports must lead
       back) and broadcast it;
    4. classify (internal / leaf / inconsistent), evaluate Definition 4.2
       compatibility from the collected two-hop information, and start
    5..4+⌈log n⌉+1: defect flooding — a node that is incompatible, or has
       received a defect notice from a G_T child, notifies its G_T parent.

    At the end: incompatible → (U, ⊥); leaves → (B, P(v)); internal nodes
    that heard a defect from below → (U, port of a complaining child);
    otherwise (B, P(v)).  Message sizes are O(Δ log n) = O(log n) bits for
    constant Δ.
    """

    name = "balanced-tree/congest-flood"

    def __init__(self, id_bits: int) -> None:
        self.id_bits = id_bits

    # -- helpers over the collected 2-hop information -------------------
    def init_state(self, info: NodeInfo, n: int) -> dict:
        return {
            "info": info,
            "n": n,
            "rounds_of_flooding": _log2_ceil(n) + 2,
            "labels": {},  # neighbor port -> (id, label)
            "neighbor_ids": {},  # neighbor port -> {their port: id}
            "neighbor_internal": {},  # neighbor port -> bool
            "defect_ports": set(),  # child ports that complained
        }

    def step(self, state, round_index, inbox):
        info: NodeInfo = state["info"]
        label = info.label
        label_bits = 8 * 8  # 8 small port fields, generously 8 bits each
        if round_index == 1:
            message = Message(
                payload=("label", info.node_id, label),
                bits=label_bits + self.id_bits,
            )
            return {port: message for port in info.ports}, None
        if round_index == 2:
            for port, msg in inbox.items():
                _, node_id, their_label = msg.payload
                state["labels"][port] = (node_id, their_label)
            id_map = {
                port: state["labels"][port][0] for port in state["labels"]
            }
            message = Message(
                payload=("ids", id_map),
                bits=self.id_bits * max(1, len(id_map)) + 8,
            )
            return {port: message for port in state["labels"]}, None
        if round_index == 3:
            for port, msg in inbox.items():
                _, id_map = msg.payload
                state["neighbor_ids"][port] = id_map
            state["internal"] = self._is_internal(state)
            message = Message(
                payload=("status", state["internal"]), bits=2
            )
            return {port: message for port in state["labels"]}, None
        if round_index == 4:
            for port, msg in inbox.items():
                _, internal = msg.payload
                state["neighbor_internal"][port] = internal
            # Broadcast the 2-hop status map so neighbors can classify our
            # classification (a leaf must check its lateral neighbors are
            # leaves, which needs *their* parents' internality).
            status_map = dict(state["neighbor_internal"])
            message = Message(
                payload=("status2", state["internal"], status_map),
                bits=2 * max(1, len(status_map)) + 4,
            )
            return {port: message for port in state["labels"]}, None
        if round_index == 5:
            for port, msg in inbox.items():
                _, internal, status_map = msg.payload
                state["neighbor_status_maps"] = state.get(
                    "neighbor_status_maps", {}
                )
                state["neighbor_status_maps"][port] = status_map
            state["leaf"] = (
                not state["internal"]
                and label.parent is not None
                and state["neighbor_internal"].get(label.parent) is True
            )
            state["consistent"] = state["internal"] or state["leaf"]
            state["compatible"] = (
                self._is_compatible(state) if state["consistent"] else None
            )
            return self._flood_step(state, inbox={})
        if round_index < 5 + state["rounds_of_flooding"]:
            return self._flood_step(state, inbox)
        # final round: decide
        for port, msg in inbox.items():
            if msg.payload == "defect":
                state["defect_ports"].add(port)
        return {}, self._decide(state)

    # -- internal ---------------------------------------------------------
    def _resolved(self, state, port) -> Optional[int]:
        entry = state["labels"].get(port)
        return None if entry is None else entry[0]

    def _label_of(self, state, port):
        entry = state["labels"].get(port)
        return None if entry is None else entry[1]

    def _is_internal(self, state) -> bool:
        """Definition 3.3 internality, ID-verified via neighbor port maps."""
        label = state["info"].label
        me = state["info"].node_id
        if label.left_child is None or label.right_child is None:
            return False
        if label.left_child == label.right_child:
            return False
        if label.parent in (label.left_child, label.right_child):
            return False
        for port in (label.left_child, label.right_child):
            their = self._label_of(state, port)
            if their is None or their.parent is None:
                return False
            their_ids = state["neighbor_ids"].get(port, {})
            if their_ids.get(their.parent) != me:
                return False
        return True

    def _is_compatible(self, state) -> bool:
        """Definition 4.2 over the collected two-hop information."""
        label = state["info"].label
        internal = state["internal"]
        me = state["info"].node_id

        def nbr_internal(port) -> Optional[bool]:
            return state["neighbor_internal"].get(port)

        def their_ids(port) -> dict:
            return state["neighbor_ids"].get(port, {})

        def their_label(port):
            return self._label_of(state, port)

        for side, port in (("L", label.left_neighbor), ("R", label.right_neighbor)):
            if port is None:
                continue
            tl = their_label(port)
            if tl is None:
                return False
            # type-preserving
            if internal and not nbr_internal(port):
                return False
            if state["leaf"] and not self._nbr_is_leaf(state, port):
                return False
            # agreement: their opposite lateral pointer names us
            opposite = tl.right_neighbor if side == "L" else tl.left_neighbor
            if opposite is None or their_ids(port).get(opposite) != me:
                return False
        if internal:
            lc, rc = label.left_child, label.right_child
            lcl, rcl = their_label(lc), their_label(rc)
            lc_id = self._resolved(state, lc)
            rc_id = self._resolved(state, rc)
            # siblings
            if (
                lcl.right_neighbor is None
                or their_ids(lc).get(lcl.right_neighbor) != rc_id
            ):
                return False
            if (
                rcl.left_neighbor is None
                or their_ids(rc).get(rcl.left_neighbor) != lc_id
            ):
                return False
            # persistence: RN(RC(v)) = LC(RN(v)) and mirror
            rn, ln = label.right_neighbor, label.left_neighbor
            if rn is not None:
                rnl = their_label(rn)
                lc_of_rn = (
                    their_ids(rn).get(rnl.left_child) if rnl.left_child else None
                )
                rn_of_rc = (
                    their_ids(rc).get(rcl.right_neighbor)
                    if rcl.right_neighbor
                    else None
                )
                if rn_of_rc != lc_of_rn or lc_of_rn is None:
                    return False
            if ln is not None:
                lnl = their_label(ln)
                rc_of_ln = (
                    their_ids(ln).get(lnl.right_child) if lnl.right_child else None
                )
                ln_of_lc = (
                    their_ids(lc).get(lcl.left_neighbor)
                    if lcl.left_neighbor
                    else None
                )
                if ln_of_lc != rc_of_ln or rc_of_ln is None:
                    return False
        return True

    def _nbr_is_leaf(self, state, port) -> bool:
        """Is the node behind ``port`` a leaf (Def 3.3)?  Uses 2-hop data."""
        if state["neighbor_internal"].get(port) is not False:
            return False
        their = self._label_of(state, port)
        if their is None or their.parent is None:
            return False
        status_map = state.get("neighbor_status_maps", {}).get(port, {})
        return status_map.get(their.parent) is True

    def _flood_step(self, state, inbox):
        label = state["info"].label
        for port, msg in inbox.items():
            if msg.payload == "defect":
                state["defect_ports"].add(port)
        should_complain = False
        if state["consistent"] and state["compatible"] is False:
            should_complain = True
        child_ports = {label.left_child, label.right_child}
        if state["defect_ports"] & child_ports:
            should_complain = True
        out = {}
        if (
            should_complain
            and label.parent is not None
            and not state.get("complained", False)
            and self._label_of(state, label.parent) is not None
        ):
            out[label.parent] = Message(payload="defect", bits=2)
            state["complained"] = True
        return out, None

    def _decide(self, state):
        label = state["info"].label
        if not state["consistent"]:
            return (BALANCED, None)
        if state["compatible"] is False:
            return (UNBALANCED, None)
        if state["leaf"]:
            return (BALANCED, label.parent)
        complaining = sorted(
            state["defect_ports"] & {label.left_child, label.right_child}
        )
        if complaining:
            return (UNBALANCED, complaining[0])
        return (BALANCED, label.parent)
