"""Tree-labeling structure: consistency, G_T, levels, and the forest G_k.

This module implements the structural machinery of the paper:

* Definition 3.3 — classification of nodes as **internal**, **leaf** or
  **inconsistent** with respect to a tree labeling.
* Observation 3.7 — the directed pseudo-forest ``G_T`` spanned by consistent
  nodes, with edges from internal parents to their children.
* Lemma 3.8 — every internal node has a descendant leaf within ``log n``
  hops (we expose the witness path).
* Definitions 5.1 / 5.2 — node **levels** (following right-child chains) and
  the **hierarchical forest** ``G_k`` with its per-level backbones.

Everything is written against the tiny :class:`Topology` protocol so the
*same* predicate code is reused in two very different settings:

1. instance-level analysis (validity checkers, reference solvers,
   generators, tests), via :class:`InstanceTopology`, where lookups are
   free; and
2. probe algorithms, via ``repro.model.views.ProbeTopology``, where every
   resolution of a port issues a chargeable ``query`` (Section 2.2).

This matters because the paper repeatedly observes (e.g. Observation 5.3)
that these predicates are computable from O(1)- or O(k)-radius views; using
one implementation guarantees our algorithms check exactly what the
checkers check.

An :class:`InstanceTopology` memoizes per topology object: it reads each
node's label and port row once, and :func:`is_internal` classifies each
node once, so a validator or reference solve that asks about a node many
times pays once.  ``ProbeTopology`` does not, because each of its
resolutions is a charged query that must go through the view; and
``repro.lcl.verifier.LocalityGuard`` checks every read against its ball,
so the predicates recompute through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Set, Tuple

from repro.graphs.labelings import Instance, NodeLabel

INTERNAL = "internal"
LEAF = "leaf"
INCONSISTENT = "inconsistent"


class Topology(Protocol):
    """Minimal node/port access used by all structure predicates."""

    def label(self, node_id: int) -> NodeLabel:
        """The input label of ``node_id``."""

    def node_at(self, node_id: int, port: Optional[int]) -> Optional[int]:
        """The node reached from ``node_id`` via ``port``.

        Returns ``None`` when ``port`` is ``None`` (⊥) or dangling.
        """


class InstanceTopology:
    """Instance-backed :class:`Topology` with free lookups.

    Memoized per topology object: each node's label and port row are read
    from the instance on first use, and :func:`is_internal` keeps each
    node's answer in :attr:`internal_memo`.  The topology therefore
    assumes its instance does not change while it is in use; build a new
    one after editing the instance.

    ``labels``, ``rows`` and ``internal_memo`` prefill the three memos
    with what is already known of the instance: a
    :class:`~repro.model.oracle.CompiledOracle` passes copies of its
    label and port-row tables and its ``is_internal`` memo
    (:meth:`~repro.model.oracle.CompiledOracle.validation_topology`).
    The topology inserts into these dicts on a miss.
    """

    __slots__ = ("_instance", "_labels", "_rows", "internal_memo")

    def __init__(
        self,
        instance: Instance,
        labels: Optional[Dict[int, NodeLabel]] = None,
        rows: Optional[Dict[int, Tuple[Optional[int], ...]]] = None,
        internal_memo: Optional[Dict[int, bool]] = None,
    ) -> None:
        self._instance = instance
        self._labels: Dict[int, NodeLabel] = {} if labels is None else labels
        self._rows: Dict[int, Tuple[Optional[int], ...]] = (
            {} if rows is None else rows
        )
        #: ``is_internal`` per node, filled in as :func:`is_internal` asks.
        self.internal_memo: Dict[int, bool] = (
            {} if internal_memo is None else internal_memo
        )

    @property
    def instance(self) -> Instance:
        """The instance this topology reads."""
        return self._instance

    def label(self, node_id: int) -> NodeLabel:
        label = self._labels.get(node_id)
        if label is None:
            label = self._labels[node_id] = self._instance.label(node_id)
        return label

    def node_at(self, node_id: int, port: Optional[int]) -> Optional[int]:
        if port is None:
            return None
        row = self._rows.get(node_id)
        if row is None:
            row = self._rows[node_id] = self._row(node_id)
        if 1 <= port <= len(row):
            return row[port - 1]
        return None

    def _row(self, node_id: int) -> Tuple[Optional[int], ...]:
        """Every port's endpoint (None if dangling); empty if no such node."""
        graph = self._instance.graph
        if not graph.has_node(node_id):
            return ()
        return tuple(
            graph.neighbor_at(node_id, port)
            for port in range(1, graph.num_ports(node_id) + 1)
        )


# ----------------------------------------------------------------------
# Definition 3.3: internal / leaf / inconsistent
# ----------------------------------------------------------------------
def parent_node(t: Topology, v: int) -> Optional[int]:
    """The node reached via ``P(v)`` (Notation 3.2), or None for ⊥."""
    return t.node_at(v, t.label(v).parent)


def left_child_node(t: Topology, v: int) -> Optional[int]:
    """The node reached via ``LC(v)``, or None for ⊥."""
    return t.node_at(v, t.label(v).left_child)


def right_child_node(t: Topology, v: int) -> Optional[int]:
    """The node reached via ``RC(v)``, or None for ⊥."""
    return t.node_at(v, t.label(v).right_child)


def is_internal(t: Topology, v: int) -> bool:
    """Definition 3.3: ``v`` is internal.

    Requires reciprocated left/right children, distinct child ports, and a
    parent port distinct from both child ports.  A topology that carries
    an ``internal_memo`` dict (:class:`InstanceTopology`,
    :class:`~repro.model.views.ProbeTopology`) answers each node from it
    after the first ask; any other topology recomputes.
    """
    memo = getattr(t, "internal_memo", None)
    if memo is None:
        return _is_internal(t, v)
    internal = memo.get(v)
    if internal is None:
        internal = memo[v] = _is_internal(t, v)
    return internal


def _is_internal(t: Topology, v: int) -> bool:
    lab = t.label(v)
    if lab.left_child is None or lab.right_child is None:
        return False
    if lab.right_child == lab.left_child:
        return False
    if lab.parent is not None and lab.parent in (lab.left_child, lab.right_child):
        return False
    lc = t.node_at(v, lab.left_child)
    if lc is None or parent_node(t, lc) != v:
        return False
    rc = t.node_at(v, lab.right_child)
    if rc is None or parent_node(t, rc) != v:
        return False
    return True


def is_leaf(t: Topology, v: int) -> bool:
    """Definition 3.3: not internal, and the parent exists and is internal."""
    if is_internal(t, v):
        return False
    p = parent_node(t, v)
    return p is not None and is_internal(t, p)


def is_consistent(t: Topology, v: int) -> bool:
    return is_internal(t, v) or is_leaf(t, v)


def classify(t: Topology, v: int) -> str:
    """Return one of :data:`INTERNAL`, :data:`LEAF`, :data:`INCONSISTENT`."""
    if is_internal(t, v):
        return INTERNAL
    p = parent_node(t, v)
    if p is not None and is_internal(t, p):
        return LEAF
    return INCONSISTENT


def classify_all(
    instance: Instance, t: Optional[Topology] = None
) -> Dict[int, str]:
    """Classification of every node of a concrete instance.

    ``t`` is the topology to read it through (a fresh
    :class:`InstanceTopology` by default).
    """
    if t is None:
        t = InstanceTopology(instance)
    return {v: classify(t, v) for v in instance.graph.nodes()}


# ----------------------------------------------------------------------
# Observation 3.7: the directed pseudo-forest G_T
# ----------------------------------------------------------------------
@dataclass
class GTStructure:
    """The directed graph ``G_T`` of Observation 3.7 for a concrete instance.

    ``children[u]`` lists all consistent ``v`` whose parent resolves to the
    internal node ``u`` (the formal edge set ``E_T``); ``parent[v]`` is the
    unique in-neighbor, if any.  On well-formed inputs internal nodes have
    exactly the out-neighbors ``{LC(u), RC(u)}``.
    """

    status: Dict[int, str]
    children: Dict[int, List[int]]
    parent: Dict[int, Optional[int]]

    def nodes(self) -> List[int]:
        return [v for v, s in self.status.items() if s != INCONSISTENT]

    def out_degree(self, v: int) -> int:
        return len(self.children.get(v, []))

    def in_degree(self, v: int) -> int:
        return 1 if self.parent.get(v) is not None else 0


def derive_gt(instance: Instance, t: Optional[Topology] = None) -> GTStructure:
    """Compute ``G_T`` (Observation 3.7) for a concrete instance.

    ``t`` is the topology to read it through (a fresh
    :class:`InstanceTopology` by default).
    """
    if t is None:
        t = InstanceTopology(instance)
    status = classify_all(instance, t)
    children: Dict[int, List[int]] = {v: [] for v in instance.graph.nodes()}
    parent: Dict[int, Optional[int]] = {v: None for v in instance.graph.nodes()}
    for v, s in status.items():
        if s == INCONSISTENT:
            continue
        p = parent_node(t, v)
        if p is not None and status.get(p) == INTERNAL:
            children[p].append(v)
            parent[v] = p
    return GTStructure(status=status, children=children, parent=parent)


def descendant_leaf_path(t: Topology, v: int, limit: int) -> Optional[List[int]]:
    """A shortest-first witness for Lemma 3.8.

    Performs a BFS from the internal node ``v`` following LC/RC child edges
    of ``G_T`` and returns the node path to the nearest leaf, preferring the
    lexicographically least LC/RC sequence among nearest leaves (the Prop 3.9
    tie-break).  Returns None if no leaf is found within ``limit`` hops.
    """
    if not is_internal(t, v):
        return None
    # BFS layer by layer; within a layer, expansion order encodes the
    # lexicographic (LC-before-RC) preference.
    frontier: List[List[int]] = [[v]]
    seen: Set[int] = {v}
    for _ in range(limit):
        next_frontier: List[List[int]] = []
        for path in frontier:
            u = path[-1]
            for child in (left_child_node(t, u), right_child_node(t, u)):
                if child is None or child in seen:
                    continue
                seen.add(child)
                child_path = path + [child]
                if is_leaf(t, child):
                    return child_path
                if is_internal(t, child):
                    next_frontier.append(child_path)
        if not next_frontier:
            return None
        frontier = next_frontier
    return None


# ----------------------------------------------------------------------
# Definitions 5.1 / 5.2: levels and the hierarchical forest G_k
# ----------------------------------------------------------------------
def level_of(t: Topology, v: int, cap: int) -> int:
    """Definition 5.1 level of ``v``, computed by following the RC chain.

    Levels above ``cap`` are reported as ``cap + 1`` (such nodes are exempt
    by validity condition 1 of Definition 5.5).  The computation touches at
    most ``cap + 1`` nodes, matching Observation 5.3.

    A node whose explicit input level is set (Hybrid-THC, Definition 6.1)
    reports that instead.
    """
    explicit = t.label(v).level
    if explicit is not None:
        return min(explicit, cap + 1)
    current = v
    for lvl in range(1, cap + 1):
        rc = right_child_node(t, current)
        if rc is None:
            return lvl
        current = rc
    return cap + 1


def is_level_root(t: Topology, v: int) -> bool:
    """Definition 5.2: ``P(v) = ⊥`` or ``v = RC(P(v))``."""
    p = parent_node(t, v)
    if p is None:
        return True
    return right_child_node(t, p) == v


def is_level_leaf(t: Topology, v: int) -> bool:
    """Definition 5.2: ``LC(v) = ⊥`` (no backbone successor)."""
    return left_child_node(t, v) is None


def backbone_next(t: Topology, v: int, cap: int) -> Optional[int]:
    """The G_k successor of ``v`` along its level backbone.

    This is ``u = LC(v)`` when the edge is reciprocated (``P(u) = v``) and
    ``level(u) = level(v)`` (first bullet of Definition 5.1's edge rule).
    """
    u = left_child_node(t, v)
    if u is None:
        return None
    if parent_node(t, u) != v:
        return None
    if level_of(t, u, cap) != level_of(t, v, cap):
        return None
    return u


def backbone_prev(t: Topology, v: int, cap: int) -> Optional[int]:
    """The G_k predecessor of ``v`` along its level backbone (if any)."""
    p = parent_node(t, v)
    if p is None:
        return None
    if left_child_node(t, p) != v:
        return None
    if level_of(t, p, cap) != level_of(t, v, cap):
        return None
    return p


def hung_subtree_root(t: Topology, v: int, cap: int) -> Optional[int]:
    """The level-(ℓ−1) root hung below ``v`` via its RC edge in G_k.

    This is ``u = RC(v)`` when reciprocated and ``level(v) = level(u) + 1``
    (second bullet of Definition 5.1's edge rule).
    """
    u = right_child_node(t, v)
    if u is None:
        return None
    if parent_node(t, u) != v:
        return None
    if level_of(t, u, cap) + 1 != level_of(t, v, cap):
        return None
    return u


@dataclass
class Backbone:
    """One maximal same-level component of G_k (a path or a cycle).

    Observation 5.4: every such component is a directed path or cycle along
    LC edges.  For a path, ``nodes`` runs root-to-leaf; for a cycle the
    rotation starts at the minimum-ID node.
    """

    nodes: List[int]
    is_cycle: bool
    level: int

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def leaf(self) -> Optional[int]:
        """The level-ℓ leaf (path end), or None for a cycle."""
        return None if self.is_cycle else self.nodes[-1]

    @property
    def root(self) -> Optional[int]:
        """The level-ℓ root (path start), or None for a cycle."""
        return None if self.is_cycle else self.nodes[0]


def backbone_of(
    t: Topology, v: int, cap: int, limit: Optional[int] = None
) -> Backbone:
    """The maximal level backbone through ``v``, walked in both directions.

    ``limit`` truncates the walk after that many *steps in each direction*
    (probe algorithms use this to stay within their budget; the truncated
    object is then only a segment, not the maximal component).
    """
    lvl = level_of(t, v, cap)
    forward: List[int] = [v]
    seen: Set[int] = {v}
    steps = 0
    current = v
    is_cycle = False
    while True:
        nxt = backbone_next(t, current, cap)
        if nxt is None:
            break
        if nxt in seen:
            is_cycle = True
            break
        forward.append(nxt)
        seen.add(nxt)
        current = nxt
        steps += 1
        if limit is not None and steps >= limit:
            break
    if is_cycle and forward[0] == v and backbone_prev(t, v, cap) == forward[-1]:
        # Completed a full cycle through v.
        rotation = min(range(len(forward)), key=lambda i: forward[i])
        nodes = forward[rotation:] + forward[:rotation]
        return Backbone(nodes=nodes, is_cycle=True, level=lvl)
    backward: List[int] = []
    current = v
    steps = 0
    while True:
        prev = backbone_prev(t, current, cap)
        if prev is None or prev in seen:
            if prev is not None and prev in seen:
                is_cycle = True
            break
        backward.append(prev)
        seen.add(prev)
        current = prev
        steps += 1
        if limit is not None and steps >= limit:
            break
    nodes = list(reversed(backward)) + forward
    return Backbone(nodes=nodes, is_cycle=is_cycle, level=lvl)


def hierarchy_subtree_size(
    instance: Instance, root: int, cap: int
) -> int:
    """Size of the G_k component hanging at-or-below ``root``'s backbone.

    Matches Definition 5.10's ``H_ℓ``: the backbone through ``root``
    together with all descendants at lower levels.  Used to classify
    components as light (≤ n^{ℓ/k}) or heavy.
    """
    t = InstanceTopology(instance)
    backbone = backbone_of(t, root, cap)
    total = 0
    stack = list(backbone.nodes)
    seen: Set[int] = set(backbone.nodes)
    while stack:
        u = stack.pop()
        total += 1
        child = hung_subtree_root(t, u, cap)
        if child is not None and child not in seen:
            sub = backbone_of(t, child, cap)
            for w in sub.nodes:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return total


def all_backbones(instance: Instance, cap: int) -> List[Backbone]:
    """All maximal backbones of G_k for a concrete instance."""
    t = InstanceTopology(instance)
    seen: Set[int] = set()
    result: List[Backbone] = []
    for v in instance.graph.nodes():
        if v in seen:
            continue
        bb = backbone_of(t, v, cap)
        seen.update(bb.nodes)
        result.append(bb)
    return result
