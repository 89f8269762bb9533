"""Adapters between probe executions and higher-level vocabularies.

* :class:`ProbeTopology` exposes a :class:`~repro.graphs.tree_structure.Topology`
  over a live :class:`~repro.model.probe.ProbeView`, so the structure
  predicates (is_internal, level_of, backbone navigation, ...) can be used
  *inside* algorithms, with every port resolution charged as a query.

* :func:`gather_ball` implements LOCAL-style exploration (Remark 2.3): a
  distance-T algorithm is a probe algorithm that collects the radius-T
  ball.  The distance cost of such an execution is exactly T (Lemma 2.5's
  simulation argument), and its volume is the ball size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.graphs.labelings import NodeLabel
from repro.model.oracle import NodeInfo
from repro.model.probe import ProbeView


class ProbeTopology:
    """Query-backed :class:`Topology`: resolutions cost probe queries.

    Resolutions are memoized per (node, port) so that predicate code can be
    written naturally; re-resolving an edge re-reads cached info and issues
    no new query (volume is unaffected either way, per Definition 2.2).
    :func:`~repro.graphs.tree_structure.is_internal` keeps each node's
    answer in :attr:`internal_memo`; recomputing it would only re-read
    those memoized resolutions.
    """

    def __init__(self, view: ProbeView) -> None:
        self._view = view
        self._resolved: Dict[tuple, Optional[int]] = {}
        #: ``is_internal`` per node, filled in as :func:`is_internal` asks.
        self.internal_memo: Dict[int, bool] = {}

    def label(self, node_id: int) -> NodeLabel:
        return self._view.info(node_id).label

    def node_at(self, node_id: int, port: Optional[int]) -> Optional[int]:
        if port is None:
            return None
        key = (node_id, port)
        if key not in self._resolved:
            info = self._view.query(node_id, port)
            self._resolved[key] = None if info is None else info.node_id
        return self._resolved[key]


@dataclass
class Ball:
    """A gathered radius-``radius`` ball around ``center``.

    ``distance[w]`` is the BFS depth at which ``w`` was discovered, and
    ``adjacency`` covers every explored edge (both directions).
    """

    center: int
    radius: int
    info: Dict[int, NodeInfo] = field(default_factory=dict)
    distance: Dict[int, int] = field(default_factory=dict)
    adjacency: Dict[int, Dict[int, int]] = field(default_factory=dict)
    # adjacency[u][port] = neighbor id

    def nodes(self) -> List[int]:
        return sorted(self.distance)

    def neighbors(self, node_id: int) -> List[int]:
        return list(self.adjacency.get(node_id, {}).values())

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.distance


def gather_ball(view: ProbeView, radius: int, center: Optional[int] = None) -> Ball:
    """Collect the radius-``radius`` ball around ``center`` by BFS.

    ``center`` defaults to the execution's start node (and must be visited
    already).  Every port of every frontier node is probed once.
    """
    start = view.start if center is None else center
    ball = Ball(center=start, radius=radius)
    # Local bindings: this loop issues the bulk of all probe queries in
    # the repo (every full-gather run from every start node), so the
    # attribute lookups are hoisted out of it.
    info_map = ball.info
    distance = ball.distance
    adjacency = ball.adjacency
    query = view.query
    info_map[start] = view.info(start)
    distance[start] = 0
    frontier = [start]
    for depth in range(1, radius + 1):
        nxt: List[int] = []
        for u in frontier:
            row = None
            for port in info_map[u].ports:
                endpoint = query(u, port)
                if endpoint is None:
                    continue
                if row is None:
                    row = adjacency.setdefault(u, {})
                node = endpoint.node_id
                row[port] = node
                if node not in distance:
                    distance[node] = depth
                    info_map[node] = endpoint
                    nxt.append(node)
        frontier = nxt
        if not frontier:
            break
    return ball
