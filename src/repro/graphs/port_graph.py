"""Port-numbered bounded-degree graphs (paper Section 2.1).

The paper's model works on undirected graphs of maximum degree at most a
fixed constant ``Delta`` where every node carries a unique identifier and a
*port ordering*: for each node ``v`` and incident ordered edge ``(v, w)``
there is a port number ``p(v, w)`` in ``[deg(v)]`` such that ``p`` restricted
to ``v`` is a bijection onto ``{1, ..., deg(v)}``.  An algorithm may then
speak unambiguously of "v's i-th neighbor".

:class:`PortGraph` stores exactly this structure.  It is deliberately a plain
adjacency structure with no labels; input labelings live in
:mod:`repro.graphs.labelings` so that the same topology can carry many
labelings (as the lower-bound constructions require).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graphs.frozen import FrozenPortGraph


class PortGraphError(ValueError):
    """Raised when a construction step would violate port-graph invariants."""


#: A node's port row: the neighbor behind each port ``1..k`` in order,
#: ``None`` where the port dangles.
PortRow = Tuple[Optional[int], ...]


@dataclass(frozen=True)
class PortEdge:
    """One ordered edge ``(u, v)`` together with its two port numbers.

    ``u_port`` is ``p(u, v)`` and ``v_port`` is ``p(v, u)``.
    """

    u: int
    v: int
    u_port: int
    v_port: int

    def reversed(self) -> "PortEdge":
        """The same undirected edge viewed from the other endpoint."""
        return PortEdge(self.v, self.u, self.v_port, self.u_port)


class GraphTraversalMixin:
    """Traversals shared by :class:`PortGraph` and ``FrozenPortGraph``.

    Everything here is defined purely in terms of the common query
    surface (``nodes`` / ``neighbors`` / ``has_node``), so both the
    mutable and the CSR-frozen representation get identical semantics
    from one implementation.
    """

    __slots__ = ()  # keep FrozenPortGraph dict-free

    def bfs_distances(
        self, source: int, max_distance: Optional[int] = None
    ) -> Dict[int, int]:
        """BFS distances from ``source``, optionally truncated at a radius."""
        if not self.has_node(source):
            raise PortGraphError(f"unknown node {source}")
        dist = {source: 0}
        frontier = [source]
        d = 0
        while frontier:
            if max_distance is not None and d >= max_distance:
                break
            nxt: List[int] = []
            for u in frontier:
                for w in self.neighbors(u):
                    if w not in dist:
                        dist[w] = d + 1
                        nxt.append(w)
            frontier = nxt
            d += 1
        return dist

    def ball(self, source: int, radius: int) -> List[int]:
        """All nodes within distance ``radius`` of ``source``."""
        return sorted(self.bfs_distances(source, max_distance=radius))

    def connected_components(self) -> List[List[int]]:
        seen: set = set()
        components: List[List[int]] = []
        for start in self.nodes():
            if start in seen:
                continue
            comp = sorted(self.bfs_distances(start))
            seen.update(comp)
            components.append(comp)
        return components

    def to_networkx(self):
        """Export to a :mod:`networkx` graph (used for cross-checks in tests)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.nodes())
        g.add_edges_from((e.u, e.v) for e in self.edges())
        return g


class PortGraph(GraphTraversalMixin):
    """An undirected graph with unique node IDs and per-node port numbering.

    Ports are 1-based, matching the paper's ``[deg(v)]`` convention.  A node
    may be created with a number of *reserved* ports larger than its current
    degree; unassigned ports read as "dangling" (no neighbor yet).  This is
    essential for the adversarial lower-bound processes of Propositions 3.13
    and 5.20, which grow trees lazily and only later decide what (if
    anything) hangs off each port.

    Parameters
    ----------
    max_degree:
        The global degree bound Δ.  Adding more ports than Δ raises.
    """

    def __init__(self, max_degree: int = 3) -> None:
        if max_degree < 1:
            raise PortGraphError(f"max_degree must be >= 1, got {max_degree}")
        self._max_degree = max_degree
        # Free-form graph-level annotations (e.g. the disjointness
        # embedding's coordinate map).  Preserved across freeze()/thaw()
        # and copy(), so structural metadata survives compilation into
        # the CSR fast path and back.
        self.meta: Dict[str, object] = {}
        # node id -> port number -> (neighbor id, neighbor's port) or None
        self._ports: Dict[int, Dict[int, Optional[Tuple[int, int]]]] = {}
        # Incrementally maintained mirrors of the port table, so degree(),
        # num_edges() and the parallel-edge check are O(1) instead of
        # scanning ports (edges are never removed, only added).
        self._degrees: Dict[int, int] = {}
        self._neighbor_sets: Dict[int, Set[int]] = {}
        self._num_edges = 0
        self._mutations = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, num_ports: int = 0) -> int:
        """Add a node with ``num_ports`` reserved (initially dangling) ports."""
        if node_id in self._ports:
            raise PortGraphError(f"duplicate node id {node_id}")
        if num_ports < 0 or num_ports > self._max_degree:
            raise PortGraphError(
                f"num_ports {num_ports} out of range [0, {self._max_degree}]"
            )
        self._ports[node_id] = {p: None for p in range(1, num_ports + 1)}
        self._degrees[node_id] = 0
        self._neighbor_sets[node_id] = set()
        self._mutations += 1
        return node_id

    def reserve_port(self, node_id: int, port: int) -> None:
        """Ensure ``port`` exists (dangling) on ``node_id``.

        Ports between the current maximum and ``port`` are also created so
        that port numbers stay contiguous.
        """
        slots = self._require_node(node_id)
        if port < 1 or port > self._max_degree:
            raise PortGraphError(
                f"port {port} out of range [1, {self._max_degree}]"
            )
        for p in range(1, port + 1):
            slots.setdefault(p, None)
        self._mutations += 1

    def add_edge(self, u: int, u_port: int, v: int, v_port: int) -> None:
        """Connect ``u``'s port ``u_port`` with ``v``'s port ``v_port``."""
        if u == v:
            raise PortGraphError(f"self-loops are not allowed (node {u})")
        self.reserve_port(u, u_port)
        self.reserve_port(v, v_port)
        if self._ports[u][u_port] is not None:
            raise PortGraphError(f"port {u_port} of node {u} already connected")
        if self._ports[v][v_port] is not None:
            raise PortGraphError(f"port {v_port} of node {v} already connected")
        if v in self._neighbor_sets[u]:
            raise PortGraphError(f"parallel edge between {u} and {v}")
        self._ports[u][u_port] = (v, v_port)
        self._ports[v][v_port] = (u, u_port)
        self._neighbor_sets[u].add(v)
        self._neighbor_sets[v].add(u)
        self._degrees[u] += 1
        self._degrees[v] += 1
        self._num_edges += 1
        self._mutations += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def max_degree(self) -> int:
        return self._max_degree

    @property
    def mutations(self) -> int:
        """How many construction calls (``add_node``, ``reserve_port``,
        ``add_edge``) have changed this graph; a compiled table of it is
        current while this count is unchanged."""
        return self._mutations

    @property
    def num_nodes(self) -> int:
        return len(self._ports)

    def __len__(self) -> int:
        return self.num_nodes

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._ports

    def nodes(self) -> Iterator[int]:
        return iter(self._ports)

    def has_node(self, node_id: int) -> bool:
        return node_id in self._ports

    def num_ports(self, node_id: int) -> int:
        """Number of reserved ports (connected or dangling)."""
        return len(self._require_node(node_id))

    def degree(self, node_id: int) -> int:
        """Number of *connected* ports, i.e. the graph-theoretic degree."""
        try:
            return self._degrees[node_id]
        except KeyError:
            raise PortGraphError(f"unknown node {node_id}") from None

    def neighbor_at(self, node_id: int, port: int) -> Optional[int]:
        """The neighbor reached through ``port``, or ``None`` if dangling."""
        slots = self._require_node(node_id)
        if port not in slots:
            raise PortGraphError(f"node {node_id} has no port {port}")
        entry = slots[port]
        return None if entry is None else entry[0]

    def endpoint_port(self, node_id: int, port: int) -> Optional[int]:
        """The *neighbor's* port number for the edge through ``port``."""
        slots = self._require_node(node_id)
        if port not in slots:
            raise PortGraphError(f"node {node_id} has no port {port}")
        entry = slots[port]
        return None if entry is None else entry[1]

    def port_to(self, node_id: int, neighbor_id: int) -> Optional[int]:
        """The port of ``node_id`` leading to ``neighbor_id`` (None if absent)."""
        for port, entry in self._require_node(node_id).items():
            if entry is not None and entry[0] == neighbor_id:
                return port
        return None

    def neighbors(self, node_id: int) -> List[int]:
        """Connected neighbors of ``node_id`` in port order."""
        return [nbr for nbr, _ in self._connected(node_id)]

    def dangling_ports(self, node_id: int) -> List[int]:
        """Reserved but unconnected ports, in increasing order."""
        return sorted(
            p for p, entry in self._require_node(node_id).items() if entry is None
        )

    def edges(self) -> Iterator[PortEdge]:
        """Each undirected edge once, from the lower-id endpoint."""
        for u, slots in self._ports.items():
            for u_port, entry in slots.items():
                if entry is None:
                    continue
                v, v_port = entry
                if u < v:
                    yield PortEdge(u, v, u_port, v_port)

    def num_edges(self) -> int:
        return self._num_edges

    def port_rows(self) -> Iterator[Tuple[int, PortRow]]:
        """Every node with its port row, in insertion order.

        A row holds the neighbor behind ports ``1..num_ports`` (``None``
        for a dangling port), which is what :meth:`neighbor_at` answers
        port by port, read in one pass over the port table.  Like
        :meth:`freeze`, raises :class:`PortGraphError` at a node whose
        ports are not ``1..k``.
        """
        for node_id, slots in self._ports.items():
            try:
                row = tuple(
                    [
                        None if entry is None else entry[0]
                        for entry in map(
                            slots.__getitem__, range(1, len(slots) + 1)
                        )
                    ]
                )
            except KeyError:
                raise PortGraphError(
                    f"node {node_id} has non-contiguous ports {sorted(slots)}"
                ) from None
            yield node_id, row

    def freeze(self) -> "FrozenPortGraph":
        """Compile this graph into a read-only CSR :class:`FrozenPortGraph`.

        The frozen snapshot is independent: later mutations of this graph
        do not show through.  See :mod:`repro.graphs.frozen`.
        """
        from repro.graphs.frozen import FrozenPortGraph

        return FrozenPortGraph(self._max_degree, self._ports, meta=self.meta)

    # ------------------------------------------------------------------
    # algorithms (bfs_distances / ball / connected_components inherited
    # from GraphTraversalMixin)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check all structural invariants; raise :class:`PortGraphError`."""
        for node, slots in self._ports.items():
            ports = sorted(slots)
            if ports != list(range(1, len(ports) + 1)):
                raise PortGraphError(f"node {node} has non-contiguous ports {ports}")
            if len(ports) > self._max_degree:
                raise PortGraphError(f"node {node} exceeds max degree")
            seen_neighbors = set()
            for port, entry in slots.items():
                if entry is None:
                    continue
                nbr, nbr_port = entry
                if nbr not in self._ports:
                    raise PortGraphError(f"edge from {node} to unknown node {nbr}")
                if nbr in seen_neighbors:
                    raise PortGraphError(f"parallel edges at node {node}")
                seen_neighbors.add(nbr)
                back = self._ports[nbr].get(nbr_port)
                if back != (node, port):
                    raise PortGraphError(
                        f"asymmetric edge: {node}:{port} -> {nbr}:{nbr_port}"
                    )

    def copy(self) -> "PortGraph":
        clone = PortGraph(self._max_degree)
        clone.meta = dict(self.meta)
        clone._ports = {n: dict(slots) for n, slots in self._ports.items()}
        clone._degrees = dict(self._degrees)
        clone._neighbor_sets = {n: set(s) for n, s in self._neighbor_sets.items()}
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _require_node(self, node_id: int) -> Dict[int, Optional[Tuple[int, int]]]:
        try:
            return self._ports[node_id]
        except KeyError:
            raise PortGraphError(f"unknown node {node_id}") from None

    def _connected(self, node_id: int) -> Iterator[Tuple[int, int]]:
        for port in sorted(self._require_node(node_id)):
            entry = self._ports[node_id][port]
            if entry is not None:
                yield entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PortGraph(n={self.num_nodes}, m={self.num_edges()}, "
            f"max_degree={self._max_degree})"
        )
