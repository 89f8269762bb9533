"""Compiled read-only port graphs: the CSR fast path behind the oracles.

:class:`~repro.graphs.port_graph.PortGraph` is built for *construction*:
dict-of-dict port slots, lazy port reservation, adversarial incremental
growth.  Once an instance is finished, every probe-model experiment only
ever *reads* it — and reads it ``n x queries`` times, because the runner
executes the algorithm from all ``n`` start nodes.  That read path pays
dict hashing, ``_require_node`` try/except, and tuple unpacking on every
single port resolution.

:meth:`PortGraph.freeze` compiles the finished graph into a
:class:`FrozenPortGraph`: CSR-style flat arrays

* ``port_offsets`` — per-node slice boundaries into the port arrays
  (node ``i``'s ports live at ``port_offsets[i]:port_offsets[i+1]``),
* ``port_endpoints`` — the dense index of the neighbor behind each port
  (``-1`` for a dangling port),
* ``port_back_ports`` — the neighbor's port number for the same edge
  (``0`` for a dangling port),
* ``degrees`` — per-node connected-port counts,

plus an id <-> dense-index mapping (node ids are arbitrary ints; dense
indices are ``0..n-1`` in insertion order).  All queries are O(1) flat
indexing with no per-call allocation; the mutation API raises.  The query
surface mirrors :class:`PortGraph` exactly, so oracles and algorithms can
take either.

The four CSR columns are stored as ``array('q')`` buffers (or, for a
graph attached from a :mod:`multiprocessing.shared_memory` segment via
:meth:`FrozenPortGraph.from_csr`, as ``memoryview`` casts straight into
the shared buffer).  Both expose identical ``int``-per-index semantics;
the shared-memory layer (``repro.exec.shm``) relies on the columns being
contiguous 64-bit signed integers it can copy — or map — byte-for-byte.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.graphs.port_graph import (
    GraphTraversalMixin,
    PortEdge,
    PortGraph,
    PortGraphError,
    PortRow,
)


class FrozenPortGraph(GraphTraversalMixin):
    """An immutable, CSR-packed snapshot of a :class:`PortGraph`.

    Build one via :meth:`PortGraph.freeze` (freezing a frozen graph
    returns it unchanged).  Node ids, port numbers, degrees, edges and
    traversal results are identical to the source graph's; only the
    storage layout and the query cost change.
    """

    __slots__ = (
        "_max_degree",
        "_ids",
        "_index",
        "port_offsets",
        "port_endpoints",
        "port_back_ports",
        "degrees",
        "_num_edges",
        "meta",
    )

    #: A frozen graph never changes (see :attr:`PortGraph.mutations`).
    mutations = 0

    def __init__(
        self,
        max_degree: int,
        ports: Dict[int, Dict[int, Optional[Tuple[int, int]]]],
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        self._max_degree = max_degree
        # Snapshot of the source graph's annotations; preserved by
        # thaw(), so a freeze() -> thaw() round trip is lossless
        # (structure *and* metadata, e.g. disjointness coordinate maps).
        self.meta: Dict[str, object] = dict(meta or {})
        ids: List[int] = list(ports)
        index: Dict[int, int] = {nid: i for i, nid in enumerate(ids)}
        offsets: List[int] = [0] * (len(ids) + 1)
        endpoints: List[int] = []
        back_ports: List[int] = []
        degrees: List[int] = [0] * len(ids)
        connected = 0
        for i, nid in enumerate(ids):
            slots = ports[nid]
            num_ports = len(slots)
            offsets[i + 1] = offsets[i] + num_ports
            degree = 0
            for port in range(1, num_ports + 1):
                if port not in slots:
                    raise PortGraphError(
                        f"node {nid} has non-contiguous ports "
                        f"{sorted(slots)}; cannot freeze"
                    )
                entry = slots[port]
                if entry is None:
                    endpoints.append(-1)
                    back_ports.append(0)
                else:
                    endpoints.append(index[entry[0]])
                    back_ports.append(entry[1])
                    degree += 1
            degrees[i] = degree
            connected += degree
        self._ids = ids
        self._index = index
        self.port_offsets = array("q", offsets)
        self.port_endpoints = array("q", endpoints)
        self.port_back_ports = array("q", back_ports)
        self.degrees = array("q", degrees)
        self._num_edges = connected // 2

    @classmethod
    def from_csr(
        cls,
        max_degree: int,
        ids: Sequence[int],
        offsets: Sequence[int],
        endpoints: Sequence[int],
        back_ports: Sequence[int],
        degrees: Sequence[int],
        num_edges: int,
        meta: Optional[Dict[str, object]] = None,
    ) -> "FrozenPortGraph":
        """Wrap already-packed CSR columns without copying or validating.

        This is the zero-copy attachment path: the column arguments may be
        ``memoryview`` casts into a shared-memory segment (they are stored
        as-is), so a worker process can serve queries straight out of the
        publisher's buffer.  The caller vouches that the columns came from
        a real :class:`FrozenPortGraph` (``repro.exec.shm`` publishes them
        byte-for-byte); only the id -> dense-index map is rebuilt here.
        """
        self = cls.__new__(cls)
        self._max_degree = max_degree
        self.meta = dict(meta or {})
        self._ids = list(ids)
        self._index = {nid: i for i, nid in enumerate(self._ids)}
        self.port_offsets = offsets
        self.port_endpoints = endpoints
        self.port_back_ports = back_ports
        self.degrees = degrees
        self._num_edges = num_edges
        return self

    # ------------------------------------------------------------------
    # construction API: a frozen graph refuses all of it
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, num_ports: int = 0) -> int:
        raise PortGraphError("cannot add_node to a FrozenPortGraph")

    def reserve_port(self, node_id: int, port: int) -> None:
        raise PortGraphError("cannot reserve_port on a FrozenPortGraph")

    def add_edge(self, u: int, u_port: int, v: int, v_port: int) -> None:
        raise PortGraphError("cannot add_edge to a FrozenPortGraph")

    def freeze(self) -> "FrozenPortGraph":
        """Freezing an already-frozen graph is the identity."""
        return self

    def thaw(self) -> PortGraph:
        """An independent mutable :class:`PortGraph` with the same structure.

        Metadata (``meta``) is carried along, so ``freeze()`` → ``thaw()``
        → ``freeze()`` round trips lose nothing.
        """
        clone = PortGraph(self._max_degree)
        clone.meta = dict(self.meta)
        for nid in self._ids:
            clone.add_node(nid, self.num_ports(nid))
        for edge in self.edges():
            clone.add_edge(edge.u, edge.u_port, edge.v, edge.v_port)
        return clone

    # ------------------------------------------------------------------
    # queries (same surface and semantics as PortGraph)
    # ------------------------------------------------------------------
    @property
    def max_degree(self) -> int:
        return self._max_degree

    @property
    def num_nodes(self) -> int:
        return len(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._index

    def nodes(self) -> Iterator[int]:
        return iter(self._ids)

    def has_node(self, node_id: int) -> bool:
        return node_id in self._index

    def num_ports(self, node_id: int) -> int:
        i = self._require(node_id)
        return self.port_offsets[i + 1] - self.port_offsets[i]

    def degree(self, node_id: int) -> int:
        return self.degrees[self._require(node_id)]

    def neighbor_at(self, node_id: int, port: int) -> Optional[int]:
        i = self._require(node_id)
        base = self.port_offsets[i]
        if port < 1 or base + port > self.port_offsets[i + 1]:
            raise PortGraphError(f"node {node_id} has no port {port}")
        endpoint = self.port_endpoints[base + port - 1]
        return None if endpoint < 0 else self._ids[endpoint]

    def endpoint_port(self, node_id: int, port: int) -> Optional[int]:
        i = self._require(node_id)
        base = self.port_offsets[i]
        if port < 1 or base + port > self.port_offsets[i + 1]:
            raise PortGraphError(f"node {node_id} has no port {port}")
        if self.port_endpoints[base + port - 1] < 0:
            return None
        return self.port_back_ports[base + port - 1]

    def port_to(self, node_id: int, neighbor_id: int) -> Optional[int]:
        i = self._require(node_id)
        target = self._index.get(neighbor_id)
        if target is None:
            return None
        base = self.port_offsets[i]
        for offset in range(base, self.port_offsets[i + 1]):
            if self.port_endpoints[offset] == target:
                return offset - base + 1
        return None

    def neighbors(self, node_id: int) -> List[int]:
        i = self._require(node_id)
        ids = self._ids
        return [
            ids[e]
            for e in self.port_endpoints[
                self.port_offsets[i] : self.port_offsets[i + 1]
            ]
            if e >= 0
        ]

    def dangling_ports(self, node_id: int) -> List[int]:
        i = self._require(node_id)
        base = self.port_offsets[i]
        return [
            offset - base + 1
            for offset in range(base, self.port_offsets[i + 1])
            if self.port_endpoints[offset] < 0
        ]

    def edges(self) -> Iterator[PortEdge]:
        ids = self._ids
        offsets = self.port_offsets
        endpoints = self.port_endpoints
        back_ports = self.port_back_ports
        for i, u in enumerate(ids):
            base = offsets[i]
            for offset in range(base, offsets[i + 1]):
                e = endpoints[offset]
                if e >= 0 and u < ids[e]:
                    yield PortEdge(
                        u, ids[e], offset - base + 1, back_ports[offset]
                    )

    def num_edges(self) -> int:
        return self._num_edges

    def port_rows(self) -> Iterator[Tuple[int, PortRow]]:
        """Every node with its port row, in dense-index order (the
        :meth:`PortGraph.port_rows` read over the CSR columns)."""
        ids = self._ids
        offsets = self.port_offsets
        endpoints = self.port_endpoints
        for i, nid in enumerate(ids):
            yield nid, tuple(
                [
                    None if e < 0 else ids[e]
                    for e in endpoints[offsets[i] : offsets[i + 1]]
                ]
            )

    # ------------------------------------------------------------------
    # traversal (bfs_distances / ball / connected_components /
    # to_networkx inherited from GraphTraversalMixin)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Re-check the PortGraph invariants on the packed arrays."""
        for i, nid in enumerate(self._ids):
            base = self.port_offsets[i]
            num_ports = self.port_offsets[i + 1] - base
            if num_ports > self._max_degree:
                raise PortGraphError(f"node {nid} exceeds max degree")
            seen_neighbors = set()
            for port in range(1, num_ports + 1):
                e = self.port_endpoints[base + port - 1]
                if e < 0:
                    continue
                nbr = self._ids[e]
                if nbr in seen_neighbors:
                    raise PortGraphError(f"parallel edges at node {nid}")
                seen_neighbors.add(nbr)
                back_port = self.port_back_ports[base + port - 1]
                if (
                    self.neighbor_at(nbr, back_port) != nid
                    or self.endpoint_port(nbr, back_port) != port
                ):
                    raise PortGraphError(
                        f"asymmetric edge: {nid}:{port} -> {nbr}:{back_port}"
                    )

    def copy(self) -> "FrozenPortGraph":
        """Frozen graphs are immutable; copy is the identity."""
        return self

    # ------------------------------------------------------------------
    def dense_index(self, node_id: int) -> int:
        """The dense CSR index of ``node_id`` (for flat-array consumers)."""
        return self._require(node_id)

    def node_ids(self) -> List[int]:
        """Node ids in dense-index order (a copy)."""
        return list(self._ids)

    def _require(self, node_id: int) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise PortGraphError(f"unknown node {node_id}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenPortGraph(n={self.num_nodes}, m={self._num_edges}, "
            f"max_degree={self._max_degree})"
        )
