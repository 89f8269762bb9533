"""Graph oracles: how a probe execution learns about the input graph.

The probe engine never touches an :class:`~repro.graphs.labelings.Instance`
directly; it asks a :class:`GraphOracle`.  This indirection is what lets the
lower-bound processes of Propositions 3.13 and 5.20 be implemented exactly
as the paper specifies them: the adversary *is* an oracle that constructs
the graph lazily in response to the algorithm's queries.

:class:`StaticOracle` is the ordinary case: a fixed labeled graph.  It is
the *reference semantics*: every query walks the live
:class:`~repro.graphs.port_graph.PortGraph` and rebuilds a
:class:`NodeInfo` from scratch.  :class:`CompiledOracle` is the fast path
over the same semantics: it freezes the graph
(:meth:`~repro.graphs.port_graph.PortGraph.freeze`) and precomputes the
full ``NodeInfo`` table and per-port resolution rows once per instance,
so the ``n x queries`` inner loop of a whole-instance run is pure dict /
tuple indexing with zero per-query allocation.  The execution backends
auto-compile static instances (see :mod:`repro.exec.backends`); results
are bitwise-identical by construction and enforced by the property suite
in ``tests/perf/test_compiled_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.graphs.labelings import Instance, NodeLabel
from repro.graphs.port_graph import PortGraphError


@dataclass(frozen=True)
class NodeInfo:
    """What a query (or the initial self-inspection) reveals about a node.

    Section 2.2: the response to ``query(w, j)`` carries the identity of the
    endpoint, its degree, and its entire input.  ``ports`` lists the node's
    *connected* port numbers: in the paper ports are exactly
    ``1..deg(v)`` (all connected), so this is redundant there; we expose
    the list because our builders follow the paper's looser conventions
    (e.g. lateral edges on ports 4/5 regardless of degree), and it
    restores exactly the information an algorithm would have had under
    strict numbering — which edges exist — and nothing more.
    """

    node_id: int
    degree: int
    label: NodeLabel
    ports: tuple  # the node's *connected* ports (see docstring above)


class GraphOracle(Protocol):
    """The interface the probe engine uses to explore an input."""

    @property
    def n(self) -> int:
        """The advertised number of nodes (given to every algorithm)."""

    def node_info(self, node_id: int) -> NodeInfo:
        """Inspect a node (used for the initiating node, which is free)."""

    def resolve(self, node_id: int, port: int) -> Optional[int]:
        """The node on the other end of ``(node_id, port)``, or None."""


class StaticOracle:
    """A :class:`GraphOracle` over a concrete, fully built instance."""

    def __init__(self, instance: Instance) -> None:
        self._instance = instance

    @property
    def n(self) -> int:
        return self._instance.n

    @property
    def instance(self) -> Instance:
        return self._instance

    def node_info(self, node_id: int) -> NodeInfo:
        graph = self._instance.graph
        ports = tuple(
            p
            for p in range(1, graph.num_ports(node_id) + 1)
            if graph.neighbor_at(node_id, p) is not None
        )
        return NodeInfo(
            node_id=node_id,
            degree=graph.degree(node_id),
            label=self._instance.label(node_id),
            ports=ports,
        )

    def resolve(self, node_id: int, port: int) -> Optional[int]:
        graph = self._instance.graph
        if port < 1 or port > graph.num_ports(node_id):
            return None
        return graph.neighbor_at(node_id, port)


class CompiledOracle:
    """A :class:`GraphOracle` with the whole answer table precomputed.

    Construction is one O(n * Delta) pass: the instance's graph is frozen
    into a CSR :class:`~repro.graphs.frozen.FrozenPortGraph`, every
    node's :class:`NodeInfo` is built exactly as :class:`StaticOracle`
    would build it, and every ``resolve`` row is flattened into a tuple.
    After that, :meth:`node_info` is one dict lookup returning a shared
    (frozen) record, and :meth:`resolve` is one dict lookup plus a tuple
    index — no port-dict hashing, no ``_require_node`` try/except, no
    per-query ``NodeInfo`` allocation.

    Answers agree with ``StaticOracle(instance)`` on every query,
    including out-of-range ports (``None``) and unknown nodes
    (:class:`~repro.graphs.port_graph.PortGraphError`).
    """

    def __init__(self, instance: Instance) -> None:
        self._instance = instance
        self._kernel = None
        self._tree_table = None
        frozen = instance.graph.freeze()
        self._frozen = frozen
        info: Dict[int, NodeInfo] = {}
        resolved: Dict[int, Tuple[Optional[int], ...]] = {}
        for node_id in frozen.nodes():
            row = tuple(
                frozen.neighbor_at(node_id, port)
                for port in range(1, frozen.num_ports(node_id) + 1)
            )
            resolved[node_id] = row
            info[node_id] = NodeInfo(
                node_id=node_id,
                degree=frozen.degree(node_id),
                label=instance.label(node_id),
                ports=tuple(
                    port for port, nbr in enumerate(row, start=1)
                    if nbr is not None
                ),
            )
        self._info = info
        self._resolved = resolved

    @property
    def n(self) -> int:
        return self._instance.n

    @property
    def instance(self) -> Instance:
        return self._instance

    @property
    def frozen_graph(self):
        """The CSR snapshot backing this oracle."""
        return self._frozen

    def node_info(self, node_id: int) -> NodeInfo:
        try:
            return self._info[node_id]
        except KeyError:
            raise PortGraphError(f"unknown node {node_id}") from None

    def resolve(self, node_id: int, port: int) -> Optional[int]:
        try:
            row = self._resolved[node_id]
        except KeyError:
            raise PortGraphError(f"unknown node {node_id}") from None
        if 1 <= port <= len(row):
            return row[port - 1]
        return None

    # ------------------------------------------------------------------
    # batched surface (the flat-array kernel layer, DESIGN.md §9.3)
    # ------------------------------------------------------------------
    def resolve_many(
        self, queries: Iterable[Tuple[int, int]]
    ) -> List[Optional[int]]:
        """Resolve a whole batch of ``(node, port)`` pairs in one call.

        Answers element-for-element what per-pair :meth:`resolve` calls
        would have returned (including ``None`` for out-of-range ports
        and :class:`PortGraphError` for unknown nodes); batch consumers
        amortize the method dispatch over the precomputed row table.
        """
        resolved = self._resolved
        out: List[Optional[int]] = []
        append = out.append
        for node_id, port in queries:
            try:
                row = resolved[node_id]
            except KeyError:
                raise PortGraphError(f"unknown node {node_id}") from None
            append(row[port - 1] if 1 <= port <= len(row) else None)
        return out

    def node_info_many(self, node_ids: Sequence[int]) -> List[NodeInfo]:
        """The :class:`NodeInfo` records for a batch of nodes."""
        info = self._info
        try:
            return [info[node_id] for node_id in node_ids]
        except KeyError as exc:
            raise PortGraphError(f"unknown node {exc.args[0]}") from None

    def gather_kernel(self):
        """The memoized flat-array gather kernel over this oracle's CSR.

        Built lazily (most oracles never batch) and shared across every
        start node of a run, so the kernel's scratch arrays are allocated
        once per compiled instance.
        """
        if self._kernel is None:
            from repro.model.batched import CsrGatherKernel

            self._kernel = CsrGatherKernel(self)
        return self._kernel

    def tree_table(self):
        """The memoized tree-structure table the random-walk batches use.

        Built lazily like :meth:`gather_kernel`, and filled one node at a
        time as walks reach it; it reads no tape, so every run and trial
        on this oracle shares it.
        """
        if self._tree_table is None:
            from repro.model.batched import TreeTable

            self._tree_table = TreeTable(self)
        return self._tree_table


def compile_oracle(instance: Instance) -> CompiledOracle:
    """Compile ``instance`` into a :class:`CompiledOracle`.

    The compiled table is a pure function of the instance, so callers
    that run many whole-instance passes over one instance (trial loops,
    ablations) should build it once and reuse it —
    :class:`~repro.exec.backends.SerialBackend` keeps the oracle of the
    instance it ran last for exactly that.
    """
    return CompiledOracle(instance)
