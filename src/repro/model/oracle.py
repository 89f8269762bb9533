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
over the same semantics: it precomputes the full ``NodeInfo`` table and
per-port resolution rows in one pass over the graph's port table
(:meth:`~repro.graphs.port_graph.PortGraph.port_rows`), so the
``n x queries`` inner loop of a whole-instance run is pure dict / tuple
indexing with zero per-query allocation.  The execution backends
auto-compile static instances (see :mod:`repro.exec.backends`); results
are bitwise-identical by construction and enforced by the property suite
in ``tests/perf/test_compiled_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol

from repro.graphs.labelings import Instance, NodeLabel
from repro.graphs.port_graph import PortGraphError, PortRow
from repro.graphs.tree_structure import InstanceTopology


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


class CompiledTable:
    """``node_info`` and ``resolve`` answered from two precomputed tables.

    ``info`` maps each node to its :class:`NodeInfo` and ``rows`` to its
    port row (:meth:`~repro.graphs.port_graph.PortGraph.port_rows`).
    :meth:`node_info` is one dict lookup returning a shared (frozen)
    record, and :meth:`resolve` one dict lookup plus a tuple index: no
    port-dict hashing and no per-query ``NodeInfo`` allocation.  An
    unknown node raises :class:`~repro.graphs.port_graph.PortGraphError`
    and an out-of-range port resolves to ``None``, as in
    :class:`StaticOracle`.
    """

    __slots__ = ("_info", "_rows")

    def __init__(
        self,
        info: Dict[int, NodeInfo],
        rows: Dict[int, PortRow],
    ) -> None:
        self._info = info
        self._rows = rows

    def node_info(self, node_id: int) -> NodeInfo:
        try:
            return self._info[node_id]
        except KeyError:
            raise PortGraphError(f"unknown node {node_id}") from None

    def resolve(self, node_id: int, port: int) -> Optional[int]:
        try:
            row = self._rows[node_id]
        except KeyError:
            raise PortGraphError(f"unknown node {node_id}") from None
        if 1 <= port <= len(row):
            return row[port - 1]
        return None


class CompiledOracle(CompiledTable):
    """A :class:`GraphOracle` with the whole answer table precomputed.

    Construction is one O(n * Delta) pass over the graph's port table
    (:meth:`~repro.graphs.port_graph.PortGraph.port_rows`): each node's
    port row, its label and its :class:`NodeInfo`, built as
    :class:`StaticOracle` would build it.  Answers agree with
    ``StaticOracle(instance)`` on every query, including out-of-range
    ports (``None``) and unknown nodes
    (:class:`~repro.graphs.port_graph.PortGraphError`).

    Three readers share these tables (DESIGN.md §6.2): the probe
    executions, the :class:`~repro.model.batched.TreeTable` and the
    validator's topology (:meth:`validation_topology`).  The CSR
    :attr:`frozen_graph` is built on first use.  The tree table and the
    gather kernel keep the tables they read, never the oracle, so a
    dropped oracle is freed by reference counting alone.

    The oracle is a snapshot: it answers for its instance as compiled.
    :meth:`is_current` tells whether the instance still holds the same
    graph and labeling, unchanged.
    """

    def __init__(self, instance: Instance) -> None:
        graph = instance.graph
        labeling = instance.labeling
        self._instance = instance
        self._graph = graph
        self._labeling = labeling
        self._mutations_at_compile = (graph.mutations, labeling.mutations)
        self._frozen = None
        self._kernel = None
        self._tree_table = None
        label_of = labeling.get
        labels: Dict[int, NodeLabel] = {}
        info: Dict[int, NodeInfo] = {}
        rows: Dict[int, PortRow] = {}
        for node_id, row in graph.port_rows():
            label = labels[node_id] = label_of(node_id)
            rows[node_id] = row
            if None in row:
                ports = tuple(
                    [port for port, nbr in enumerate(row, 1) if nbr is not None]
                )
            else:
                ports = tuple(range(1, len(row) + 1))
            info[node_id] = NodeInfo(node_id, len(ports), label, ports)
        super().__init__(info, rows)
        self._labels = labels
        #: ``is_internal`` per node: the tree table fills it as it builds
        #: rows, and every validation topology reads and extends it.
        self._internal: Dict[int, bool] = {}

    @property
    def n(self) -> int:
        return self._instance.n

    @property
    def instance(self) -> Instance:
        return self._instance

    def is_current(self) -> bool:
        """Whether the instance still holds the graph and labeling this
        oracle compiled, with neither mutated since.

        Mutations are counted by
        :attr:`~repro.graphs.port_graph.PortGraph.mutations` and
        :attr:`~repro.graphs.labelings.Labeling.mutations`; a
        :class:`~repro.graphs.labelings.NodeLabel` edited in place is
        not seen.
        """
        instance = self._instance
        return (
            instance.graph is self._graph
            and instance.labeling is self._labeling
            and (self._graph.mutations, self._labeling.mutations)
            == self._mutations_at_compile
        )

    @property
    def frozen_graph(self):
        """The CSR snapshot of the compiled graph, frozen on first use."""
        if self._frozen is None:
            if self._graph.mutations != self._mutations_at_compile[0]:
                raise PortGraphError(
                    "the graph changed after this oracle was compiled"
                )
            self._frozen = self._graph.freeze()
        return self._frozen

    def validation_topology(self) -> InstanceTopology:
        """An :class:`~repro.graphs.tree_structure.InstanceTopology` over
        this oracle's instance, prefilled from copies of its label and
        port-row tables.

        The copies keep the topology's inserts on a miss out of the
        oracle's own tables, so an unknown node still raises here.  Its
        ``is_internal`` memo is the oracle's, which the tree table
        fills as it builds rows.
        """
        return InstanceTopology(
            self._instance,
            labels=dict(self._labels),
            rows=dict(self._rows),
            internal_memo=self._internal,
        )

    def gather_kernel(self):
        """The memoized flat-array gather kernel over this oracle's CSR.

        Built lazily (most oracles never batch) and shared across every
        start node of a run, so the kernel's scratch arrays are allocated
        once per compiled instance.
        """
        if self._kernel is None:
            from repro.model.batched import CsrGatherKernel

            self._kernel = CsrGatherKernel(self.frozen_graph, self._info)
        return self._kernel

    def tree_table(self):
        """The memoized tree-structure table the tree batches use.

        Built lazily like :meth:`gather_kernel`, and filled one node at a
        time as runs reach it; it reads no tape, so every run and trial
        on this oracle shares it.  It reads a :class:`CompiledTable`
        over this oracle's tables, not the oracle.
        """
        if self._tree_table is None:
            from repro.model.batched import TreeTable

            self._tree_table = TreeTable(
                CompiledTable(self._info, self._rows), self._internal
            )
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
