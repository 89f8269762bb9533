"""The probe-model execution engine (Section 2.2).

An execution initiated at ``v`` maintains a set ``V_v`` of visited nodes,
initially ``{v}``.  Each step issues ``query(w, j)`` for a visited ``w`` and
port ``j``; the response reveals the endpoint's identity, degree and entire
input (including, for randomized algorithms, access to its random string),
and the endpoint joins ``V_v``.  The two costs of Definitions 2.1 / 2.2:

* ``VOL`` — ``|V_v|`` at termination;
* ``DIST`` — ``max { dist(v, w) : w ∈ V_v }``.

``DIST`` is measured over the *explored* subgraph.  On forests and
pseudo-forests — every instance family in the paper — explored-subgraph
distance equals true graph distance (paths are unique); in general it is an
upper bound.  This is documented in DESIGN.md §1.4.

The engine maintains ``DIST`` **incrementally** (DESIGN.md §6.3): every
visited node carries a distance label that is set when the node is visited
and lowered by a relaxation wave when a later edge insertion shortens a
path (on forests/pseudo-forests at most one such wave fires per closed
cycle).  ``distance_cost()`` is therefore O(1) — it reads the maintained
maximum — instead of re-running a full BFS after every invalidation.  The
reference BFS semantics survive as ``distance_mode="reference"`` /
:meth:`ProbeView.distance_cost_reference`, and the equivalence suite
asserts both paths agree on every run.

The engine enforces the model's information constraints: only visited nodes
may be queried, and random tapes are readable only as the active
:class:`~repro.model.randomness.RandomnessModel` allows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.model.oracle import GraphOracle, NodeInfo
from repro.model.randomness import (
    RandomnessContext,
    RandomnessModel,
    TapeStore,
)


class ProbeError(RuntimeError):
    """An algorithm violated the probe model (e.g. queried an unseen node)."""


class BudgetExceeded(RuntimeError):
    """The execution outgrew its volume or query budget.

    Used for the Remark 3.11 truncation: randomized algorithms with a
    high-probability volume bound are cut off at that bound, and the node
    falls back to an arbitrary output.
    """

    def __init__(self, kind: str, limit: int) -> None:
        super().__init__(f"{kind} budget of {limit} exceeded")
        self.kind = kind
        self.limit = limit


@dataclass
class CostProfile:
    """The measured costs of one per-node execution."""

    volume: int
    distance: int
    queries: int
    random_bits: int
    truncated: bool = False


class ProbeView:
    """What a single per-node execution can see and do.

    The algorithm receives exactly this object.  All information flows
    through :meth:`query`; the initiating node's own info is available for
    free (``V_v`` starts as ``{v}``).

    ``__slots__`` because one view is created per execution and
    :meth:`query` — the engine's hottest function — reads half a dozen
    attributes per call.
    """

    __slots__ = (
        "_oracle",
        "_resolve",
        "_node_info",
        "_start",
        "_randomness",
        "_max_volume",
        "_max_queries",
        "_visited",
        "_adjacency",
        "_queries",
        "_incremental",
        "_dist",
        "_dist_counts",
        "_max_dist",
        "_distance_cache",
    )

    DISTANCE_MODES = ("incremental", "reference")

    def __init__(
        self,
        oracle: GraphOracle,
        start: int,
        randomness: RandomnessContext,
        max_volume: Optional[int] = None,
        max_queries: Optional[int] = None,
        distance_mode: str = "incremental",
    ) -> None:
        if distance_mode not in self.DISTANCE_MODES:
            raise ValueError(
                f"unknown distance_mode {distance_mode!r} "
                f"(expected one of {self.DISTANCE_MODES})"
            )
        self._oracle = oracle
        # Bound methods, so the per-query hot loop skips the attribute
        # chain (the oracle is fixed for the lifetime of the view).
        self._resolve = oracle.resolve
        self._node_info = oracle.node_info
        self._start = start
        self._randomness = randomness
        self._max_volume = max_volume
        self._max_queries = max_queries
        self._visited: Dict[int, NodeInfo] = {}
        self._adjacency: Dict[int, Set[int]] = {start: set()}
        self._queries = 0
        self._incremental = distance_mode == "incremental"
        # Incremental-DIST state: a distance label per *visited* node,
        # bucket counts per distance value, and the current maximum.
        self._dist: Dict[int, int] = {}
        self._dist_counts: List[int] = []
        self._max_dist = 0
        # Reference-mode state: the memoized BFS result.
        self._distance_cache: Optional[int] = None
        if not randomness.has_visibility:
            # The private-randomness discipline needs to know which nodes
            # this execution has visited; the view *is* that knowledge, so
            # the predicate can only be bound once the view exists.  It is
            # the visited dict's own membership test, not ``is_visited``,
            # so the context holds no reference back to the view (which
            # holds the context and the oracle).
            randomness.bind_visibility(self._visited.__contains__)
        self._record_visit(oracle.node_info(start))

    # ------------------------------------------------------------------
    # model interface
    # ------------------------------------------------------------------
    @property
    def start(self) -> int:
        """The node this execution was initiated at."""
        return self._start

    @property
    def start_info(self) -> NodeInfo:
        return self._visited[self._start]

    @property
    def n(self) -> int:
        """The number of nodes, provided as input to every algorithm."""
        return self._oracle.n

    @property
    def scope(self) -> GraphOracle:
        """The oracle this execution explores, as an identity only.

        Executions with the same scope (compared with ``is``) explore the
        same instance, so an algorithm may share work between them that
        depends only on what each gathered.  Reading the instance through
        it instead of :meth:`query` would bypass the model's accounting.
        """
        return self._oracle

    def query(self, node_id: int, port: int) -> Optional[NodeInfo]:
        """Issue ``query(node_id, port)``; returns the endpoint's info.

        ``node_id`` must already be visited.  A dangling or out-of-range
        port returns ``None`` (the query is still counted).
        """
        visited = self._visited
        if node_id not in visited:
            raise ProbeError(
                f"query at unvisited node {node_id} (start {self._start})"
            )
        self._queries += 1
        if self._max_queries is not None and self._queries > self._max_queries:
            raise BudgetExceeded("query", self._max_queries)
        endpoint = self._resolve(node_id, port)
        if endpoint is None:
            return None
        adjacency = self._adjacency
        # Every visited node has an adjacency entry (the start node's is
        # created in __init__, every other node's when the edge it was
        # reached through is recorded), so index directly.
        nbrs = adjacency[node_id]
        if endpoint not in nbrs:
            nbrs.add(endpoint)
            back = adjacency.get(endpoint)
            if back is None:
                back = adjacency[endpoint] = set()
            back.add(node_id)
            new_edge = True
            if not self._incremental:
                self._distance_cache = None
        else:
            new_edge = False
        info = visited.get(endpoint)
        if info is not None:
            if new_edge and self._incremental:
                # A new explored edge between two visited nodes can
                # shorten distances (e.g. closing a cycle): relax.
                self._relax_edge(node_id, endpoint)
            return info
        if (
            self._max_volume is not None
            and len(visited) + 1 > self._max_volume
        ):
            raise BudgetExceeded("volume", self._max_volume)
        info = self._node_info(endpoint)
        self._record_visit(info, via=node_id)
        return info

    def info(self, node_id: int) -> NodeInfo:
        """Re-read a visited node's info (free: no new query)."""
        try:
            return self._visited[node_id]
        except KeyError:
            raise ProbeError(f"node {node_id} has not been visited") from None

    def is_visited(self, node_id: int) -> bool:
        return node_id in self._visited

    def random_bit(self, node_id: int, index: int) -> int:
        """Read bit ``index`` of ``r_{node_id}`` (discipline permitting)."""
        return self._randomness.bit(node_id, index)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def volume(self) -> int:
        return len(self._visited)

    @property
    def queries(self) -> int:
        return self._queries

    def distance_cost(self) -> int:
        """``max dist(start, w)`` over visited ``w`` in the explored graph.

        In the default ``incremental`` mode this reads the maintained
        maximum — O(1), no matter how the exploration interleaved queries
        and cost reads.  In ``reference`` mode it is the memoized full
        BFS (invalidated whenever the explored graph grows), kept as the
        executable specification the incremental labels are tested
        against.
        """
        if self._incremental:
            return self._max_dist
        if self._distance_cache is not None:
            return self._distance_cache
        self._distance_cache = self.distance_cost_reference()
        return self._distance_cache

    def distance_cost_reference(self) -> int:
        """The BFS-from-scratch reference for :meth:`distance_cost`.

        Always recomputed; used by the equivalence tests to check the
        incremental labels, and by ``reference`` mode (memoized there).
        """
        dist = {self._start: 0}
        frontier = [self._start]
        best = 0
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for w in self._adjacency.get(u, ()):
                    if w in self._visited and w not in dist:
                        dist[w] = dist[u] + 1
                        best = max(best, dist[w])
                        nxt.append(w)
            frontier = nxt
        return best

    def cost_profile(self, truncated: bool = False) -> CostProfile:
        return CostProfile(
            volume=self.volume,
            distance=self.distance_cost(),
            queries=self._queries,
            random_bits=self._randomness.bits_read,
            truncated=truncated,
        )

    # ------------------------------------------------------------------
    # incremental DIST maintenance (DESIGN.md §6.3)
    #
    # Invariant: after every public operation, ``self._dist[w]`` is the
    # explored-subgraph distance from ``start`` to ``w`` for every
    # *visited* ``w`` (unvisited endpoints of explored edges carry no
    # label and never relay a wave, matching the reference BFS, which
    # neither labels nor expands them), and ``self._max_dist`` is the
    # maximum label.  Labels only ever decrease once set, so each
    # relaxation wave terminates and total wave work is bounded by the
    # total label decrease.
    # ------------------------------------------------------------------
    def _record_visit(self, info: NodeInfo, via: Optional[int] = None) -> None:
        node = info.node_id
        self._visited[node] = info
        if not self._incremental:
            self._distance_cache = None
            return
        dist = self._dist
        if via is not None and len(self._adjacency[node]) == 1:
            # Fast path (every visit on a tree): the node's only explored
            # edge is the one it was just reached through, so its label
            # is forced and — with a single edge — it cannot serve as an
            # intermediate hop that shortens any other label.
            d = dist[via] + 1
            dist[node] = d
            counts = self._dist_counts
            if d == len(counts):
                counts.append(1)
            else:
                counts[d] += 1
            if d > self._max_dist:
                self._max_dist = d
            return
        if not dist:
            # The first visit is the start node itself.
            self._set_dist(node, 0)
            return
        # The node was reached through at least one visited (hence
        # labeled) neighbor; its explored distance is one more than the
        # nearest labeled neighbor.
        d = 1 + min(
            dist[x] for x in self._adjacency.get(node, ()) if x in dist
        )
        self._set_dist(node, d)
        # Becoming visited makes the node usable as an intermediate hop:
        # paths through it may now shorten other labels.
        self._relax_wave(node)

    def _relax_edge(self, u: int, w: int) -> None:
        """A new explored edge ``{u, w}``: lower whichever side it helps."""
        dist = self._dist
        du = dist.get(u)
        dw = dist.get(w)
        if du is None or dw is None:
            # At least one endpoint is unvisited: it carries no label and
            # cannot shorten paths until (unless) it is visited.
            return
        if du + 1 < dw:
            self._set_dist(w, du + 1)
            self._relax_wave(w)
        elif dw + 1 < du:
            self._set_dist(u, dw + 1)
            self._relax_wave(u)

    def _relax_wave(self, source: int) -> None:
        """Propagate a label decrease at ``source`` through the labels."""
        dist = self._dist
        adjacency = self._adjacency
        queue = deque((source,))
        while queue:
            u = queue.popleft()
            through = dist[u] + 1
            for w in adjacency.get(u, ()):
                dw = dist.get(w)
                if dw is not None and dw > through:
                    self._set_dist(w, through)
                    queue.append(w)

    def _set_dist(self, node: int, d: int) -> None:
        """Write a label and maintain the bucket counts / running max."""
        counts = self._dist_counts
        old = self._dist.get(node)
        self._dist[node] = d
        while len(counts) <= d:
            counts.append(0)
        counts[d] += 1
        if old is not None:
            counts[old] -= 1
            if old == self._max_dist and counts[old] == 0:
                m = self._max_dist
                while m > 0 and counts[m] == 0:
                    m -= 1
                self._max_dist = m
        if d > self._max_dist:
            self._max_dist = d


class ProbeAlgorithm:
    """Base class for per-node probe algorithms.

    Subclasses implement :meth:`run`, returning the node's output (any
    hashable value; problems define their own output conventions).  If the
    engine raises :class:`BudgetExceeded`, the runner calls
    :meth:`fallback`, the "arbitrary output" of the Remark 3.11 truncation.
    """

    name: str = "probe-algorithm"
    randomness: RandomnessModel = RandomnessModel.DETERMINISTIC

    def run(self, view: ProbeView):
        raise NotImplementedError

    def run_node_batch(self, oracle, nodes, tapes=None):
        """Optional batched run fast path; ``None`` = unsupported.

        Implementations must return, for the given start nodes in order,
        exactly the ``(node, output, CostProfile)`` triples that per-node
        :func:`execute_at` calls would have produced, each with its own
        profile object — the dispatcher
        (``repro.exec.backends._execute_nodes``) treats the batch as a
        drop-in replacement and the equivalence suites enforce bitwise
        identity.  Only ever invoked for unbudgeted runs on the
        incremental engine (no volume/query truncation).  ``tapes`` is
        the run's :class:`~repro.model.randomness.TapeStore` (``None``
        for a deterministic algorithm); a randomized batch reads its
        bits there, in the scalar order, so the store ends as the scalar
        loop would leave it, and decides to return ``None`` before it
        reads any.  Full-gather algorithms implement it over the
        flat-array CSR kernel (:mod:`repro.model.batched`); the cycle
        algorithms over one scalar execution, whose profile every start
        node of a port-uniform cycle shares, and one pass over the ring.
        The random walks, the tree-distance solvers and the THC solvers
        inherit it from :class:`~repro.model.batched.ReplayedAlgorithm`:
        their one body, which :meth:`run` runs live, is replayed per
        start over the compiled oracle's table of predicate rows and
        level-1 gather records, and a start whose body asks for a live
        query (BalancedTree's gather fallback) runs :func:`execute_at`
        inside the batch.  Returning ``None`` — the default, and the
        right answer whenever the batch's argument does not cover
        ``oracle`` and ``nodes`` — selects the scalar engine.
        """
        return None

    def fallback(self, view: ProbeView):
        """Output to emit when truncated (default: the node's input color)."""
        label = view.start_info.label
        return label.color

    @property
    def is_randomized(self) -> bool:
        return self.randomness is not RandomnessModel.DETERMINISTIC


def execute_at(
    oracle: GraphOracle,
    algorithm: ProbeAlgorithm,
    node: int,
    tape_store: Optional[TapeStore] = None,
    max_volume: Optional[int] = None,
    max_queries: Optional[int] = None,
    distance_mode: str = "incremental",
):
    """Run ``algorithm`` from ``node``; returns ``(output, CostProfile)``.

    Budget overruns are converted into the algorithm's fallback output with
    ``truncated=True`` in the profile, matching Remark 3.11.
    ``distance_mode`` selects how the view maintains ``DIST`` (the value
    is identical either way; ``"reference"`` exists for benchmarking and
    the equivalence suite).
    """
    context = RandomnessContext(tape_store, algorithm.randomness, node)
    view = ProbeView(
        oracle,
        node,
        context,  # ProbeView binds its visited-set predicate to the context
        max_volume=max_volume,
        max_queries=max_queries,
        distance_mode=distance_mode,
    )
    try:
        output = algorithm.run(view)
        return output, view.cost_profile()
    except BudgetExceeded:
        return algorithm.fallback(view), view.cost_profile(truncated=True)
