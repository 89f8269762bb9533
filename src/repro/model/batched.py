"""Batched flat-array gather kernels over compiled CSR instances.

The scalar engine (:mod:`repro.model.probe` + :func:`repro.model.views.
gather_ball`) executes one node's exploration at a time through a
:class:`~repro.model.probe.ProbeView`, paying per-query bookkeeping
(visited dict, adjacency sets, incremental-DIST labels) on every probe.
For the repo's dominant workload — deterministic full-gather algorithms
run from *every* start node — all of that bookkeeping is recomputable
from the CSR arrays directly: a whole-run batch of start nodes advances
as flat frontier arrays of dense indices over ``port_offsets`` /
``port_endpoints``, with a stamped scratch array replacing the per-start
visited set.

:class:`CsrGatherKernel` provides three tiers:

* :meth:`summarize` — ``(ball size, eccentricity, queries)`` for one
  start, touching nothing but flat ``int`` arrays.  This is what
  summary-style gather algorithms (the hot-path bench's pure gather)
  consume; it allocates no per-node Python objects at all.
* :meth:`ball` — a **bit-exact replica** of
  ``gather_ball(view, radius)``: the same :class:`~repro.model.views.
  Ball` content *and insertion orders* (discovery order, port order,
  adjacency row creation order), plus the exact
  :class:`~repro.model.probe.CostProfile` the scalar engine would have
  produced.  Full-gather algorithms rebuild and reference-solve it once
  per component and give the component's other start nodes their entry
  of that solve; outputs equal the scalar path's because every
  full-gather reference is independent of node insertion order
  (DESIGN.md §9.3).
* :meth:`eccentricities` — every component member's eccentricity in
  one call.  A full gather from any member of a component has the same
  volume and queries, so a later start node's profile takes those from
  the first ball and only its distance from here: three BFS on a tree
  component, one depth-only BFS per member on any other.

Correctness argument (DESIGN.md §9.3): ``gather_ball`` is a level-order
BFS probing each expanded node's *connected* ports in ascending order —
exactly the order the CSR row stores them — so replaying that loop over
the flat arrays visits the same nodes in the same order and issues the
same query count.  The scalar profile's ``distance`` equals the maximum
BFS depth: discovery depth is the true component distance (BFS over all
edges of every expanded node), the explored subgraph is a subgraph of
the component (so explored distances are ≥ true distances) and contains
every discovery edge (so they are ≤ the depth); the incremental-DIST
labels therefore never relax below depth and the maximum label is the
maximum depth.  ``volume`` equals the ball size because every queried
endpoint joins the ball in the same iteration it becomes visited.  The
scalar path survives untouched as the reference semantics; the
equivalence suite (``tests/perf`` + ``tests/model/test_batched_kernel``)
pins batched == scalar on every registry cell.

The kernel only ever *applies* when the scalar run would have been
unbudgeted on the compiled engine — the dispatch gate in
``repro.exec.backends._execute_nodes`` requires the incremental engine
and no volume/query budget (truncation semantics stay with the scalar
engine), and the kernel itself exists only on a compiled oracle.

:class:`TreeTable` holds the predicate rows the tree batches replay
(DESIGN.md §9.3): per node, what a fresh-memo predicate answers and which
port resolutions it issues, and one :class:`GatherRecord` per Hybrid-THC
level-1 component.  It reads no tape, so every run and trial on one
compiled oracle shares it.

The random walks, the tree-distance solvers and the THC solvers each
have one body, ``_start(view, topo)``, that reads structure only through
``topo.row`` and ``topo.level_one_component``.  :class:`ReplayedAlgorithm`
runs it live over a :class:`~repro.model.views.ProbeTopology` in ``run``
and, in ``run_node_batch``, replays it per start over a
:class:`ReplayTopology`, which answers each read from the table and notes
it, and a :class:`ReplayView`, which counts the tape bits the body reads.
:func:`resolution_profile` turns what a start noted into its scalar
profile.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.model.probe import CostProfile, ProbeAlgorithm, execute_at
from repro.model.randomness import RandomnessModel
from repro.model.views import (
    Ball,
    ProbeTopology,
    gather_level_one_component,
)


class CsrGatherKernel:
    """Flat-array gather engine for one compiled oracle's CSR snapshot.

    One kernel is memoized per :class:`~repro.model.oracle.CompiledOracle`
    (see :meth:`~repro.model.oracle.CompiledOracle.gather_kernel`), so
    its scratch arrays are shared by every start node of a whole-run
    batch — the per-start cost is the BFS itself, nothing else.  It
    keeps the frozen graph and the oracle's ``NodeInfo`` table, not the
    oracle.
    """

    __slots__ = (
        "_info",
        "_frozen",
        "_ids",
        "_offsets",
        "_endpoints",
        "_seen",
        "_stamp",
    )

    def __init__(self, frozen, info) -> None:
        self._info = info
        self._frozen = frozen
        self._ids = frozen.node_ids()
        self._offsets = frozen.port_offsets
        self._endpoints = frozen.port_endpoints
        # Stamped scratch: bumping the stamp "clears" the visited marks
        # for the next start without touching n entries.
        self._seen = [0] * frozen.num_nodes
        self._stamp = 0

    def summarize(self, start_id: int, radius: int) -> Tuple[int, int, int]:
        """``(ball size, max depth, queries)`` of a radius-bounded gather.

        Matches ``gather_ball(view, radius)`` started at ``start_id``:
        size is the number of distinct nodes discovered, max depth is the
        scalar profile's ``distance``, and queries counts one probe per
        connected port of every expanded node (nodes discovered at depth
        ``radius`` are never expanded, exactly as in the scalar loop).
        """
        offsets = self._offsets
        endpoints = self._endpoints
        seen = self._seen
        self._stamp += 1
        stamp = self._stamp
        start = self._frozen.dense_index(start_id)
        seen[start] = stamp
        frontier: List[int] = [start]
        size = 1
        depth_max = 0
        queries = 0
        for depth in range(1, radius + 1):
            nxt: List[int] = []
            for u in frontier:
                for off in range(offsets[u], offsets[u + 1]):
                    e = endpoints[off]
                    if e < 0:
                        continue
                    queries += 1
                    if seen[e] != stamp:
                        seen[e] = stamp
                        nxt.append(e)
            if not nxt:
                break
            frontier = nxt
            size += len(nxt)
            depth_max = depth
        return size, depth_max, queries

    def eccentricities(self, start_id: int) -> Dict[int, int]:
        """Each member of ``start_id``'s component -> its eccentricity.

        A full gather explores the whole component, so a member's profile
        distance is its eccentricity.  The component is a tree exactly
        when a full gather's queries are ``2 * (size - 1)``: each edge is
        probed once from either end and a connected graph on ``size``
        nodes has at least ``size - 1`` edges.  On a tree, with ``a`` the
        last node a BFS from the start reaches and ``b`` the last node a
        BFS from ``a`` reaches, ``(a, b)`` is a diameter and every node's
        farthest node is ``a`` or ``b``, so ``ecc(v) = max(d(v, a),
        d(v, b))``.  Any other component runs one depth-only BFS per
        member over neighbour lists built here (DESIGN.md §9.3).
        """
        ids = self._ids
        depth, queries = self._bfs(self._frozen.dense_index(start_id))
        size = len(depth)
        if queries == 2 * (size - 1):
            from_a, _ = self._bfs(next(reversed(depth)))
            from_b, _ = self._bfs(next(reversed(from_a)))
            return {ids[v]: max(d, from_b[v]) for v, d in from_a.items()}
        offsets = self._offsets
        endpoints = self._endpoints
        nbrs = {
            u: [e for e in endpoints[offsets[u]:offsets[u + 1]] if e >= 0]
            for u in depth
        }
        seen = self._seen
        stamp = self._stamp
        ecc: Dict[int, int] = {}
        for source in depth:
            stamp += 1
            seen[source] = stamp
            frontier = [source]
            left = size - 1
            level = 0
            while left:
                level += 1
                nxt: List[int] = []
                for u in frontier:
                    for e in nbrs[u]:
                        if seen[e] != stamp:
                            seen[e] = stamp
                            nxt.append(e)
                left -= len(nxt)
                frontier = nxt
            ecc[ids[source]] = level
        self._stamp = stamp
        return ecc

    def _bfs(self, source: int) -> Tuple[Dict[int, int], int]:
        """Dense index -> depth over ``source``'s component, and queries.

        The dict is in discovery order, so its last key is a node
        farthest from ``source``; queries count every connected port of
        every member, as a full gather does.
        """
        offsets = self._offsets
        endpoints = self._endpoints
        depth = {source: 0}
        frontier = [source]
        level = 0
        queries = 0
        while frontier:
            level += 1
            nxt: List[int] = []
            for u in frontier:
                for off in range(offsets[u], offsets[u + 1]):
                    e = endpoints[off]
                    if e < 0:
                        continue
                    queries += 1
                    if e not in depth:
                        depth[e] = level
                        nxt.append(e)
            frontier = nxt
        return depth, queries

    def ball(self, start_id: int, radius: int) -> Tuple[Ball, CostProfile]:
        """A bit-exact replica of ``gather_ball(view, radius)``.

        The returned :class:`Ball` reproduces the scalar gather's dict
        contents *and insertion orders* (discovery order for ``info`` /
        ``distance``, expansion order for ``adjacency`` rows, ascending
        port order within a row), so downstream consumers that are
        sensitive to iteration order — ``ball_to_instance`` and whatever
        reference solver runs on its output — see an identical value.
        The profile is the one the scalar engine would have measured.
        """
        info = self._info
        ids = self._ids
        offsets = self._offsets
        endpoints = self._endpoints
        frontier: List[int] = [self._frozen.dense_index(start_id)]
        ball = Ball(center=start_id, radius=radius)
        info_map = ball.info
        distance = ball.distance
        adjacency = ball.adjacency
        info_map[start_id] = info[start_id]
        distance[start_id] = 0
        depth_max = 0
        queries = 0
        for depth in range(1, radius + 1):
            nxt: List[int] = []
            for u in frontier:
                uid = ids[u]
                base = offsets[u]
                row = None
                for off in range(base, offsets[u + 1]):
                    e = endpoints[off]
                    if e < 0:
                        continue
                    queries += 1
                    if row is None:
                        row = adjacency.setdefault(uid, {})
                    nid = ids[e]
                    row[off - base + 1] = nid
                    if nid not in distance:
                        distance[nid] = depth
                        info_map[nid] = info[nid]
                        nxt.append(e)
            if not nxt:
                break
            frontier = nxt
            depth_max = depth
        profile = CostProfile(
            volume=len(distance),
            distance=depth_max,
            queries=queries,
            random_bits=0,
        )
        return ball, profile


Resolutions = Tuple[Tuple[Tuple[int, int], Optional[int]], ...]


class _RecordingTopology:
    """A :class:`~repro.graphs.tree_structure.Topology` over an oracle
    that records each distinct ``(node, port)`` resolution, memoized as
    :class:`~repro.model.views.ProbeTopology` memoizes its queries.  Its
    ``internal_memo`` is fresh per recording; a repeated ``is_internal``
    would only re-read memoized resolutions, so it records nothing less."""

    __slots__ = ("_info", "_resolve", "resolved", "internal_memo")

    def __init__(self, info, resolve) -> None:
        self._info = info
        self._resolve = resolve
        self.resolved: Dict[Tuple[int, int], Optional[int]] = {}
        self.internal_memo: Dict[int, bool] = {}

    def label(self, node_id: int):
        return self._info(node_id).label

    def node_at(self, node_id: int, port: Optional[int]) -> Optional[int]:
        if port is None:
            return None
        key = (node_id, port)
        resolved = self.resolved
        if key not in resolved:
            resolved[key] = self._resolve(node_id, port)
        return resolved[key]


class TreeTable:
    """Per-node predicate rows of one compiled oracle, read through no tape.

    A row is what a predicate answers at a node when evaluated with a
    fresh memo, run for real through a topology that records its port
    resolutions.  Through a :class:`~repro.model.views.ProbeTopology`
    each of those resolutions is one query, and a later evaluation in the
    same execution re-reads memoized resolutions without querying, so an
    execution that evaluates a set of rows has queried exactly the
    distinct resolutions of those rows.  :meth:`record` is a
    predicate's row, and :meth:`level_one_record` a Hybrid-THC level-1
    gather.  Rows are
    built as they are first asked for, so a run from a few start nodes
    pays only for the nodes it reaches.  One table is memoized per
    :class:`~repro.model.oracle.CompiledOracle` (see
    :meth:`~repro.model.oracle.CompiledOracle.tree_table`) and shared by
    every run and trial on it.

    ``lookup`` answers ``node_info`` and ``resolve`` (a
    :class:`~repro.model.oracle.CompiledTable` over the oracle's tables,
    so the table holds no reference to the oracle).  Every ``is_internal``
    verdict a row evaluation computes goes into ``internal``, the memo
    the oracle's validation topologies read (DESIGN.md §6.2).
    """

    __slots__ = ("_info", "_resolve", "_internal", "_records")

    def __init__(self, lookup, internal: Dict[int, bool]) -> None:
        self._info = lookup.node_info
        self._resolve = lookup.resolve
        self._internal = internal
        self._records: Dict[object, Dict[int, object]] = {}

    def record(self, evaluate, node_id: int) -> Tuple[object, Resolutions]:
        """``(evaluate(topology, node_id), resolutions)``, built on first use.

        ``evaluate`` is a predicate over the
        :class:`~repro.graphs.tree_structure.Topology` protocol, and must
        read the instance only through the topology it is given;
        ``resolutions`` are its distinct ``((node, port), endpoint)``
        resolutions in issue order.  Rows are kept per ``evaluate`` and
        node for the table's lifetime, so an evaluator that compares by
        value shares its rows with every equal one.
        """
        rows = self._records.get(evaluate)
        if rows is None:
            rows = self._records[evaluate] = {}
        row = rows.get(node_id)
        if row is None:
            recorder = _RecordingTopology(self._info, self._resolve)
            value = evaluate(recorder, node_id)
            self._internal.update(recorder.internal_memo)
            row = rows[node_id] = (value, tuple(recorder.resolved.items()))
        return row

    def level_one_record(self, node_id: int, max_nodes: int) -> GatherRecord:
        """The :class:`GatherRecord` of the level-1 gather from ``node_id``
        with budget ``max_nodes`` (DESIGN.md §9.3).

        Within the budget, a gather from any level-1 member of a component
        queries every port of every member once, so its queries, edges and
        ball are the same from every member: one record per component,
        filed under each member.  A start off level 1 adds itself to its
        neighbours' components, so its record is its own.  Over the
        budget the gather stops at a point that depends on the member, so
        that record serves ``node_id`` alone and is not kept.
        """
        records = self._records.get((GatherRecord, max_nodes))
        if records is None:
            records = self._records[(GatherRecord, max_nodes)] = {}
        record = records.get(node_id)
        if record is None:
            record = GatherRecord(
                self._info, self._resolve, node_id, max_nodes
            )
            ball = record.value
            if ball is not None:
                if self._info(node_id).label.level == 1:
                    records.update(dict.fromkeys(ball.info, record))
                else:
                    records[node_id] = record
        return record


class _QueryLog:
    """The ``info`` / ``query`` surface of a view, over an oracle, that
    logs every query as ``(node, endpoint)``, repeats included."""

    __slots__ = ("info", "_resolve", "log")

    def __init__(self, info, resolve) -> None:
        self.info = info
        self._resolve = resolve
        self.log: List[Tuple[int, Optional[int]]] = []

    def query(self, node_id: int, port: int):
        endpoint = self._resolve(node_id, port)
        self.log.append((node_id, endpoint))
        return None if endpoint is None else self.info(endpoint)


class GatherRecord:
    """One level-1 component gather, run once and kept.

    :func:`~repro.model.views.gather_level_one_component` from ``start``
    runs over a view stand-in that logs every query; :attr:`value` is the
    ball it returned (``None`` over the budget).  The gather queries
    through the view, so a replayed execution is charged
    :attr:`queries` each time it runs it, and its edges join the
    execution's explored graph.  :attr:`volume` and :meth:`eccentricity`
    are the profile of an execution that ran this gather and nothing
    else.
    """

    __slots__ = ("value", "queries", "volume", "adjacency", "_eccentricity")

    def __init__(self, info, resolve, start: int, max_nodes: int) -> None:
        view = _QueryLog(info, resolve)
        self.value = gather_level_one_component(view, start, max_nodes)
        self.queries = len(view.log)
        adjacency: Dict[int, set] = {start: set()}
        for node, endpoint in view.log:
            if endpoint is not None:
                adjacency.setdefault(node, set()).add(endpoint)
                adjacency.setdefault(endpoint, set()).add(node)
        #: Node -> its neighbours over the logged edges.
        self.adjacency = adjacency
        self.volume = len(adjacency)
        self._eccentricity: Dict[int, int] = {}

    def eccentricity(self, node: int) -> int:
        """The deepest BFS level from ``node`` over the logged edges,
        computed once per node."""
        ecc = self._eccentricity.get(node)
        if ecc is None:
            depth = _bfs_depths(node, {}, (self,))
            ecc = self._eccentricity[node] = max(depth.values())
        return ecc


class ReplayTopology:
    """The :class:`~repro.model.views.ProbeTopology` seams ``row`` and
    ``level_one_component``, answered from a :class:`TreeTable`.

    A structure read ``row(evaluate, v)`` returns the
    :meth:`~TreeTable.record` row's value and notes its resolutions in
    :attr:`noted`, in evaluation order; a level-1 gather returns its
    :meth:`~TreeTable.level_one_record`'s ball and notes the record in
    :attr:`gathers`, once per call.  The execution's profile is their
    :func:`resolution_profile`.  Code that reads structure only through
    these runs unchanged over this and over a live
    :class:`~repro.model.views.ProbeTopology` (DESIGN.md §9.3); any other
    read fails here.  A batch keeps one and empties both lists per start.
    """

    __slots__ = ("_table", "_rows", "noted", "gathers")

    def __init__(self, table: TreeTable) -> None:
        self._table = table
        # The table's rows, read in place; a miss builds the row.
        self._rows = table._records
        self.noted: List[Resolutions] = []
        self.gathers: List[GatherRecord] = []

    def row(self, evaluate, node_id: int):
        rows = self._rows.get(evaluate)
        row = None if rows is None else rows.get(node_id)
        if row is None:
            row = self._table.record(evaluate, node_id)
        value, resolutions = row
        if resolutions:
            self.noted.append(resolutions)
        return value

    def level_one_component(self, node_id: int, max_nodes: int):
        record = self._table.level_one_record(node_id, max_nodes)
        self.gathers.append(record)
        return record.value


class LiveQuery(Exception):
    """A replayed body asked its :class:`ReplayView` for a live query,
    which no table row answers."""


class ReplayView:
    """What a replayed execution reads of its :class:`~repro.model.probe.
    ProbeView`: ``start``, ``start_info``, ``info``, ``n``, ``scope`` and
    private or secret randomness bits.

    Bits come from the run's :class:`~repro.model.randomness.TapeStore`,
    one read per call as the scalar context counts them, so replaying the
    scalar code in the scalar order leaves the store as the scalar loop
    would.  Neither the visited set nor tape visibility is checked: the
    replayed code must read only nodes it has resolved, and only tapes
    its randomness model grants (DESIGN.md §9.3).  :meth:`query` raises
    :class:`LiveQuery`.  A batch keeps one and sets :attr:`start` and
    :attr:`random_bits` per start.
    """

    __slots__ = ("start", "n", "scope", "info", "random_bits", "_tape_for")

    def __init__(self, oracle, tapes) -> None:
        self.start = None
        self.n = oracle.n
        self.scope = oracle
        self.info = oracle.node_info
        self.random_bits = 0
        self._tape_for = None if tapes is None else tapes.tape_for

    @property
    def start_info(self):
        return self.info(self.start)

    def random_bit(self, node_id: int, index: int) -> int:
        self.random_bits += 1
        return self._tape_for(node_id).bit(index)

    def query(self, node_id: int, port: int):
        raise LiveQuery(node_id, port)


def resolution_profile(
    start: int,
    groups: Iterable[Resolutions],
    random_bits: int,
    gathers: Sequence[GatherRecord] = (),
) -> CostProfile:
    """The scalar profile of an execution that issued ``groups``.

    ``groups`` are the resolution tuples of the rows an execution from
    ``start`` evaluated, in its evaluation order.  A key resolves to the
    same endpoint in every row, so merging keeps one entry per distinct
    query.  ``gathers`` are the :class:`GatherRecord` explorations it ran
    through the view, one entry per run: every query of each is charged,
    repeats included, on top of the distinct row keys.  Every queried
    node is the start or an endpoint, so volume is the start plus the
    distinct endpoints, and distance is the deepest BFS level from the
    start over the resolved and gathered edges (the explored-subgraph
    distance, DESIGN.md §1.4).

    One pass in evaluation order gives each endpoint its first
    resolver's depth plus one.  Every node then has a neighbour one
    level up, so its depth is the length of a path from the start; when
    no resolved edge joins depths more than one apart, no path is
    shorter either, and the depths are the BFS depths.  Otherwise (a
    cycle closed across levels, or a group out of evaluation order) the
    profile comes from a BFS over the merged edges, and so does any
    profile with gathers: a shared record is in another start's BFS
    order, and its lateral edges close shorter paths.  An execution that
    ran one gather and read no row is that record's own profile.
    """
    queried: Dict[Tuple[int, int], Optional[int]] = {}
    for group in groups:
        queried.update(group)
    if gathers:
        queries = len(queried) + sum(g.queries for g in gathers)
        if not queried and len(gathers) == 1:
            (record,) = gathers
            return CostProfile(
                volume=record.volume,
                distance=record.eccentricity(start),
                queries=queries,
                random_bits=random_bits,
            )
        depth = _bfs_depths(start, queried, gathers)
        return CostProfile(
            volume=len(depth),
            distance=max(depth.values()),
            queries=queries,
            random_bits=random_bits,
        )
    depth = {start: 0}
    exact = True
    for (node, _), endpoint in queried.items():
        if endpoint is None:
            continue
        near = depth.get(node)
        far = depth.get(endpoint)
        if far is None and near is not None:
            depth[endpoint] = near + 1
        elif near is None or far > near + 1 or near > far + 1:
            exact = False
            break
    if not exact:
        depth = _bfs_depths(start, queried)
    return CostProfile(
        volume=len(depth),
        distance=max(depth.values()),
        queries=len(queried),
        random_bits=random_bits,
    )


def _bfs_depths(
    start: int,
    queried: Dict[Tuple[int, int], Optional[int]],
    gathers: Iterable[GatherRecord] = (),
) -> Dict[int, int]:
    """Node -> BFS depth from ``start`` over the resolved edges and the
    edges of the gather records."""
    adjacency: Dict[int, List[int]] = {start: []}
    for (node, _), endpoint in queried.items():
        if endpoint is not None:
            adjacency.setdefault(node, []).append(endpoint)
            adjacency.setdefault(endpoint, []).append(node)
    # Each record's own adjacency is read in place, not merged.
    sources = [adjacency]
    for record in gathers:
        if all(record.adjacency is not s for s in sources):
            sources.append(record.adjacency)
    depth = {start: 0}
    frontier = [start]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for source in sources:
                for w in source.get(u, ()):
                    if w not in depth:
                        depth[w] = level
                        nxt.append(w)
        frontier = nxt
    return depth


def gather_kernel(oracle) -> Optional[CsrGatherKernel]:
    """The memoized CSR kernel behind ``oracle``, or ``None``.

    Only :class:`~repro.model.oracle.CompiledOracle` carries a kernel;
    reference oracles (and the lazy adversarial ones) return ``None``,
    which tells batch-capable algorithms to fall back to the scalar
    engine.
    """
    factory = getattr(oracle, "gather_kernel", None)
    return None if factory is None else factory()


def tree_table(oracle) -> Optional[TreeTable]:
    """The memoized :class:`TreeTable` behind ``oracle``, or ``None``.

    As with :func:`gather_kernel`, only a compiled oracle carries one;
    ``None`` sends a tree batch back to the scalar engine.
    """
    factory = getattr(oracle, "tree_table", None)
    return None if factory is None else factory()


#: The tapes a :class:`ReplayView` reads as the scalar context does.
_REPLAYED_TAPES = (RandomnessModel.PRIVATE, RandomnessModel.SECRET)


def replayable(cls):
    """Class decorator: a batch may replay ``cls``'s body.

    It marks ``cls`` itself.  A subclass may override any step of the
    body (a bit rule, a fallback, ``run``), so it runs scalar unless it
    is marked too.
    """
    cls._replayed_type = cls
    return cls


class ReplayedAlgorithm(ProbeAlgorithm):
    """A probe algorithm whose one body, ``_start(view, topo)``, reads
    structure only through ``topo.row`` and ``topo.level_one_component``
    (DESIGN.md §9.3).

    :meth:`run` runs the body live over a
    :class:`~repro.model.views.ProbeTopology`; :meth:`run_node_batch`
    replays it per start over a compiled oracle's :class:`TreeTable`.
    """

    _replayed_type = None

    def run(self, view):
        return self._start(view, ProbeTopology(view))

    def _start(self, view, topo):
        raise NotImplementedError

    def run_node_batch(self, oracle, nodes, tapes=None):
        """Each start's body, replayed over the oracle's table rows.

        The starts run in node order over one :class:`ReplayTopology`
        and one :class:`ReplayView`, reading bits from ``tapes`` in the
        scalar order, and each start's profile is the
        :func:`resolution_profile` of the rows and gather records it
        read and the bits it counted.  A start whose body asks its view
        for a live query (:class:`LiveQuery`) runs scalar
        :func:`~repro.model.probe.execute_at` instead.

        ``None`` (the scalar loop) for any class not marked
        :func:`replayable` itself, without a compiled oracle, and for a
        randomized algorithm without a tape store or with public
        randomness.  It decides before it reads a bit.
        """
        if type(self)._replayed_type is not type(self):
            return None
        table = tree_table(oracle)
        if table is None:
            return None
        if self.is_randomized and (
            tapes is None or self.randomness not in _REPLAYED_TAPES
        ):
            return None
        topo = ReplayTopology(table)
        view = ReplayView(oracle, tapes)
        body = self._start
        triples = []
        for start in nodes:
            topo.noted = noted = []
            if topo.gathers:
                topo.gathers = []
            view.start = start
            view.random_bits = 0
            try:
                output = body(view, topo)
            except LiveQuery:
                output, profile = execute_at(
                    oracle, self, start, tape_store=tapes
                )
            else:
                profile = resolution_profile(
                    start, noted, view.random_bits, topo.gathers
                )
            triples.append((start, output, profile))
        return triples


__all__ = [
    "CsrGatherKernel",
    "GatherRecord",
    "LiveQuery",
    "ReplayTopology",
    "ReplayView",
    "ReplayedAlgorithm",
    "TreeTable",
    "gather_kernel",
    "replayable",
    "resolution_profile",
    "tree_table",
]
