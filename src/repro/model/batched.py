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

:class:`CsrGatherKernel` provides two tiers:

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
  of that solve, with the profile from :meth:`summarize`; outputs equal
  the scalar path's because every full-gather reference is independent
  of node insertion order (DESIGN.md §9.3).

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
deterministic and unbudgeted — the dispatch gate in
``repro.exec.backends._execute_nodes`` requires a compiled oracle, a
deterministic algorithm, and no volume/query budget (truncation
semantics stay with the scalar engine).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.model.probe import CostProfile
from repro.model.views import Ball


class CsrGatherKernel:
    """Flat-array gather engine for one compiled oracle's CSR snapshot.

    One kernel is memoized per :class:`~repro.model.oracle.CompiledOracle`
    (see :meth:`~repro.model.oracle.CompiledOracle.gather_kernel`), so
    its scratch arrays are shared by every start node of a whole-run
    batch — the per-start cost is the BFS itself, nothing else.
    """

    __slots__ = (
        "_oracle",
        "_frozen",
        "_ids",
        "_offsets",
        "_endpoints",
        "_seen",
        "_stamp",
    )

    def __init__(self, oracle) -> None:
        frozen = oracle.frozen_graph
        self._oracle = oracle
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
        oracle = self._oracle
        ids = self._ids
        offsets = self._offsets
        endpoints = self._endpoints
        node_info = oracle.node_info
        ball = Ball(center=start_id, radius=radius)
        info_map = ball.info
        distance = ball.distance
        adjacency = ball.adjacency
        info_map[start_id] = node_info(start_id)
        distance[start_id] = 0
        frontier: List[int] = [self._frozen.dense_index(start_id)]
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
                        info_map[nid] = node_info(nid)
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


def gather_kernel(oracle) -> Optional[CsrGatherKernel]:
    """The memoized CSR kernel behind ``oracle``, or ``None``.

    Only :class:`~repro.model.oracle.CompiledOracle` carries a kernel;
    reference oracles (and the lazy adversarial ones) return ``None``,
    which tells batch-capable algorithms to fall back to the scalar
    engine.
    """
    factory = getattr(oracle, "gather_kernel", None)
    return None if factory is None else factory()


__all__ = ["CsrGatherKernel", "gather_kernel"]
