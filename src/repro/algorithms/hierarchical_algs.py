"""Hierarchical-THC(k) algorithms (Section 5, Algorithm 2).

* :class:`RecursiveHTHC` — the deterministic O(k·n^{1/k})-distance solver
  of Proposition 5.12 (volume Θ̃(n), tight by Proposition 5.20).
* :class:`WaypointHTHC` — Proposition 5.14's randomized modification:
  recursive calls happen only at *way-points*, sampled from each node's
  private randomness with probability p = c·log n / n^{1/k}, giving volume
  O(n^{1/k} · logᴼ⁽ᵏ⁾ n) with high probability.
* :class:`HierarchicalFullGather` — the generic O(n) volume solver.

Implementation notes relative to the paper's pseudocode (Algorithm 2):

* Recursive values are memoized per execution; determinism (or the shared
  tapes) guarantees a node's own execution returns the same value other
  executions compute for it — the consistency the proof's "all nodes
  between u and w store the same values" argument needs.
* Lines 19–21 of the pseudocode return X when the descent pointer never
  moved (``u = v``).  That happens exactly when v is a level-ℓ leaf whose
  hung component declined (a colored RC would have exited at line 7), and
  outputting X there would violate condition 5(a) at level k.  We instead
  treat the leaf as the terminal of its run — output χin(v) when the run
  is short, D otherwise — which is what validity conditions 2/4/5(b)
  require and what the surrounding executions (line 26) assume.
* Truncated pointer walks automatically land in the dist > 2n^{1/k}
  branch (a truncated pointer has travelled 2n^{1/k}+1 steps), so
  neighboring executions always agree on which branch they are in.
* A way-point decision is a function of the node's tape, so each
  execution decides a node once and keeps the answer beside its
  recursive values: a later test reads no bits.

Every structure read goes through ``topo.row`` with a :class:`_Read`
evaluator, so the recursion is one body, ``_start``, that
:class:`~repro.model.batched.ReplayedAlgorithm` runs live, over a
:class:`~repro.model.views.ProbeTopology`, and replays per start over a
compiled oracle's table rows (DESIGN.md §9.3).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, NamedTuple, Optional

from repro.graphs.labelings import BLUE, DECLINE, EXEMPT, RED
from repro.graphs.tree_structure import (
    backbone_next,
    backbone_prev,
    is_level_leaf,
    is_level_root,
    level_of,
    right_child_node,
)
from repro.model.batched import ReplayedAlgorithm, replayable
from repro.model.probe import ProbeView
from repro.model.randomness import RandomnessModel
from repro.algorithms.generic import FullGatherAlgorithm
from repro.problems.hierarchical_thc import reference_solution
from repro.registry import register_algorithm

_COLORED_OR_EXEMPT = (RED, BLUE, EXEMPT)
_WAYPOINT_BITS = 24


class _Read(NamedTuple):
    """One structure read of Algorithm 2, as a table-row evaluator.

    Compares and hashes by value (the predicate and its cap) and pickles
    by reference to the predicate, so every solver with the same cap
    shares one oracle's rows and stays picklable.
    """

    predicate: Callable
    cap: Optional[int] = None

    def __call__(self, topo, v):
        if self.cap is None:
            return self.predicate(topo, v)
        return self.predicate(topo, v, self.cap)


class _Reads(NamedTuple):
    """The six structure reads of Algorithm 2 at one cap k."""

    level: _Read
    succ: _Read
    pred: _Read
    leaf: _Read
    root: _Read
    child: _Read


class THCSolverBase(ReplayedAlgorithm):
    """Shared machinery for the hierarchical and hybrid THC solvers.

    Subclasses provide level-1 handling and the exemption predicate; the
    upper-level logic (shallow components, exemption, the u/w pointer
    walk) is Algorithm 2 verbatim.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._reads = _Reads(
            _Read(level_of, k),
            _Read(backbone_next, k),
            _Read(backbone_prev, k),
            _Read(is_level_leaf),
            _Read(is_level_root),
            _Read(right_child_node),
        )

    # -- hooks ----------------------------------------------------------
    def _solve_level_one(self, view, topo, v):
        raise NotImplementedError

    def _rc_supports_exemption(self, rc_value, lvl: int) -> bool:
        """Definition 5.5 condition 4(b)/5(a): RC committed to a color."""
        return rc_value in _COLORED_OR_EXEMPT

    def _recursion_allowed(self, view: ProbeView, node: int) -> bool:
        """Whether ``node`` may recurse into its hung component."""
        return True

    # -- engine ----------------------------------------------------------
    def _start(self, view, topo):
        """Algorithm 2 at ``view.start``, reading structure through
        ``topo`` (live or replayed)."""
        self._memo: Dict[int, object] = {}
        self._waypoints: Dict[int, bool] = {}
        lvl = self._start_level(view, topo)
        if lvl is None or lvl > self.k:
            return EXEMPT
        return self._solve(view, topo, view.start, lvl)

    def _start_level(self, view, topo):
        """The start's level (Definition 5.1, capped at k + 1)."""
        return topo.row(self._reads.level, view.start)

    def fallback(self, view: ProbeView):
        return EXEMPT

    def threshold(self, view: ProbeView) -> int:
        """2·n^{1/k}, the shallow/deep boundary of Definition 5.10."""
        return max(2, math.ceil(2 * view.n ** (1.0 / self.k)))

    def _solve(self, view, topo, v, lvl):
        if v in self._memo:
            return self._memo[v]
        if lvl <= 1:
            value = self._solve_level_one(view, topo, v)
        else:
            value = self._solve_upper(view, topo, v, lvl)
        self._memo[v] = value
        return value

    # -- Algorithm 2, lines 1-9 ------------------------------------------
    def _shallow_value(self, view, topo, v) -> Optional[object]:
        """Lines 1–4: if the component is shallow, its unanimous color."""
        thr = self.threshold(view)
        seg = _walk_backbone(topo, v, self._reads, limit=thr + 2)
        if seg is None:
            return None
        nodes, is_cycle = seg
        if len(nodes) > thr:
            return None
        anchor = nodes[-1] if not is_cycle else min(nodes)
        return view.info(anchor).label.color

    def _rc_value(self, view, topo, v, lvl):
        child = topo.row(self._reads.child, v)
        if child is None:
            return DECLINE
        return self._solve(view, topo, child, lvl - 1)

    def _solve_upper(self, view, topo, v, lvl):
        shallow = self._shallow_value(view, topo, v)
        if shallow is not None:
            return shallow
        # Line 7: exempt if the hung component committed to a color.
        if self._recursion_allowed(view, v):
            if self._rc_supports_exemption(
                self._rc_value(view, topo, v, lvl), lvl
            ):
                return EXEMPT
        # Lines 10-18: pointer walk.  u descends, w ascends, both skipping
        # nodes whose hung component declines (or is unprobed: non-waypoint).
        thr = self.threshold(view)
        row = topo.row
        reads = self._reads

        def rc_declines(x) -> bool:
            # Note: the "u not a level-ℓ leaf" / "w not a level-ℓ root"
            # stopping rules (lines 12/15) are separate guards below; this
            # predicate is purely about the hung component's verdict.
            if not self._recursion_allowed(view, x):
                return True  # Prop 5.14: non-way-points read as D
            return not self._rc_supports_exemption(
                self._rc_value(view, topo, x, lvl), lvl
            )

        u, w = v, v
        du = dw = 0
        u_done = w_done = False
        for _ in range(thr + 1):
            if not u_done:
                if not row(reads.leaf, u) and rc_declines(u):
                    nxt = row(reads.succ, u)
                    if nxt is None:
                        u_done = True
                    else:
                        u, du = nxt, du + 1
                else:
                    u_done = True
            if not w_done:
                if not row(reads.root, w) and rc_declines(w):
                    prev = row(reads.pred, w)
                    if prev is None:
                        w_done = True
                    else:
                        w, dw = prev, dw + 1
                else:
                    w_done = True

        if u == v:
            # v is a level-ℓ leaf whose hung component declined (see the
            # module docstring): v terminates its own run.
            return view.info(v).label.color if dw <= thr else DECLINE
        if du + dw <= thr:
            # Line 23's condition matches u's own line-7 exit exactly, so
            # u's execution returns X precisely when the run assumes it.
            u_exempt = self._recursion_allowed(view, u) and (
                self._rc_supports_exemption(
                    self._rc_value(view, topo, u, lvl), lvl
                )
            )
            if u_exempt:
                # Line 24: u outputs X; the run takes χin(P(u)).
                parent = row(reads.pred, u)
                anchor = parent if parent is not None else u
                return view.info(anchor).label.color
            # Line 26: u is a leaf whose component declined; the run takes
            # χin(u) (u itself outputs the same by the u == v case above).
            return view.info(u).label.color
        return DECLINE


def _walk_backbone(topo, v, reads, limit):
    """The maximal backbone through ``v`` if reachable within ``limit``
    steps per direction; None if truncated (hence deep).

    Returns ``(nodes, is_cycle)`` with path nodes ordered root→leaf.
    """
    forward = [v]
    seen = {v}
    current = v
    for _ in range(limit):
        nxt = topo.row(reads.succ, current)
        if nxt is None:
            break
        if nxt in seen:
            return forward, True  # closed the unique cycle
        forward.append(nxt)
        seen.add(nxt)
        current = nxt
    else:
        return None  # truncated forward: deep
    backward = []
    current = v
    for _ in range(limit):
        prev = topo.row(reads.pred, current)
        if prev is None:
            break
        if prev in seen:
            return forward, True
        backward.append(prev)
        seen.add(prev)
        current = prev
    else:
        return None  # truncated backward: deep
    return list(reversed(backward)) + forward, False


@replayable
@register_algorithm(
    "hierarchical-thc(2)/recursive",
    problem="hierarchical-thc(2)",
    defaults={"k": 2},
)
class RecursiveHTHC(THCSolverBase):
    """Algorithm 2: deterministic, distance O(k·n^{1/k})."""

    def __init__(self, k: int) -> None:
        super().__init__(k)
        self.name = f"hierarchical-thc({k})/recursive"

    def _solve_level_one(self, view, topo, v):
        shallow = self._shallow_value(view, topo, v)
        if shallow is not None:
            return shallow
        return DECLINE  # line 5-6: deep level-1 components decline


@replayable
@register_algorithm(
    "hierarchical-thc(2)/waypoint",
    problem="hierarchical-thc(2)",
    defaults={"k": 2},
    seed=3,
)
class WaypointHTHC(RecursiveHTHC):
    """Proposition 5.14: recursion gated on randomly sampled way-points.

    Each node is a way-point with probability p = c·log₂ n / n^{1/k},
    decided by its own private tape (so every execution agrees).  The
    paper's analysis (Lemmas 5.16/5.18) wants c ≥ 3; ``factor`` scales p
    for the ablation bench E10.
    """

    randomness = RandomnessModel.PRIVATE

    def __init__(self, k: int, factor: float = 1.0, c: float = 3.0) -> None:
        super().__init__(k)
        self.name = f"hierarchical-thc({k})/waypoint"
        self.factor = factor
        self.c = c

    def _waypoint_probability(self, view: ProbeView) -> float:
        n = max(2, view.n)
        p = self.c * self.factor * math.log2(n) / (n ** (1.0 / self.k))
        return min(1.0, p)

    def _recursion_allowed(self, view: ProbeView, node: int) -> bool:
        """Whether ``node`` is a way-point, decided once per execution."""
        allowed = self._waypoints.get(node)
        if allowed is None:
            p = self._waypoint_probability(view)
            x = 0
            for i in range(_WAYPOINT_BITS):
                x = (x << 1) | view.random_bit(node, i)
            allowed = self._waypoints[node] = x < p * (1 << _WAYPOINT_BITS)
        return allowed


@register_algorithm(
    "hierarchical-thc(2)/full-gather",
    problem="hierarchical-thc(2)",
    defaults={"k": 2},
)
class HierarchicalFullGather(FullGatherAlgorithm):
    """Volume O(n): gather everything and run the global reference."""

    def __init__(self, k: int) -> None:
        super().__init__(
            functools.partial(reference_solution, k=k),
            name=f"hierarchical-thc({k})/full-gather",
        )
