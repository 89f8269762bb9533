"""Implicit giant-n instances: oracles that synthesize nodes on demand.

The paper's central separation (VOLUME vs DIST) only becomes visually
unambiguous at n >> 10^6, but a materialized
:class:`~repro.graphs.labelings.Instance` caps sweeps near n ~ 10^5.  A
volume-bounded algorithm only ever touches O(queries) nodes, so nothing
forces materialization: for the structured families whose node
neighborhoods are *pure functions of the node id* (complete-binary-tree
gadgets, laterally linked balanced trees, uniform cycles, hierarchical
backbones with arithmetic id blocks), an oracle can compute any node's
:class:`~repro.model.oracle.NodeInfo` from closed-form index arithmetic
the moment it is queried.

Three layers live here:

* :class:`InstanceSpec` — an O(1)-picklable value ``(family, param,
  seed)`` naming one instance of a registered ``implicit=True`` family.
  It is the *instance source* the exec backends dispatch for giant-n
  runs: workers receive a few dozen bytes instead of a graph, and no
  shared-memory publish is needed on this path.
* the **implicit generators** — one per qualifying family, each a pure
  function ``node id -> (port row, label)`` replicating the registered
  materialized factory *bit for bit* (same ids, same port numbers, same
  dangling ports, same labels).  The differential suite under
  ``tests/model/test_implicit.py`` enforces node-for-node equality
  against the materialized instances at small n.
* :class:`ImplicitOracle` — a :class:`~repro.model.oracle.GraphOracle`
  over a generator with a bounded LRU of realized nodes, so memory is
  O(min(touched, cache bound)) regardless of n.

:func:`as_oracle` is the single front door the rest of the repo uses to
turn *any* instance source — ``Instance``, ``FrozenPortGraph``, or
``InstanceSpec`` — into a :class:`~repro.model.oracle.GraphOracle`,
replacing the scattered ``StaticOracle(...)`` / ``compile_oracle(...)``
call sites that PRs 3-6 grew ad hoc.

Determinism argument (DESIGN.md §10): every generator below derives all
randomness from the grid parameter alone, exactly as the registered
factories in :mod:`repro.families` do (``rng=random.Random(param)``),
and draws it in a *random-access* pattern — a single χ0 coin for
``leaf-coloring-hard``, none at all for ``balanced-tree`` and
``cycle-uniform``, a per-id hash for ``hierarchical-thc-det(2)``.
Families whose factories consume a sequential RNG stream per node
(``leaf-coloring``'s per-leaf coins, ``cycle``'s shuffled ids, the
per-creation-order colors of ``hierarchical-thc(2)``) cannot be served
implicitly without replaying the whole stream, and stay materialized.
"""

from __future__ import annotations

import functools
import random
import zlib
from collections import OrderedDict
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

from repro.graphs.frozen import FrozenPortGraph
from repro.graphs.labelings import (
    COLORS,
    RED,
    Instance,
    Labeling,
    NodeLabel,
)
from repro.graphs.port_graph import PortGraph, PortGraphError
from repro.model.oracle import (
    CompiledOracle,
    NodeInfo,
    StaticOracle,
)

#: A node row: the neighbor behind each port ``1..num_ports`` (``None``
#: for a dangling port) — exactly what ``StaticOracle`` reads off a
#: built graph, as closed-form arithmetic instead of storage.
PortRow = Tuple[Optional[int], ...]

#: Largest implicit instance whose full node list backends will
#: enumerate when ``nodes=None``.  Above this, callers must pass an
#: explicit node selection (giant-n sweeps always do — e.g. the
#: ``root_only`` selector); materializing 10^7+ ids implicitly defeats
#: the point of the bounded-memory path.
NODE_ENUMERATION_LIMIT = 1 << 21

#: Largest implicit instance ``solve_and_check`` will materialize to
#: validate outputs against (validation walks the whole graph).
MATERIALIZE_LIMIT = 1 << 21


def det_backbone_color(node_id: int) -> str:
    """The deterministic per-id color of ``hierarchical-thc-det(2)``.

    A CRC32 hash (not Python's salted ``hash()``) keyed by the node id,
    so any process — and the implicit generator, from index arithmetic
    alone — draws the same color without replaying an RNG stream.
    """
    return COLORS[zlib.crc32(b"hthc-det:%d" % node_id) & 1]


# ----------------------------------------------------------------------
# implicit generators: node id -> (port row, label), closed form
# ----------------------------------------------------------------------
class ImplicitGenerator:
    """Base class: one family instance as a pure function of node ids.

    Subclasses fill in ``n``, ``name``, ``meta`` (the O(1) subset of the
    materialized instance's meta that selectors read — ``root`` etc.;
    O(n) entries like leaf lists are deliberately absent) and
    :meth:`node_row`.  Node ids are always ``1..n``, matching every
    registered generator's sequential-id construction.
    """

    n: int = 0
    name: str = ""
    meta: Dict[str, object] = {}

    def node_row(self, node_id: int) -> Tuple[PortRow, NodeLabel]:
        raise NotImplementedError

    def node_ids(self) -> Iterator[int]:
        return iter(range(1, self.n + 1))

    def _require(self, node_id: int) -> None:
        if not isinstance(node_id, int) or not 1 <= node_id <= self.n:
            raise PortGraphError(f"unknown node {node_id}")


class LeafColoringHardGenerator(ImplicitGenerator):
    """``leaf-coloring-hard``: the Prop 3.12 hard gadget, heap-indexed.

    Node ids are heap indices on the complete binary tree of the given
    depth (node ``i``'s children are ``2i``/``2i+1``, parent ``i // 2``).
    Internal nodes are red; every leaf carries the single χ0 coin the
    registered factory draws first from ``random.Random(depth)``.
    """

    def __init__(self, depth: int, seed: int = 0) -> None:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.depth = depth
        self.n = 2 ** (depth + 1) - 1
        self.chi0 = random.Random(depth).choice(COLORS)
        self.name = f"leaf-coloring-hard-d{depth}"
        self.meta = {"depth": depth, "root": 1, "chi0": self.chi0}

    def node_row(self, i: int) -> Tuple[PortRow, NodeLabel]:
        self._require(i)
        if i == 1:
            if self.depth == 0:
                return (), NodeLabel(color=self.chi0)
            return (2, 3), NodeLabel(
                left_child=1, right_child=2, color=RED
            )
        if i >= 2 ** self.depth:  # leaf row
            return (i // 2,), NodeLabel(parent=1, color=self.chi0)
        return (i // 2, 2 * i, 2 * i + 1), NodeLabel(
            parent=1, left_child=2, right_child=3, color=RED
        )


class BalancedTreeGenerator(ImplicitGenerator):
    """``balanced-tree``: the compatible Def 4.2 gadget, heap-indexed.

    The tree rows are heap-indexed as above; lateral edges link row
    neighbors on ports 5 (to the right) / 4 (to the left).  Because the
    builder adds tree edges first and laterals afterwards, row interiors
    carry five ports, the leftmost node of a row has a *dangling* port 4
    and the rightmost stops at four ports — the generator reproduces
    those reservation artifacts exactly.  The compatible labeling draws
    no randomness at all.
    """

    def __init__(self, depth: int, seed: int = 0) -> None:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.depth = depth
        self.n = 2 ** (depth + 1) - 1
        self.name = f"balanced-tree-d{depth}-ok"
        self.meta = {"depth": depth, "root": 1, "broken": []}

    def node_row(self, i: int) -> Tuple[PortRow, NodeLabel]:
        self._require(i)
        row = i.bit_length() - 1  # tree level: ids 2^row .. 2^(row+1)-1
        j = i - (1 << row)  # position within the row
        last = (1 << row) - 1  # rightmost position
        label = NodeLabel()
        if row == 0:
            kids: PortRow = () if self.depth == 0 else (2, 3)
            if self.depth > 0:
                label.left_child = 1
                label.right_child = 2
            return kids, label
        label.parent = 1
        if row < self.depth:
            tree: PortRow = (i // 2, 2 * i, 2 * i + 1)
            label.left_child = 2
            label.right_child = 3
        else:
            tree = (i // 2, None, None)
        if j > 0:
            label.left_neighbor = 4
        if j < last:
            label.right_neighbor = 5
        if j == 0:
            return tree + (None, i + 1), label
        if j == last:
            return tree + (i - 1,), label
        return tree + (i - 1, i + 1), label


class UniformCycleGenerator(ImplicitGenerator):
    """``cycle-uniform``: the n-cycle with sequential ids ``1..n``.

    Port 1 looks left (to ``i - 1``), port 2 looks right (to ``i + 1``),
    wrapping around; every label is empty.  This is ``cycle_instance(n,
    shuffle_ids=False)`` — the shuffled-id ``cycle`` family draws a
    sequential ``rnd.sample`` over the whole id universe and cannot be
    served implicitly.
    """

    def __init__(self, n: int, seed: int = 0) -> None:
        if n < 3:
            raise ValueError("a cycle needs at least 3 nodes")
        self.n = n
        self.name = f"cycle-{n}"
        self.meta = {"n": n}

    def node_row(self, i: int) -> Tuple[PortRow, NodeLabel]:
        self._require(i)
        n = self.n
        return (((i - 2) % n) + 1, (i % n) + 1), NodeLabel()


class HierarchicalDetGenerator(ImplicitGenerator):
    """``hierarchical-thc-det(2)``: H-THC(2) with hash-deterministic colors.

    The registered ``hierarchical-thc(2)`` factory draws one color per
    node in creation order, which is not random-access replicable; this
    variant keeps the identical graph (backbone ``1..m`` chained on
    ports 2→1, backbone node ``b`` hanging its length-m level-1 chain —
    ids ``m + (b-1)m + 1 .. m + bm`` — from port 3) and takes colors
    from :func:`det_backbone_color` instead.  n = m(m+1).
    """

    def __init__(self, backbone_length: int, seed: int = 0) -> None:
        if backbone_length < 1:
            raise ValueError("backbone_length must be >= 1")
        m = backbone_length
        self.m = m
        self.n = m * (m + 1)
        self.name = f"hierarchical-thc-det-k2-m{m}"
        self.meta = {
            "k": 2,
            "backbone_length": m,
            "lengths": [m, m],
            "root": 1,
        }

    def node_row(self, i: int) -> Tuple[PortRow, NodeLabel]:
        self._require(i)
        m = self.m
        label = NodeLabel(color=det_backbone_color(i))
        if i <= m:  # backbone node b = i
            label.right_child = 3  # every backbone node hangs a chain
            chain_root = m + (i - 1) * m + 1
            if m == 1:
                return (None, None, chain_root), label
            if i == 1:
                label.left_child = 2
                return (None, 2, chain_root), label
            label.parent = 1
            if i == m:
                return (m - 1, None, chain_root), label
            label.left_child = 2
            return (i - 1, i + 1, chain_root), label
        b = (i - m - 1) // m + 1  # owning backbone node
        t = (i - m - 1) % m  # position along b's chain
        label.parent = 1
        if m == 1:
            return (b,), label
        if t == 0:
            label.left_child = 2
            return (b, i + 1), label
        if t == m - 1:
            return (i - 1,), label
        label.left_child = 2
        return (i - 1, i + 1), label


#: Family name -> generator factory.  A family may be registered with
#: ``implicit=True`` only if it has an entry here (enforced by the
#: differential suite); :func:`implicit_families` lists the names.
_GENERATOR_FACTORIES: Dict[str, Callable[..., ImplicitGenerator]] = {
    "leaf-coloring-hard": LeafColoringHardGenerator,
    "balanced-tree": BalancedTreeGenerator,
    "cycle-uniform": UniformCycleGenerator,
    "hierarchical-thc-det(2)": HierarchicalDetGenerator,
}


def implicit_families() -> Tuple[str, ...]:
    """The family names an :class:`InstanceSpec` can name."""
    return tuple(_GENERATOR_FACTORIES)


@functools.lru_cache(maxsize=64)
def _generator_for(family: str, param, seed: int) -> ImplicitGenerator:
    """The (memoized) implicit generator for one spec.

    Generators are immutable closed-form descriptions a few machine
    words big, so caching them across oracles/backends/sweep points is
    free and keeps ``InstanceSpec`` property access O(1).
    """
    try:
        factory = _GENERATOR_FACTORIES[family]
    except KeyError:
        known = ", ".join(sorted(_GENERATOR_FACTORIES))
        raise ValueError(
            f"no implicit generator for family {family!r} "
            f"(implicit families: {known})"
        ) from None
    return factory(param, seed)


# ----------------------------------------------------------------------
# the O(1)-picklable instance source
# ----------------------------------------------------------------------
class InstanceSpec:
    """An instance named by ``(family, param, seed)`` — nothing realized.

    This is the giant-n counterpart of a materialized
    :class:`~repro.graphs.labelings.Instance`: it pickles to O(1) bytes
    (three scalars), so process backends ship it to workers directly —
    no graph pickle, no shared-memory publish — and each worker serves
    queries from its own :class:`ImplicitOracle`.

    ``seed`` rides along for forward compatibility with randomized
    implicit distributions; the registered structural generators derive
    all randomness from ``param`` (exactly like their materialized
    factories) and ignore it.
    """

    __slots__ = ("family", "param", "seed")

    def __init__(self, family: str, param, seed: int = 0) -> None:
        self.family = family
        self.param = param
        self.seed = seed

    # -- identity ------------------------------------------------------
    def __repr__(self) -> str:
        tail = f", seed={self.seed}" if self.seed else ""
        return f"InstanceSpec({self.family!r}, {self.param!r}{tail})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InstanceSpec)
            and self.family == other.family
            and self.param == other.param
            and self.seed == other.seed
        )

    def __hash__(self) -> int:
        return hash((self.family, self.param, self.seed))

    def __getstate__(self):
        return (self.family, self.param, self.seed)

    def __setstate__(self, state) -> None:
        self.family, self.param, self.seed = state

    # -- the O(1) instance surface selectors/sweeps/backends read ------
    @property
    def generator(self) -> ImplicitGenerator:
        return _generator_for(self.family, self.param, self.seed)

    @property
    def n(self) -> int:
        return self.generator.n

    @property
    def name(self) -> str:
        return self.generator.name

    @property
    def meta(self) -> Dict[str, object]:
        """The O(1) subset of the materialized meta (root, depth, ...)."""
        return dict(self.generator.meta)

    # -- realization (small n only) ------------------------------------
    def materialize(self) -> Instance:
        """Build the full materialized instance via the family registry.

        Differential tests and output validation at small n use this;
        the guard refuses to allocate a giant graph by accident.
        """
        if self.n > MATERIALIZE_LIMIT:
            raise ValueError(
                f"refusing to materialize {self!r} (n={self.n} > "
                f"{MATERIALIZE_LIMIT}); run it through an ImplicitOracle"
            )
        from repro.registry import FAMILIES, load_components

        load_components()
        return FAMILIES.get(self.family).factory(self.param)


#: What every public runner/engine entry point accepts as its instance.
InstanceSource = Union[Instance, InstanceSpec]


class ImplicitFamilyFactory:
    """``factory(param) -> InstanceSpec`` for one implicit family.

    A module-level class (not a lambda) so the sweep spec key can fingerprint
    it stably and process backends can pickle it.
    """

    def __init__(self, family: str, seed: int = 0) -> None:
        self.family = family
        self.seed = seed

    def __call__(self, param) -> InstanceSpec:
        return InstanceSpec(self.family, param, self.seed)


def iter_node_ids(source) -> Iterator[int]:
    """Every node id of an instance source (backends' ``nodes=None``).

    Materialized instances iterate their graph; implicit specs iterate
    ``1..n`` — but only below :data:`NODE_ENUMERATION_LIMIT`, because a
    whole-instance run over 10^7+ implicit nodes defeats the
    bounded-memory point.  Giant-n sweeps pass explicit selections
    (``nodes=[root]`` etc.) and never hit this guard.
    """
    if isinstance(source, InstanceSpec):
        n = source.n
        if n > NODE_ENUMERATION_LIMIT:
            raise ValueError(
                f"implicit instance {source.name!r} has n={n} > "
                f"{NODE_ENUMERATION_LIMIT}; pass an explicit `nodes=` "
                "selection (e.g. the sweep's root_only selector) instead "
                "of running from every node"
            )
        return source.generator.node_ids()
    return iter(source.graph.nodes())


# ----------------------------------------------------------------------
# the bounded-memory oracle
# ----------------------------------------------------------------------
class ImplicitOracle:
    """A :class:`~repro.model.oracle.GraphOracle` that realizes nodes lazily.

    Query semantics replicate :class:`~repro.model.oracle.StaticOracle`
    exactly: ``node_info`` reveals the node's connected ports, degree
    and label; ``resolve`` answers ``None`` for out-of-range or dangling
    ports and raises :class:`~repro.graphs.port_graph.PortGraphError`
    for unknown node ids.  Realized ``(row, NodeInfo)`` records live in
    a bounded LRU, so a volume-bounded run's footprint is
    O(min(nodes touched, ``max_realized``)) — independent of n.
    """

    def __init__(
        self, spec: InstanceSpec, max_realized: int = 65536
    ) -> None:
        if max_realized < 1:
            raise ValueError("max_realized must be positive")
        self._spec = spec
        self._generator = spec.generator
        self._max_realized = max_realized
        self._cache: "OrderedDict[int, Tuple[PortRow, NodeInfo]]" = (
            OrderedDict()
        )
        #: Total generator invocations (cache misses) — the bench's
        #: "how many nodes did this run actually realize" statistic.
        self.realized_total = 0

    @property
    def n(self) -> int:
        return self._generator.n

    @property
    def spec(self) -> InstanceSpec:
        return self._spec

    @property
    def instance(self) -> InstanceSpec:
        """The spec, in the seat backends' oracle caches key on."""
        return self._spec

    @property
    def realized(self) -> int:
        """Nodes currently held in the LRU."""
        return len(self._cache)

    def _realize(self, node_id: int) -> Tuple[PortRow, NodeInfo]:
        cache = self._cache
        entry = cache.get(node_id)
        if entry is not None:
            cache.move_to_end(node_id)
            return entry
        row, label = self._generator.node_row(node_id)
        info = NodeInfo(
            node_id=node_id,
            degree=sum(1 for nbr in row if nbr is not None),
            label=label,
            ports=tuple(
                port
                for port, nbr in enumerate(row, start=1)
                if nbr is not None
            ),
        )
        self.realized_total += 1
        cache[node_id] = (row, info)
        if len(cache) > self._max_realized:
            cache.popitem(last=False)
        return row, info

    def node_info(self, node_id: int) -> NodeInfo:
        return self._realize(node_id)[1]

    def resolve(self, node_id: int, port: int) -> Optional[int]:
        row = self._realize(node_id)[0]
        if 1 <= port <= len(row):
            return row[port - 1]
        return None


# ----------------------------------------------------------------------
# the single oracle front door
# ----------------------------------------------------------------------
def as_oracle(source, mode: str = "auto"):
    """Turn any instance source into a :class:`GraphOracle`.

    ``source`` may be a materialized
    :class:`~repro.graphs.labelings.Instance`, a bare
    :class:`~repro.graphs.frozen.FrozenPortGraph` /
    :class:`~repro.graphs.port_graph.PortGraph` (wrapped with an empty
    labeling), or an :class:`InstanceSpec`.  ``mode`` selects the
    engine:

    * ``"auto"`` — the right default: the compiled fast path for
      materialized instances, the lazy bounded-memory oracle for specs.
    * ``"compiled"`` / ``"reference"`` — force
      :class:`~repro.model.oracle.CompiledOracle` /
      :class:`~repro.model.oracle.StaticOracle` semantics; a spec is
      materialized first (small n only), which is how differential
      suites pin implicit == materialized.
    * ``"implicit"`` — require the lazy oracle; materialized sources
      are rejected (they have no generator to serve from).
    """
    if mode not in ("auto", "compiled", "reference", "implicit"):
        raise ValueError(
            f"unknown oracle mode {mode!r} "
            "(expected 'auto', 'compiled', 'reference', or 'implicit')"
        )
    if isinstance(source, InstanceSpec):
        if mode in ("auto", "implicit"):
            return ImplicitOracle(source)
        instance = source.materialize()
        if mode == "compiled":
            return CompiledOracle(instance)
        return StaticOracle(instance)
    if isinstance(source, (FrozenPortGraph, PortGraph)):
        source = Instance(graph=source, labeling=Labeling())
    if isinstance(source, Instance):
        if mode == "implicit":
            raise ValueError(
                "mode='implicit' needs an InstanceSpec; got a "
                "materialized instance"
            )
        if mode == "reference":
            return StaticOracle(source)
        return CompiledOracle(source)
    raise TypeError(
        f"cannot build an oracle from {type(source).__name__!r} "
        "(expected Instance, FrozenPortGraph, PortGraph, or InstanceSpec)"
    )


__all__ = [
    "ImplicitFamilyFactory",
    "ImplicitGenerator",
    "ImplicitOracle",
    "InstanceSource",
    "InstanceSpec",
    "MATERIALIZE_LIMIT",
    "NODE_ENUMERATION_LIMIT",
    "as_oracle",
    "det_backbone_color",
    "implicit_families",
    "iter_node_ids",
]
