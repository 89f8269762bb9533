"""Instance generators for every problem family in the paper.

Each generator returns an :class:`~repro.graphs.labelings.Instance`; the
``meta`` dict records construction facts that benches and lower-bound
harnesses rely on (e.g. which leaves encode which disjointness coordinate).

The families implemented here are exactly the ones the paper's proofs use:

* complete-binary-tree LeafColoring instances, including the Proposition
  3.12 hard distribution (internal nodes red, all leaves one random color);
* random pseudo-tree instances, optionally with the single G_T cycle that
  Observation 3.7 allows, and optionally corrupted (inconsistent nodes);
* globally compatible BalancedTree instances (Definition 4.2) and the
  Figure 5 / Proposition 4.9 disjointness embedding;
* balanced Hierarchical-THC(k) instances with Θ(n^{1/k}) backbones (the
  shape used by the Proposition 5.13 lower bound);
* Hybrid-THC(k) instances whose level-1 components are BalancedTree
  instances (Section 6), and HH-THC(k, ℓ) two-population instances (§6.1);
* the Example 7.6 relay graph (two trees joined by one bridge edge); and
* cycles for the classic problems of Figures 1–2.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.graphs.builders import (
    PORT_LEFT_CHILD,
    PORT_LEFT_NEIGHBOR,
    PORT_PARENT,
    PORT_RIGHT_CHILD,
    PORT_RIGHT_NEIGHBOR,
    BinaryTreeTopology,
    add_lateral_edges,
    complete_binary_tree,
    cycle_graph,
    two_trees_with_bridge,
)
from repro.graphs.labelings import (
    COLORS,
    RED,
    Instance,
    Labeling,
    NodeLabel,
)
from repro.graphs.port_graph import PortGraph


def _rng(rng: Optional[random.Random], seed: int = 0) -> random.Random:
    return rng if rng is not None else random.Random(seed)


# ----------------------------------------------------------------------
# tree labelings on complete binary trees
# ----------------------------------------------------------------------
def tree_labeling_for(topo: BinaryTreeTopology) -> Labeling:
    """The canonical tree labeling matching a built binary tree topology."""
    labeling = Labeling()
    for node in topo.graph.nodes():
        label = NodeLabel()
        if topo.parent_of.get(node) is not None:
            label.parent = PORT_PARENT
        if topo.left_child_of.get(node) is not None:
            label.left_child = topo.child_port(node, "left")
            label.right_child = topo.child_port(node, "right")
        labeling[node] = label
    return labeling


def leaf_coloring_instance(
    depth: int,
    leaf_color: Optional[str] = None,
    internal_color: str = RED,
    rng: Optional[random.Random] = None,
) -> Instance:
    """A complete-binary-tree LeafColoring instance.

    ``leaf_color=None`` colors each leaf independently at random; a fixed
    color gives the unanimous-leaf instances of Proposition 3.12.
    """
    rnd = _rng(rng)
    topo = complete_binary_tree(depth)
    labeling = tree_labeling_for(topo)
    leaves = set(topo.leaves)
    for node in topo.graph.nodes():
        if node in leaves:
            labeling[node].color = (
                leaf_color if leaf_color is not None else rnd.choice(COLORS)
            )
        else:
            labeling[node].color = internal_color
    return Instance(
        graph=topo.graph,
        labeling=labeling,
        name=f"leaf-coloring-complete-d{depth}",
        meta={"depth": depth, "root": topo.root, "leaves": list(topo.leaves)},
    )


def hard_leaf_coloring_instance(
    depth: int, rng: Optional[random.Random] = None
) -> Instance:
    """One draw from the Proposition 3.12 hard distribution.

    All internal nodes are red; every leaf carries the *same* uniformly
    random color χ0.  The unique valid output colors every node χ0.
    """
    rnd = _rng(rng)
    chi0 = rnd.choice(COLORS)
    inst = leaf_coloring_instance(depth, leaf_color=chi0, internal_color=RED)
    inst.name = f"leaf-coloring-hard-d{depth}"
    inst.meta["chi0"] = chi0
    return inst


def random_tree_instance(
    target_size: int,
    rng: Optional[random.Random] = None,
    branch_probability: float = 0.7,
    with_cycle: bool = False,
    cycle_length: int = 0,
    max_degree: int = 3,
) -> Instance:
    """A random binary pseudo-tree LeafColoring instance.

    Grows a random binary tree toward ``target_size`` nodes (each frontier
    node becomes internal with ``branch_probability`` while budget remains).
    With ``with_cycle`` the root is replaced by a directed G_T cycle of
    ``cycle_length`` internal nodes linked parent→RC around the ring, each
    hanging a random subtree from its LC — the one-cycle-per-component shape
    Observation 3.7 allows and ``RWtoLeaf`` must cope with (Section 3).
    """
    rnd = _rng(rng)
    graph = PortGraph(max_degree=max_degree)
    labeling = Labeling()
    next_id = [1]

    def new_node() -> int:
        node = next_id[0]
        next_id[0] += 1
        graph.add_node(node)
        labeling[node] = NodeLabel(color=rnd.choice(COLORS))
        return node

    budget = [target_size]
    pending: List[int] = []  # internal-candidate frontier

    def grow(node: int) -> None:
        """Decide whether ``node`` becomes internal; if so add children.

        Branching is forced while the tree is small so that a random draw
        cannot extinguish growth long before ``target_size`` is reached.
        """
        force = next_id[0] - 1 < max(3, target_size // 3)
        if budget[0] >= 2 and (force or rnd.random() < branch_probability):
            left = new_node()
            right = new_node()
            budget[0] -= 2
            graph.add_edge(node, _lc_port(node), left, PORT_PARENT)
            graph.add_edge(node, _rc_port(node), right, PORT_PARENT)
            labeling[node].left_child = _lc_port(node)
            labeling[node].right_child = _rc_port(node)
            labeling[left].parent = PORT_PARENT
            labeling[right].parent = PORT_PARENT
            pending.append(left)
            pending.append(right)

    def _lc_port(node: int) -> int:
        return (
            1
            if labeling[node].parent is None and cycle_members.get(node) is None
            else PORT_LEFT_CHILD
        )

    def _rc_port(node: int) -> int:
        return (
            2
            if labeling[node].parent is None and cycle_members.get(node) is None
            else PORT_RIGHT_CHILD
        )

    cycle_members: Dict[int, bool] = {}
    if with_cycle:
        length = max(3, cycle_length or max(3, target_size // 8))
        ring = [new_node() for _ in range(length)]
        budget[0] -= length
        for i, v in enumerate(ring):
            cycle_members[v] = True
        for i, v in enumerate(ring):
            nxt = ring[(i + 1) % len(ring)]
            # v's RC is the next ring node; the next ring node's parent is v.
            graph.add_edge(v, PORT_RIGHT_CHILD, nxt, PORT_PARENT)
            labeling[v].right_child = PORT_RIGHT_CHILD
            labeling[nxt].parent = PORT_PARENT
        for v in ring:
            # Hang a subtree root from each ring node's LC so it is internal.
            child = new_node()
            budget[0] -= 1
            graph.add_edge(v, PORT_LEFT_CHILD, child, PORT_PARENT)
            labeling[v].left_child = PORT_LEFT_CHILD
            labeling[child].parent = PORT_PARENT
            pending.append(child)
    else:
        root = new_node()
        budget[0] -= 1
        pending.append(root)

    while pending:
        node = pending.pop(0)
        grow(node)

    return Instance(
        graph=graph,
        labeling=labeling,
        name=f"leaf-coloring-random-{graph.num_nodes}",
        meta={"with_cycle": with_cycle},
    )


def corrupt_instance(
    instance: Instance,
    fraction: float,
    rng: Optional[random.Random] = None,
) -> Instance:
    """Return a copy with a random ``fraction`` of labels mangled.

    Mangling re-points one of the tree-label ports of a node to a random
    value (possibly ⊥), creating inconsistent nodes; validity conditions for
    leaves/inconsistent nodes (e.g. Definition 3.4's first condition) then
    become exercised.
    """
    rnd = _rng(rng)
    labeling = instance.labeling.copy()
    nodes = list(instance.graph.nodes())
    k = max(1, int(len(nodes) * fraction))
    for node in rnd.sample(nodes, min(k, len(nodes))):
        label = labeling[node]
        which = rnd.choice(("parent", "left_child", "right_child"))
        value = rnd.choice([None, 1, 2, 3])
        setattr(label, which, value)
    return Instance(
        graph=instance.graph,
        labeling=labeling,
        n=instance.n,
        name=instance.name + "-corrupted",
        meta=dict(instance.meta, corrupted=True),
    )


# ----------------------------------------------------------------------
# BalancedTree instances (Section 4)
# ----------------------------------------------------------------------
def _balanced_labeling(topo: BinaryTreeTopology) -> Labeling:
    """Tree labeling plus fully compatible LN/RN lateral labels (Def 4.2)."""
    labeling = tree_labeling_for(topo)
    for row in topo.levels:
        for i, node in enumerate(row):
            if i > 0:
                labeling[node].left_neighbor = PORT_LEFT_NEIGHBOR
            if i + 1 < len(row):
                labeling[node].right_neighbor = PORT_RIGHT_NEIGHBOR
    return labeling


def balanced_tree_instance(
    depth: int,
    compatible: bool = True,
    rng: Optional[random.Random] = None,
    break_count: int = 1,
) -> Instance:
    """A BalancedTree instance on a complete binary tree with lateral edges.

    With ``compatible=True`` the labeling is globally compatible, so the
    unique valid output has every consistent node answering (B, P(v))
    (Lemma 4.7).  Otherwise ``break_count`` random non-root nodes get a
    lateral label erased, making them incompatible.
    """
    rnd = _rng(rng)
    topo = complete_binary_tree(depth, max_degree=5)
    add_lateral_edges(topo)
    labeling = _balanced_labeling(topo)
    broken: List[int] = []
    if not compatible:
        candidates = [v for row in topo.levels[1:] for v in row[1:]]
        for node in rnd.sample(candidates, min(break_count, len(candidates))):
            labeling[node].left_neighbor = None
            broken.append(node)
    return Instance(
        graph=topo.graph,
        labeling=labeling,
        name=f"balanced-tree-d{depth}-{'ok' if compatible else 'broken'}",
        meta={
            "depth": depth,
            "root": topo.root,
            "broken": broken,
            "leaves": list(topo.leaves),
        },
    )


def disjointness_embedding(
    a: Sequence[int], b: Sequence[int]
) -> Instance:
    """The Proposition 4.9 / Figure 5 embedding E(a, b) of disjointness.

    ``a`` and ``b`` are 0/1 vectors of length N = 2^{k-1} for some k ≥ 1.
    All labels are independent of (a, b) except at the leaves: leaf pair
    (u_i, w_i) is laterally linked by labels iff NOT (a_i = b_i = 1).  The
    labeling is globally compatible iff disj(a, b) = 1.

    ``meta`` records, for every leaf, which coordinate it encodes and
    whether Alice's a_i / Bob's b_i is needed to answer a query for it —
    this is what the two-party simulation of Theorem 2.9 charges for.
    """
    if len(a) != len(b):
        raise ValueError("a and b must have equal length")
    n_pairs = len(a)
    if n_pairs < 1 or n_pairs & (n_pairs - 1):
        raise ValueError("length must be a power of two")
    depth = n_pairs.bit_length()  # N = 2^{depth-1}
    topo = complete_binary_tree(depth, max_degree=5)
    add_lateral_edges(topo)
    labeling = _balanced_labeling(topo)

    leaves = topo.leaves
    coordinate_of: Dict[int, int] = {}
    for i in range(n_pairs):
        u_i = leaves[2 * i]
        w_i = leaves[2 * i + 1]
        coordinate_of[u_i] = i
        coordinate_of[w_i] = i
        if a[i] == 1 and b[i] == 1:
            labeling[u_i].right_neighbor = None
            labeling[w_i].left_neighbor = None
        else:
            labeling[u_i].right_neighbor = PORT_RIGHT_NEIGHBOR
            labeling[w_i].left_neighbor = PORT_LEFT_NEIGHBOR
        # The w_i <-> u_{i+1} links are input-independent and already set by
        # _balanced_labeling; the chain ends (LN(u_1), RN(w_N)) are ⊥.
    labeling[leaves[0]].left_neighbor = None
    labeling[leaves[-1]].right_neighbor = None

    disj = 1 if all(x * y == 0 for x, y in zip(a, b)) else 0
    # The coordinate map also rides on the graph itself: graph-level meta
    # survives freeze()/thaw() (compilation into the CSR fast path), so
    # the embedding stays chargeable even when only the graph travels.
    topo.graph.meta["coordinate_of"] = coordinate_of
    topo.graph.meta["root"] = topo.root
    return Instance(
        graph=topo.graph,
        labeling=labeling,
        name=f"disjointness-N{n_pairs}",
        meta={
            "depth": depth,
            "root": topo.root,
            "coordinate_of": coordinate_of,
            "a": list(a),
            "b": list(b),
            "disjoint": disj,
            "leaves": list(leaves),
        },
    )


# ----------------------------------------------------------------------
# Hierarchical-THC(k) instances (Section 5)
# ----------------------------------------------------------------------
def hierarchical_thc_instance(
    k: int,
    backbone_length: int,
    rng: Optional[random.Random] = None,
    explicit_levels: bool = False,
    max_degree: int = 5,
    lengths: Optional[Sequence[int]] = None,
) -> Instance:
    """A balanced Hierarchical-THC(k) instance.

    Every backbone (maximal same-level component of G_k) is a path; each
    node of a level-ℓ ≥ 2 backbone hangs a full level-(ℓ−1) component from
    its RC port.  By default every backbone has ``backbone_length`` nodes;
    with m = backbone_length the instance has Θ(m^k) nodes, so
    m = Θ(n^{1/k}) — exactly the balanced shape the Proposition 5.13 lower
    bound uses.

    ``lengths`` (indexed by level − 1) overrides the per-level backbone
    lengths, which is how tests and benches build *deep* components
    (longer than 2n^{1/k}, Definition 5.10): e.g. ``lengths=[m, 8*m]``
    makes the top level deep (exercising waypoints and exemption), while
    ``lengths=[8*m, m]`` makes level-1 components deep (forcing declines).

    ``explicit_levels`` stamps each node's level into its input label
    (needed when this construction is reused inside Hybrid/HH instances).
    """
    rnd = _rng(rng)
    if k < 1:
        raise ValueError("k must be >= 1")
    if backbone_length < 1:
        raise ValueError("backbone_length must be >= 1")
    if lengths is not None and len(lengths) != k:
        raise ValueError("lengths must have one entry per level")
    per_level = (
        [backbone_length] * k if lengths is None else [int(x) for x in lengths]
    )
    if any(x < 1 for x in per_level):
        raise ValueError("all backbone lengths must be >= 1")
    graph = PortGraph(max_degree=max_degree)
    labeling = Labeling()
    next_id = [1]

    def new_node(level: int) -> int:
        node = next_id[0]
        next_id[0] += 1
        graph.add_node(node)
        label = NodeLabel(color=rnd.choice(COLORS))
        if explicit_levels:
            label.level = level
        labeling[node] = label
        return node

    def build_component(level: int) -> int:
        """Build one level-``level`` component; return its backbone root."""
        backbone = [new_node(level) for _ in range(per_level[level - 1])]
        for prev, nxt in zip(backbone, backbone[1:]):
            graph.add_edge(prev, PORT_LEFT_CHILD, nxt, PORT_PARENT)
            labeling[prev].left_child = PORT_LEFT_CHILD
            labeling[nxt].parent = PORT_PARENT
        if level >= 2:
            for node in backbone:
                child_root = build_component(level - 1)
                graph.add_edge(node, PORT_RIGHT_CHILD, child_root, PORT_PARENT)
                labeling[node].right_child = PORT_RIGHT_CHILD
                labeling[child_root].parent = PORT_PARENT
        return backbone[0]

    root = build_component(k)
    return Instance(
        graph=graph,
        labeling=labeling,
        name=f"hierarchical-thc-k{k}-m{backbone_length}",
        meta={
            "k": k,
            "backbone_length": backbone_length,
            "lengths": per_level,
            "root": root,
        },
    )


# ----------------------------------------------------------------------
# Hybrid-THC(k) and HH-THC(k, ℓ) instances (Section 6)
# ----------------------------------------------------------------------
def hybrid_thc_instance(
    k: int,
    backbone_length: int,
    bt_depth: int,
    rng: Optional[random.Random] = None,
    compatible: bool = True,
    lengths: Optional[Sequence[int]] = None,
) -> Instance:
    """A Hybrid-THC(k) instance (Definition 6.1).

    Levels 2..k form THC backbones exactly as in
    :func:`hierarchical_thc_instance`; each level-2 node hangs a complete
    BalancedTree instance of depth ``bt_depth`` (all of whose nodes carry
    explicit level 1).  With ``compatible=False`` each BalancedTree gets one
    broken lateral label, so level-1 components must output (U, ·) — which
    is still a solved instance for the level-2 exemption rule.
    """
    rnd = _rng(rng)
    if k < 2:
        raise ValueError("Hybrid-THC needs k >= 2")
    if lengths is not None and len(lengths) != k - 1:
        raise ValueError("lengths must cover levels 2..k")
    per_level = (
        [backbone_length] * (k - 1)
        if lengths is None
        else [int(x) for x in lengths]
    )
    graph = PortGraph(max_degree=5)
    labeling = Labeling()
    next_id = [1]

    def new_node(level: int) -> int:
        node = next_id[0]
        next_id[0] += 1
        graph.add_node(node)
        labeling[node] = NodeLabel(color=rnd.choice(COLORS), level=level)
        return node

    bt_roots: List[int] = []

    def build_balanced_tree() -> int:
        """A complete BalancedTree component; returns its root."""
        depth = bt_depth
        rows: List[List[int]] = []
        for d in range(depth + 1):
            rows.append([new_node(1) for _ in range(2**d)])
        for d in range(depth):
            for i, v in enumerate(rows[d]):
                left = rows[d + 1][2 * i]
                right = rows[d + 1][2 * i + 1]
                graph.add_edge(v, PORT_LEFT_CHILD, left, PORT_PARENT)
                graph.add_edge(v, PORT_RIGHT_CHILD, right, PORT_PARENT)
                labeling[v].left_child = PORT_LEFT_CHILD
                labeling[v].right_child = PORT_RIGHT_CHILD
                labeling[left].parent = PORT_PARENT
                labeling[right].parent = PORT_PARENT
        for row in rows:
            for left, right in zip(row, row[1:]):
                graph.add_edge(
                    left, PORT_RIGHT_NEIGHBOR, right, PORT_LEFT_NEIGHBOR
                )
                labeling[left].right_neighbor = PORT_RIGHT_NEIGHBOR
                labeling[right].left_neighbor = PORT_LEFT_NEIGHBOR
        if not compatible:
            victim = rnd.choice(rows[-1][1:])
            labeling[victim].left_neighbor = None
        bt_roots.append(rows[0][0])
        return rows[0][0]

    def build_component(level: int) -> int:
        if level == 1:
            return build_balanced_tree()
        backbone = [new_node(level) for _ in range(per_level[level - 2])]
        for prev, nxt in zip(backbone, backbone[1:]):
            graph.add_edge(prev, PORT_LEFT_CHILD, nxt, PORT_PARENT)
            labeling[prev].left_child = PORT_LEFT_CHILD
            labeling[nxt].parent = PORT_PARENT
        for node in backbone:
            child_root = build_component(level - 1)
            graph.add_edge(node, PORT_RIGHT_CHILD, child_root, PORT_PARENT)
            labeling[node].right_child = PORT_RIGHT_CHILD
            labeling[child_root].parent = PORT_PARENT
        return backbone[0]

    root = build_component(k)
    return Instance(
        graph=graph,
        labeling=labeling,
        name=f"hybrid-thc-k{k}-m{backbone_length}-d{bt_depth}",
        meta={
            "k": k,
            "backbone_length": backbone_length,
            "bt_depth": bt_depth,
            "root": root,
            "bt_roots": bt_roots,
        },
    )


def hh_thc_instance(
    k: int,
    ell: int,
    hierarchical_backbone: int,
    hybrid_backbone: int,
    bt_depth: int,
    rng: Optional[random.Random] = None,
) -> Instance:
    """An HH-THC(k, ℓ) instance (Definition 6.4): two disjoint populations.

    Nodes with bit 0 form a Hierarchical-THC(ℓ) instance; nodes with bit 1
    form a Hybrid-THC(k) instance.  (Definition 6.4 only constrains the two
    induced subgraphs, so a disjoint union exercises both validity clauses.)
    """
    rnd = _rng(rng)
    part0 = hierarchical_thc_instance(
        ell, hierarchical_backbone, rng=rnd, explicit_levels=False
    )
    part1 = hybrid_thc_instance(k, hybrid_backbone, bt_depth, rng=rnd)
    graph = PortGraph(max_degree=5)
    labeling = Labeling()
    offset = max(part0.graph.nodes()) if part0.graph.num_nodes else 0
    for node in part0.graph.nodes():
        graph.add_node(node)
        label = part0.label(node).copy()
        label.bit = 0
        labeling[node] = label
    for edge in part0.graph.edges():
        graph.add_edge(edge.u, edge.u_port, edge.v, edge.v_port)
    remap = {node: node + offset for node in part1.graph.nodes()}
    for node in part1.graph.nodes():
        graph.add_node(remap[node])
        label = part1.label(node).copy()
        label.bit = 1
        labeling[remap[node]] = label
    for edge in part1.graph.edges():
        graph.add_edge(remap[edge.u], edge.u_port, remap[edge.v], edge.v_port)
    return Instance(
        graph=graph,
        labeling=labeling,
        name=f"hh-thc-k{k}-l{ell}",
        meta={
            "k": k,
            "ell": ell,
            "hierarchical_root": part0.meta["root"],
            "hybrid_root": remap[part1.meta["root"]],
            "part0_nodes": part0.graph.num_nodes,
            "part1_nodes": part1.graph.num_nodes,
        },
    )


# ----------------------------------------------------------------------
# Example 7.6 relay instance and classic-problem instances
# ----------------------------------------------------------------------
def relay_instance(
    depth: int, rng: Optional[random.Random] = None
) -> Instance:
    """The Example 7.6 graph: two depth-``depth`` trees joined at the roots.

    Each right-tree leaf ``v_i`` holds an input bit; the problem asks the
    i-th left-tree leaf ``u_i`` to output that bit.  ``meta['pairing']``
    maps each left leaf to its partner right leaf.
    """
    rnd = _rng(rng)
    graph, left, right = two_trees_with_bridge(depth)
    labeling = Labeling()
    for node in graph.nodes():
        labeling[node] = NodeLabel()
    bits: Dict[int, int] = {}
    pairing: Dict[int, int] = {}
    for u_leaf, v_leaf in zip(left.leaves, right.leaves):
        bit = rnd.randint(0, 1)
        labeling[v_leaf].bit = bit
        bits[v_leaf] = bit
        pairing[u_leaf] = v_leaf
    return Instance(
        graph=graph,
        labeling=labeling,
        name=f"relay-d{depth}",
        meta={
            "depth": depth,
            "left_root": left.root,
            "right_root": right.root,
            "left_leaves": list(left.leaves),
            "right_leaves": list(right.leaves),
            "pairing": pairing,
            "bits": bits,
        },
    )


def perturbed_leaf_coloring_instance(
    depth: int,
    defect_rate: float,
    rng: Optional[random.Random] = None,
) -> Instance:
    """A Proposition 3.12 gadget with a controlled leaf defect rate.

    Starts from the unanimous-leaf hard instance (internal nodes red,
    every leaf colored χ0) and recolors ``max(1, defect_rate · #leaves)``
    randomly chosen leaves to a uniformly random *different* color —
    ``defect_rate=0`` keeps the pristine gadget.  The result is a general
    (non-promise) LeafColoring input whose leaf distribution sits a
    controlled distance from the worst case, so randomized-solver sweeps
    can chart how success probability and walk volume degrade as the
    promise breaks down.
    """
    if not 0.0 <= defect_rate <= 1.0:
        raise ValueError("defect_rate must be in [0, 1]")
    rnd = _rng(rng)
    inst = hard_leaf_coloring_instance(depth, rng=rnd)
    leaves = list(inst.meta["leaves"])
    chi0 = inst.meta["chi0"]
    defects = 0 if defect_rate == 0.0 else max(
        1, int(round(defect_rate * len(leaves)))
    )
    defective: List[int] = []
    for leaf in rnd.sample(leaves, min(defects, len(leaves))):
        inst.labeling[leaf].color = rnd.choice(
            [c for c in COLORS if c != chi0]
        )
        defective.append(leaf)
    inst.name = f"leaf-coloring-perturbed-d{depth}-r{defect_rate:g}"
    inst.meta["defect_rate"] = defect_rate
    inst.meta["defective_leaves"] = defective
    return inst


def random_regular_instance(
    n: int,
    degree: int = 3,
    rng: Optional[random.Random] = None,
    max_attempts: int = 1000,
) -> Instance:
    """A simple random ``degree``-regular port graph on ``n`` nodes.

    Configuration model with rejection: every node gets ``degree`` stubs,
    the stub list is shuffled and paired sequentially, and the draw is
    rejected (and redrawn from the same RNG stream) if any pairing forms
    a self-loop or a parallel edge — so the result is uniform over simple
    regular multigraph-free pairings and fully determined by the RNG.
    Ports are assigned in pairing order (1..degree per node).  The labels
    are empty: these instances feed the class-A specimen problems
    (``constant``, ``degree-parity``), which read only the topology.
    """
    if n < degree + 1:
        raise ValueError("need n >= degree + 1 for a simple regular graph")
    if (n * degree) % 2:
        raise ValueError("n * degree must be even")
    rnd = _rng(rng)
    for _ in range(max_attempts):
        stubs = [v for v in range(1, n + 1) for _ in range(degree)]
        rnd.shuffle(stubs)
        pairs = [
            (stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)
        ]
        if any(u == v for u, v in pairs):
            continue
        seen = set()
        simple = True
        for u, v in pairs:
            key = (u, v) if u < v else (v, u)
            if key in seen:
                simple = False
                break
            seen.add(key)
        if not simple:
            continue
        graph = PortGraph(max_degree=degree)
        for node in range(1, n + 1):
            graph.add_node(node)
        next_port = {node: 1 for node in range(1, n + 1)}
        for u, v in pairs:
            graph.add_edge(u, next_port[u], v, next_port[v])
            next_port[u] += 1
            next_port[v] += 1
        labeling = Labeling()
        for node in graph.nodes():
            labeling[node] = NodeLabel()
        return Instance(
            graph=graph,
            labeling=labeling,
            name=f"random-regular-n{n}-d{degree}",
            meta={"n": n, "degree": degree},
        )
    raise RuntimeError(
        f"no simple {degree}-regular pairing found on {n} nodes after "
        f"{max_attempts} attempts"
    )


def cycle_instance(
    n: int,
    rng: Optional[random.Random] = None,
    shuffle_ids: bool = True,
) -> Instance:
    """A cycle instance for the classic problems (3-coloring, MIS, ...).

    ``shuffle_ids`` draws the identifiers from a polynomial range in random
    order, which is what makes Cole–Vishkin's Θ(log* n) bound meaningful.
    """
    rnd = _rng(rng)
    graph = cycle_graph(n)
    if shuffle_ids:
        universe = rnd.sample(range(1, 4 * n + 1), n)
        remap = dict(zip(sorted(graph.nodes()), universe))
        shuffled = PortGraph(max_degree=graph.max_degree)
        for node in graph.nodes():
            shuffled.add_node(remap[node])
        for edge in graph.edges():
            shuffled.add_edge(
                remap[edge.u], edge.u_port, remap[edge.v], edge.v_port
            )
        graph = shuffled
    labeling = Labeling()
    for node in graph.nodes():
        labeling[node] = NodeLabel()
    return Instance(
        graph=graph,
        labeling=labeling,
        name=f"cycle-{n}",
        meta={"n": n},
    )
