"""Tests for the instance generators."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import tree_structure as ts
from repro.graphs.builders import (
    add_lateral_edges,
    complete_binary_tree,
    cycle_graph,
    path_graph,
    two_trees_with_bridge,
)
from repro.graphs.generators import (
    balanced_tree_instance,
    cycle_instance,
    disjointness_embedding,
    hard_leaf_coloring_instance,
    hh_thc_instance,
    hybrid_thc_instance,
    hierarchical_thc_instance,
    leaf_coloring_instance,
    perturbed_leaf_coloring_instance,
    random_regular_instance,
    random_tree_instance,
    relay_instance,
    tree_labeling_for,
)
from repro.graphs.labelings import BLUE, COLORS, RED, Instance


class TestBuilders:
    def test_complete_tree_shape(self):
        topo = complete_binary_tree(3)
        assert topo.graph.num_nodes == 15
        assert topo.root == 1
        assert len(topo.leaves) == 8
        topo.graph.validate()

    def test_heap_ordering(self):
        topo = complete_binary_tree(3)
        for d, row in enumerate(topo.levels):
            assert row == list(range(2**d, 2 ** (d + 1)))

    def test_lateral_edges(self):
        topo = complete_binary_tree(2, max_degree=5)
        add_lateral_edges(topo)
        topo.graph.validate()
        row = topo.levels[1]
        assert topo.graph.port_to(row[0], row[1]) == 5
        assert topo.graph.port_to(row[1], row[0]) == 4

    def test_path_and_cycle(self):
        p = path_graph(5)
        assert p.num_edges() == 4
        p.validate()
        c = cycle_graph(5)
        assert c.num_edges() == 5
        c.validate()
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_two_trees_with_bridge(self):
        g, left, right = two_trees_with_bridge(2)
        assert g.num_nodes == 14
        assert g.port_to(left.root, right.root) == 3
        g.validate()


class TestLeafColoringInstances:
    def test_fixed_leaf_color(self):
        inst = leaf_coloring_instance(3, leaf_color=BLUE)
        for leaf in inst.meta["leaves"]:
            assert inst.label(leaf).color == BLUE

    def test_hard_instance_unanimous(self):
        inst = hard_leaf_coloring_instance(4, rng=random.Random(7))
        chi0 = inst.meta["chi0"]
        assert chi0 in (RED, BLUE)
        for leaf in inst.meta["leaves"]:
            assert inst.label(leaf).color == chi0

    def test_random_tree_reaches_target(self):
        inst = random_tree_instance(50, rng=random.Random(0))
        assert 10 <= inst.graph.num_nodes <= 60
        inst.graph.validate()

    def test_random_tree_with_cycle_valid(self):
        inst = random_tree_instance(
            60, rng=random.Random(1), with_cycle=True, cycle_length=5
        )
        inst.graph.validate()
        # ring nodes are internal
        gt = ts.derive_gt(inst)
        assert any(s == ts.INTERNAL for s in gt.status.values())

    def test_deterministic_given_seed(self):
        a = random_tree_instance(40, rng=random.Random(5))
        b = random_tree_instance(40, rng=random.Random(5))
        assert sorted(a.graph.nodes()) == sorted(b.graph.nodes())
        assert all(
            a.label(v).color == b.label(v).color for v in a.graph.nodes()
        )


def _quadratic_leaf_coloring_instance(depth, leaf_color, rng):
    """``leaf_coloring_instance`` as it was written before its leaf set
    was built once: the set is rebuilt for every node (Θ(n²))."""
    topo = complete_binary_tree(depth)
    labeling = tree_labeling_for(topo)
    for node in topo.graph.nodes():
        if node in set(topo.leaves):
            labeling[node].color = (
                leaf_color if leaf_color is not None else rng.choice(COLORS)
            )
        else:
            labeling[node].color = RED
    return Instance(
        graph=topo.graph,
        labeling=labeling,
        name=f"leaf-coloring-complete-d{depth}",
        meta={"depth": depth, "root": topo.root, "leaves": list(topo.leaves)},
    )


def _snapshot(instance, rng):
    """Name, meta, every label in insertion order, and the RNG state."""
    labels = [
        (node, dataclasses.astuple(instance.labeling[node]))
        for node in instance.labeling.nodes()
    ]
    return (instance.name, sorted(instance.meta.items()), labels,
            rng.getstate())


def _snapshot_digest(depth, leaf_color):
    rng = random.Random(f"leaf-coloring-instance:{depth}")
    instance = leaf_coloring_instance(depth, leaf_color=leaf_color, rng=rng)
    snapshot = repr(_snapshot(instance, rng)).encode()
    return hashlib.blake2b(snapshot, digest_size=8).hexdigest()


# ``_snapshot_digest`` of the quadratic construction, depths 1-12: the
# labelings, name, meta and RNG state after the call that the linear
# construction must reproduce.
QUADRATIC_DIGESTS = {
    None: {
        1: "9e1cfd35ba55a39a", 2: "9c617e4bea5d7437",
        3: "d7e476e16be11885", 4: "51164fc964f24653",
        5: "6784bd925b2d515d", 6: "1b53553c4529bc33",
        7: "0b81102c61a8c088", 8: "b1f9dcdda6109354",
        9: "94f563542f9eb72b", 10: "d0ccf2b5e58e9cae",
        11: "e182cc8bee4e4975", 12: "19defbe5f6faceb4",
    },
    BLUE: {
        1: "3b7fb404a27679fb", 2: "2cb2198985960a6c",
        3: "bf6b752608e809cc", 4: "3c65acab5d30f9c1",
        5: "d9ab625e19f7de7b", 6: "1b8d2ab7b177df28",
        7: "7d4c354a517a9606", 8: "9bf14163acfc930d",
        9: "a1a0d66cbe003b36", 10: "ad4b353269d081ab",
        11: "337f50d93e8bd937", 12: "312bf367d78ae290",
    },
}


class TestLeafColoringConstruction:
    """The leaf set is built once; the RNG draws in the same order."""

    @pytest.mark.parametrize("leaf_color", [None, BLUE])
    @pytest.mark.parametrize("depth", range(1, 11))
    def test_matches_quadratic_construction(self, depth, leaf_color):
        old_rng = random.Random(depth)
        old = _quadratic_leaf_coloring_instance(depth, leaf_color, old_rng)
        new_rng = random.Random(depth)
        new = leaf_coloring_instance(depth, leaf_color=leaf_color, rng=new_rng)
        assert _snapshot(new, new_rng) == _snapshot(old, old_rng)

    @pytest.mark.parametrize("leaf_color", [None, BLUE])
    @pytest.mark.parametrize("depth", range(1, 13))
    def test_pinned_digests(self, depth, leaf_color):
        # Depths 11 and 12 cost the quadratic construction 0.2-0.7 s, so
        # its output is pinned here instead of rebuilt.
        expected = QUADRATIC_DIGESTS[leaf_color][depth]
        assert _snapshot_digest(depth, leaf_color) == expected


class TestBalancedTreeInstances:
    def test_compatible_instance_validates(self):
        inst = balanced_tree_instance(3)
        inst.graph.validate()
        assert inst.meta["broken"] == []

    def test_broken_instance_lists_victims(self):
        inst = balanced_tree_instance(
            3, compatible=False, rng=random.Random(0), break_count=2
        )
        assert len(inst.meta["broken"]) == 2

    def test_lateral_labels_present(self):
        inst = balanced_tree_instance(2)
        root = inst.meta["root"]
        assert inst.label(root).left_neighbor is None
        assert inst.label(root).right_neighbor is None
        leaves = inst.meta["leaves"]
        assert inst.label(leaves[1]).left_neighbor is not None


class TestDisjointnessEmbedding:
    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            disjointness_embedding([1, 0, 1], [0, 0, 0])
        with pytest.raises(ValueError):
            disjointness_embedding([1], [0, 1])

    def test_disjoint_flag(self):
        inst = disjointness_embedding([1, 0, 0, 1], [0, 1, 0, 0])
        assert inst.meta["disjoint"] == 1
        inst2 = disjointness_embedding([1, 0, 0, 1], [1, 0, 0, 0])
        assert inst2.meta["disjoint"] == 0

    def test_intersecting_coordinate_breaks_lateral_labels(self):
        a = [0, 1, 0, 0]
        b = [0, 1, 0, 0]
        inst = disjointness_embedding(a, b)
        leaves = inst.meta["leaves"]
        u1, w1 = leaves[2], leaves[3]  # coordinate i=1
        assert inst.label(u1).right_neighbor is None
        assert inst.label(w1).left_neighbor is None
        u0, w0 = leaves[0], leaves[1]
        assert inst.label(u0).right_neighbor is not None

    def test_coordinate_map_covers_all_leaves(self):
        a = [0] * 8
        b = [1] * 8
        inst = disjointness_embedding(a, b)
        cmap = inst.meta["coordinate_of"]
        assert sorted(cmap.values()) == sorted(list(range(8)) * 2)


class TestTHCInstances:
    def test_hierarchical_structure(self):
        inst = hierarchical_thc_instance(3, 3, rng=random.Random(0))
        inst.graph.validate()
        assert inst.graph.num_nodes == 3 + 3 * (3 + 3 * 3)

    def test_explicit_levels_flag(self):
        inst = hierarchical_thc_instance(
            2, 3, rng=random.Random(0), explicit_levels=True
        )
        levels = {inst.label(v).level for v in inst.graph.nodes()}
        assert levels == {1, 2}

    def test_hybrid_structure(self):
        inst = hybrid_thc_instance(2, 3, 2, rng=random.Random(0))
        inst.graph.validate()
        # 3 backbone nodes at level 2, each hanging a 7-node balanced tree
        assert inst.graph.num_nodes == 3 + 3 * 7
        assert len(inst.meta["bt_roots"]) == 3

    def test_hybrid_levels(self):
        inst = hybrid_thc_instance(3, 2, 1, rng=random.Random(0))
        levels = sorted({inst.label(v).level for v in inst.graph.nodes()})
        assert levels == [1, 2, 3]

    def test_hh_two_populations(self):
        inst = hh_thc_instance(2, 3, 3, 2, 1, rng=random.Random(0))
        inst.graph.validate()
        bits = {inst.label(v).bit for v in inst.graph.nodes()}
        assert bits == {0, 1}
        n0 = sum(1 for v in inst.graph.nodes() if inst.label(v).bit == 0)
        assert n0 == inst.meta["part0_nodes"]


class TestRelayAndCycleInstances:
    def test_relay_bits_and_pairing(self):
        inst = relay_instance(3, rng=random.Random(0))
        pairing = inst.meta["pairing"]
        assert len(pairing) == 8
        for u_leaf, v_leaf in pairing.items():
            assert inst.label(v_leaf).bit in (0, 1)
            assert inst.label(u_leaf).bit is None

    def test_cycle_instance_ids_shuffled(self):
        inst = cycle_instance(16, rng=random.Random(0))
        inst.graph.validate()
        ids = sorted(inst.graph.nodes())
        assert len(ids) == 16
        assert ids != list(range(1, 17))  # shuffled into a larger range
        assert max(ids) <= 64

    def test_cycle_instance_unshuffled(self):
        inst = cycle_instance(10, shuffle_ids=False)
        assert sorted(inst.graph.nodes()) == list(range(1, 11))


class TestRandomRegularInstances:
    def test_regularity_and_simplicity(self):
        inst = random_regular_instance(20, 3, rng=random.Random(1))
        inst.graph.validate()
        assert inst.graph.num_nodes == 20
        for node in inst.graph.nodes():
            assert inst.graph.degree(node) == 3
        # Simple: no self-loops or parallel edges among the 3n/2 edges.
        seen = set()
        for edge in inst.graph.edges():
            assert edge.u != edge.v
            key = (min(edge.u, edge.v), max(edge.u, edge.v))
            assert key not in seen
            seen.add(key)
        assert len(seen) == 30

    def test_deterministic_given_rng(self):
        a = random_regular_instance(16, 3, rng=random.Random(5))
        b = random_regular_instance(16, 3, rng=random.Random(5))
        assert sorted(
            (e.u, e.u_port, e.v, e.v_port) for e in a.graph.edges()
        ) == sorted((e.u, e.u_port, e.v, e.v_port) for e in b.graph.edges())

    def test_rejects_infeasible_shapes(self):
        with pytest.raises(ValueError, match="even"):
            random_regular_instance(5, 3)
        with pytest.raises(ValueError, match="degree"):
            random_regular_instance(3, 3)

    @given(st.integers(min_value=4, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_any_even_shape_is_regular(self, n):
        n = n if (n * 3) % 2 == 0 else n + 1
        inst = random_regular_instance(n, 3, rng=random.Random(n))
        assert all(inst.graph.degree(v) == 3 for v in inst.graph.nodes())


class TestPerturbedLeafColoringInstances:
    def test_zero_rate_keeps_the_pristine_gadget(self):
        inst = perturbed_leaf_coloring_instance(4, 0.0, rng=random.Random(0))
        chi0 = inst.meta["chi0"]
        assert inst.meta["defective_leaves"] == []
        assert all(
            inst.label(leaf).color == chi0 for leaf in inst.meta["leaves"]
        )

    def test_controlled_defect_count(self):
        inst = perturbed_leaf_coloring_instance(5, 0.25, rng=random.Random(2))
        leaves = inst.meta["leaves"]
        chi0 = inst.meta["chi0"]
        defective = inst.meta["defective_leaves"]
        assert len(defective) == round(0.25 * len(leaves))
        for leaf in defective:
            assert inst.label(leaf).color != chi0
        intact = set(leaves) - set(defective)
        assert all(inst.label(leaf).color == chi0 for leaf in intact)

    def test_tiny_rate_still_perturbs_one_leaf(self):
        inst = perturbed_leaf_coloring_instance(
            3, 0.001, rng=random.Random(3)
        )
        assert len(inst.meta["defective_leaves"]) == 1

    def test_internal_nodes_stay_red(self):
        inst = perturbed_leaf_coloring_instance(4, 0.5, rng=random.Random(1))
        leaves = set(inst.meta["leaves"])
        for node in inst.graph.nodes():
            if node not in leaves:
                assert inst.label(node).color == RED

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="defect_rate"):
            perturbed_leaf_coloring_instance(3, 1.5)


@given(st.integers(min_value=2, max_value=16))
@settings(max_examples=15, deadline=None)
def test_disjointness_embedding_compatibility_iff_disjoint(n_log):
    """The labeling is globally compatible iff disj(a, b) = 1 (Prop 4.9)."""
    n = 1 << (n_log.bit_length() - 1)  # power of two <= n_log
    rnd = random.Random(n_log)
    a = [rnd.randint(0, 1) for _ in range(n)]
    b = [rnd.randint(0, 1) for _ in range(n)]
    inst = disjointness_embedding(a, b)
    intersects = any(x * y for x, y in zip(a, b))
    assert inst.meta["disjoint"] == (0 if intersects else 1)
