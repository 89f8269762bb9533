"""Tests for BalancedTree: compatibility, validity, disjointness link."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import (
    balanced_tree_instance,
    disjointness_embedding,
)
from repro.graphs.labelings import BALANCED, UNBALANCED
from repro.graphs.tree_structure import InstanceTopology
from repro.lcl.verifier import validate_locally
from repro.problems.balanced_tree import (
    BalancedTree,
    compatibility_map,
    is_compatible,
    reference_solution,
)

PROBLEM = BalancedTree()


class TestCompatibility:
    def test_clean_instance_globally_compatible(self):
        inst = balanced_tree_instance(3)
        cmap = compatibility_map(inst)
        assert all(v for v in cmap.values() if v is not None)
        assert all(value is not None for value in cmap.values())

    def test_broken_instance_has_incompatible_node(self):
        inst = balanced_tree_instance(3, compatible=False, rng=random.Random(0))
        cmap = compatibility_map(inst)
        assert any(value is False for value in cmap.values())

    def test_agreement_violation_detected(self):
        inst = balanced_tree_instance(2)
        # Point a node's RN somewhere that does not point back.
        row = [v for v in inst.graph.nodes()]
        t = InstanceTopology(inst)
        # node 2 is the root's left child; RN(2)=3, LN(3)=2 normally.
        inst.labeling[3].left_neighbor = None
        assert not is_compatible(InstanceTopology(inst), 2)

    def test_type_preserving_violation(self):
        inst = balanced_tree_instance(2)
        # Make an internal node's RN label point down at a leaf via its
        # right-child port: type-preserving fails.
        inst.labeling[2].right_neighbor = inst.labeling[2].right_child
        assert not is_compatible(InstanceTopology(inst), 2)

    def test_inconsistent_raises(self):
        inst = balanced_tree_instance(2)
        inst.labeling[1].left_child = None  # root becomes inconsistent
        with pytest.raises(ValueError):
            is_compatible(InstanceTopology(inst), 1)


class TestChecker:
    def test_reference_accepted_on_compatible(self):
        inst = balanced_tree_instance(4, rng=random.Random(0))
        outputs = reference_solution(inst)
        assert PROBLEM.validate(inst, outputs) == []
        root = inst.meta["root"]
        assert outputs[root] == (BALANCED, None)  # root's P(v) is ⊥

    def test_reference_accepted_on_broken(self):
        for seed in range(6):
            inst = balanced_tree_instance(
                4, compatible=False, rng=random.Random(seed), break_count=2
            )
            outputs = reference_solution(inst)
            assert PROBLEM.validate(inst, outputs) == []

    def test_lemma_4_7_all_balanced_on_compatible(self):
        """Lemma 4.7: globally compatible ⇒ every consistent node says B."""
        inst = balanced_tree_instance(3)
        outputs = reference_solution(inst)
        for node, out in outputs.items():
            assert out[0] == BALANCED

    def test_lemma_4_7_u_propagates_to_root(self):
        """Incompatible descendant ⇒ U on the whole ancestor path."""
        inst = balanced_tree_instance(4, compatible=False, rng=random.Random(1))
        outputs = reference_solution(inst)
        root = inst.meta["root"]
        assert outputs[root][0] == UNBALANCED

    def test_incompatible_must_output_u_bottom(self):
        inst = balanced_tree_instance(3, compatible=False, rng=random.Random(2))
        outputs = reference_solution(inst)
        # Erasing a lateral label makes *neighbors* of the victim
        # incompatible (agreement/siblings are conditions on the pointing
        # side); pick an actually incompatible node.
        cmap = compatibility_map(inst)
        victim = next(v for v, c in cmap.items() if c is False)
        outputs[victim] = (BALANCED, inst.label(victim).parent)
        violations = PROBLEM.validate(inst, outputs)
        assert any(v.node == victim and v.rule == "cond1" for v in violations)

    def test_compatible_leaf_must_point_at_parent(self):
        inst = balanced_tree_instance(2)
        outputs = reference_solution(inst)
        leaf = inst.meta["leaves"][0]
        outputs[leaf] = (BALANCED, 2)  # wrong port
        violations = PROBLEM.validate(inst, outputs)
        assert any(v.node == leaf and v.rule == "cond2" for v in violations)

    def test_balanced_children_force_balanced_parent(self):
        inst = balanced_tree_instance(3)
        outputs = reference_solution(inst)
        root = inst.meta["root"]
        outputs[root] = (UNBALANCED, 1)
        violations = PROBLEM.validate(inst, outputs)
        assert any(v.node == root and v.rule == "cond3a" for v in violations)

    def test_u_child_forces_pointer(self):
        inst = balanced_tree_instance(3, compatible=False, rng=random.Random(3))
        outputs = reference_solution(inst)
        # find an internal node outputting (U, p) and break its pointer
        t = InstanceTopology(inst)
        for node, out in outputs.items():
            if out[0] == UNBALANCED and out[1] is not None:
                outputs[node] = (UNBALANCED, None)
                violations = PROBLEM.validate(inst, outputs)
                assert any(
                    v.node == node and v.rule == "cond3b" for v in violations
                )
                break
        else:
            pytest.fail("no (U, port) node found")

    def test_alphabet(self):
        inst = balanced_tree_instance(1)
        outputs = reference_solution(inst)
        outputs[inst.meta["root"]] = "bogus"
        assert any(
            v.rule == "alphabet" for v in PROBLEM.validate(inst, outputs)
        )


class TestLocality:
    """Lemma 4.4: BalancedTree is an LCL — radius 3 suffices."""

    def test_local_validation_agrees(self):
        for compatible in (True, False):
            inst = balanced_tree_instance(
                3, compatible=compatible, rng=random.Random(4)
            )
            outputs = reference_solution(inst)
            local = validate_locally(PROBLEM, inst, outputs)
            glob = PROBLEM.validate(inst, outputs)
            assert local == glob == []


class TestDisjointnessInstances:
    def test_disjoint_instance_all_balanced(self):
        """disj(a,b)=1 ⇒ globally compatible ⇒ all-B is the valid output."""
        a = [1, 0, 1, 0]
        b = [0, 1, 0, 1]
        inst = disjointness_embedding(a, b)
        outputs = reference_solution(inst)
        assert PROBLEM.validate(inst, outputs) == []
        root = inst.meta["root"]
        assert outputs[root][0] == BALANCED

    def test_intersecting_instance_root_unbalanced(self):
        """disj(a,b)=0 ⇒ root must output (U, ·) (Prop 4.9's key fact)."""
        a = [1, 0, 0, 0]
        b = [1, 0, 0, 0]
        inst = disjointness_embedding(a, b)
        outputs = reference_solution(inst)
        assert PROBLEM.validate(inst, outputs) == []
        root = inst.meta["root"]
        assert outputs[root][0] == UNBALANCED


class TestCyclicGT:
    """The reference on a G_T cycle above the only incompatible node."""

    def test_structure(self, cyclic_gt_instance):
        inst = cyclic_gt_instance
        cmap = compatibility_map(inst)
        assert inst.n == 42 and inst.graph.max_degree == 5
        assert [v for v, c in cmap.items() if c is not True] == [
            inst.meta["incompatible"]
        ]

    def test_answer_independent_of_insertion_order(
        self, cyclic_gt_instance, reinsert
    ):
        """A memoized downward search cut the cycle where it entered it.

        With c3 inserted first, c1 answered (B, P(c1)) although its LC
        child c2 answers U.  Spreading the taint upward marks the whole
        cycle, whichever node comes first.
        """
        inst = cyclic_gt_instance
        nodes = list(inst.graph.nodes())
        expected = reference_solution(inst)
        assert PROBLEM.validate(inst, expected) == []
        for first in inst.meta["cycle"]:
            order = [first] + [v for v in nodes if v != first]
            outputs = reference_solution(reinsert(inst, order))
            assert outputs == expected
        for v in inst.meta["cycle"]:
            assert expected[v] == (UNBALANCED, inst.label(v).left_child)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_root_output_encodes_disjointness(log_n, seed):
    """g(E(a,b)) = disj(a,b): the embedding property of Definition 2.7."""
    n = 2 ** (log_n % 4)  # N in {1, 2, 4, 8}
    rnd = random.Random(seed)
    a = [rnd.randint(0, 1) for _ in range(n)]
    b = [rnd.randint(0, 1) for _ in range(n)]
    inst = disjointness_embedding(a, b)
    outputs = reference_solution(inst)
    assert PROBLEM.validate(inst, outputs) == []
    root_balanced = outputs[inst.meta["root"]][0] == BALANCED
    assert root_balanced == bool(inst.meta["disjoint"])
