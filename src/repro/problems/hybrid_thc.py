"""Hybrid balanced 2½-coloring, Hybrid-THC(k) (Section 6, Definition 6.1).

A hybrid of BalancedTree and Hierarchical-THC(k) with (Theorem 6.3):

* R-DIST = D-DIST = Θ(log n)      — distance-easy, because every level-1
  BalancedTree component is solvable in O(log n) distance, so every node
  above level 1 may simply go exempt;
* R-VOL = Θ̃(n^{1/k}), D-VOL = Θ̃(n) — volume-hard, because solving a
  level-1 component takes volume proportional to its size (Prop 4.9).

**Input:** a colored *balanced* tree labeling plus an explicit
``level(v) ∈ [k+1]`` per node.

**Output:** either a BalancedTree pair (β, p) — for level-1 nodes — or a
symbol in {R, B, D, X}.

**Validity (Definition 6.1):**

* level 1 — the output is valid for BalancedTree within the level-1
  subgraph, or the node outputs D along with all its level-1 neighbors
  (declining is component-unanimous);
* level 2 — conditions 2 and 4 of Definition 5.5, with 4(b) replaced by
  "χout(v) = X and χout(RC(v)) ∈ {B, U}", i.e. exemption requires the
  BalancedTree instance below to be *solved*, not declined;
* level > 2 — Definition 5.5 verbatim.
"""

from __future__ import annotations

from typing import Dict, List

from repro.graphs.labelings import (
    DECLINE,
    EXEMPT,
    Instance,
    THC_OUTPUTS,
)
from repro.graphs.tree_structure import (
    InstanceTopology,
    Topology,
    is_level_leaf,
    left_child_node,
    level_of,
    parent_node,
    right_child_node,
)
from repro.lcl.base import LCLProblem, Violation
from repro.problems.balanced_tree import BalancedTree, _is_output_pair
from repro.registry import register_problem
from repro.problems.balanced_tree import (
    reference_solution as balanced_reference,
)
from repro.problems.hierarchical_thc import (
    _COLOR_OR_EXEMPT,
    check_cond2_level_leaf,
    check_cond4_middle,
    check_cond5_top,
)


def _is_solved_bt_output(value: object) -> bool:
    """Definition 6.1's level-2 exemption predicate: χout(RC) ∈ {B, U}."""
    return _is_output_pair(value)


@register_problem("hybrid-thc(2)", defaults={"k": 2})
class HybridTHC(LCLProblem):
    """Hybrid-THC(k) (Definition 6.1); checking radius 2(k+2)."""

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError("Hybrid-THC needs k >= 2")
        self.k = k
        self.name = f"hybrid-thc({k})"
        self.checking_radius = 2 * (k + 2)
        self._balanced = BalancedTree()

    def output_ok(self, value: object) -> bool:
        return value in THC_OUTPUTS or _is_output_pair(value)

    def check_node(
        self,
        topology: Topology,
        node: int,
        outputs: Dict[int, object],
    ) -> List[Violation]:
        violations: List[Violation] = []
        out = outputs.get(node)
        if not self.output_ok(out):
            violations.append(
                Violation(node, "alphabet", f"output {out!r} invalid")
            )
            return violations
        lvl = level_of(topology, node, cap=self.k)

        if lvl == 1:
            return self._check_level_one(topology, node, out, outputs)

        if lvl == 2:
            if out not in THC_OUTPUTS:
                violations.append(
                    Violation(
                        node, "alphabet", f"level-2 output {out!r} not R/B/D/X"
                    )
                )
                return violations
            if is_level_leaf(topology, node):
                check_cond2_level_leaf(topology, node, out, violations)
            else:
                check_cond4_middle(
                    topology,
                    node,
                    out,
                    outputs,
                    violations,
                    exemption_ok=_is_solved_bt_output,
                )
            return violations

        # Level > 2: Definition 5.5 verbatim.
        if out not in THC_OUTPUTS:
            violations.append(
                Violation(node, "alphabet", f"output {out!r} not R/B/D/X")
            )
            return violations
        if lvl > self.k:  # condition 1
            if out != EXEMPT:
                violations.append(
                    Violation(
                        node, "cond1", f"level>{self.k} must be X; got {out!r}"
                    )
                )
            return violations
        leaf = is_level_leaf(topology, node)
        if leaf:
            check_cond2_level_leaf(topology, node, out, violations)
        if 2 < lvl < self.k and not leaf:
            check_cond4_middle(
                topology,
                node,
                out,
                outputs,
                violations,
                exemption_ok=lambda rc_out: rc_out in _COLOR_OR_EXEMPT,
            )
        if lvl == self.k:
            check_cond5_top(topology, node, out, outputs, violations)
        return violations

    # ------------------------------------------------------------------
    def _check_level_one(
        self,
        topology: Topology,
        node: int,
        out,
        outputs: Dict[int, object],
    ) -> List[Violation]:
        violations: List[Violation] = []
        if out == DECLINE:
            # Declining must be unanimous among level-1 tree neighbors.
            neighbors = [
                parent_node(topology, node),
                left_child_node(topology, node),
                right_child_node(topology, node),
            ]
            for nbr in neighbors:
                if nbr is None:
                    continue
                if level_of(topology, nbr, cap=self.k) != 1:
                    continue
                if outputs.get(nbr) != DECLINE:
                    violations.append(
                        Violation(
                            node,
                            "decline-unanimity",
                            f"declined but level-1 neighbor {nbr} output "
                            f"{outputs.get(nbr)!r}",
                        )
                    )
            return violations
        if not _is_output_pair(out):
            violations.append(
                Violation(
                    node,
                    "alphabet",
                    f"level-1 output must be (β, p) or D; got {out!r}",
                )
            )
            return violations
        return self._balanced.check_node(topology, node, outputs)


def reference_solution(instance: Instance, k: int) -> Dict[int, object]:
    """A canonical valid output computed with global information.

    Level-1 nodes answer their BalancedTree instance (Lemma 4.7 reference);
    every node at level ≥ 2 goes exempt — the level-2 exemption is lawful
    because each level-1 root outputs a (β, p) pair.
    """
    topo = InstanceTopology(instance)
    balanced = balanced_reference(instance, topo)
    outputs: Dict[int, object] = {}
    for node in instance.graph.nodes():
        lvl = level_of(topo, node, cap=k)
        outputs[node] = balanced[node] if lvl == 1 else EXEMPT
    return outputs
