"""BalancedTree (Section 4, Definitions 4.1–4.3).

The second construction: an LCL with R-DIST = D-DIST = Θ(log n) but
R-VOL = D-VOL = Θ(n) (Theorem 4.5) — the volume lower bound holding *even
for randomized algorithms*, proved by embedding set disjointness
(Proposition 4.9, reproduced in :mod:`repro.adversary.disjointness`).

**Input:** a balanced tree labeling — a colored tree labeling plus lateral
left/right-neighbor ports LN/RN.
**Output:** a pair ``(β, p)`` with β ∈ {B, U} (balanced / unbalanced) and a
port ``p`` (or None for ⊥).
**Validity (Definition 4.3):** incompatible nodes output (U, ⊥); compatible
leaves output (B, P(v)); compatible internal nodes aggregate their
children: all-B propagates B upward, any U propagates U with a port
pointing at a U child.  Globally (Lemma 4.7): B everywhere iff the
labeling is globally compatible, and any incompatible descendant forces U
on the whole ancestor path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.graphs.labelings import BALANCED, Instance, UNBALANCED
from repro.graphs.tree_structure import (
    InstanceTopology,
    Topology,
    is_consistent,
    is_internal,
    is_leaf,
    left_child_node,
    parent_node,
    right_child_node,
)
from repro.lcl.base import LCLProblem, Violation
from repro.registry import register_problem

Output = Tuple[str, Optional[int]]


def _lateral(t: Topology, v: int, which: str) -> Optional[int]:
    label = t.label(v)
    port = label.left_neighbor if which == "left" else label.right_neighbor
    return t.node_at(v, port)


def left_neighbor_node(t: Topology, v: int) -> Optional[int]:
    """The node reached via ``LN(v)``, or None for ⊥."""
    return _lateral(t, v, "left")


def right_neighbor_node(t: Topology, v: int) -> Optional[int]:
    """The node reached via ``RN(v)``, or None for ⊥."""
    return _lateral(t, v, "right")


def is_compatible(t: Topology, v: int) -> bool:
    """Definition 4.2 compatibility of a *consistent* node ``v``.

    The five conditions: type-preserving, agreement, siblings, persistence
    and leaves.  One reading note: the paper states persistence as
    "RN(RC(v)) = LN(LC(w))" for w = RN(v); the condition its proofs rely on
    (Lemma 4.6's lateral-connectivity claim, and the Figure 5 instance) is
    that v's right child and w's left child are lateral neighbors, i.e.
    ``RN(RC(v)) = LC(w)`` — we implement that, together with its mirror.
    """
    internal = is_internal(t, v)
    leaf = is_leaf(t, v)
    if not (internal or leaf):
        raise ValueError(f"compatibility asked for inconsistent node {v}")
    ln = left_neighbor_node(t, v)
    rn = right_neighbor_node(t, v)

    # type-preserving
    for nbr in (ln, rn):
        if nbr is None:
            continue
        if internal and not is_internal(t, nbr):
            return False
        if leaf and not is_leaf(t, nbr):
            return False

    # agreement
    if ln is not None and right_neighbor_node(t, ln) != v:
        return False
    if rn is not None and left_neighbor_node(t, rn) != v:
        return False

    if internal:
        lc = left_child_node(t, v)
        rc = right_child_node(t, v)
        # siblings: RN(LC(v)) = RC(v) and LN(RC(v)) = LC(v)
        if right_neighbor_node(t, lc) != rc:
            return False
        if left_neighbor_node(t, rc) != lc:
            return False
        # persistence (see docstring): across a lateral edge, the adjacent
        # children are lateral neighbors as well.
        if rn is not None:
            if not is_internal(t, rn):
                return False
            if right_neighbor_node(t, rc) != left_child_node(t, rn):
                return False
        if ln is not None:
            if not is_internal(t, ln):
                return False
            if left_neighbor_node(t, lc) != right_child_node(t, ln):
                return False

    if leaf:
        # leaves: lateral neighbors of leaves are leaves (re-checked for
        # symmetry with the paper's list; subsumed by type-preserving).
        if ln is not None and not is_leaf(t, ln):
            return False
        if rn is not None and not is_leaf(t, rn):
            return False
    return True


def _is_output_pair(value: object) -> bool:
    return (
        isinstance(value, tuple)
        and len(value) == 2
        and value[0] in (BALANCED, UNBALANCED)
        and (value[1] is None or isinstance(value[1], int))
    )


@register_problem("balanced-tree")
class BalancedTree(LCLProblem):
    """The BalancedTree LCL (Definition 4.3); checking radius 3."""

    name = "balanced-tree"
    checking_radius = 3
    output_labels = (_is_output_pair,)

    def check_node(
        self,
        topology: Topology,
        node: int,
        outputs: Dict[int, object],
    ) -> List[Violation]:
        violations: List[Violation] = []
        out = outputs.get(node)
        if not _is_output_pair(out):
            violations.append(
                Violation(node, "alphabet", f"output {out!r} is not (β, p)")
            )
            return violations
        if not is_consistent(topology, node):
            return violations  # Definition 4.3 constrains consistent nodes only
        beta, port = out
        compatible = is_compatible(topology, node)
        label = topology.label(node)

        # Condition 1: incompatible -> (U, ⊥)
        if not compatible:
            if out != (UNBALANCED, None):
                violations.append(
                    Violation(
                        node,
                        "cond1",
                        f"incompatible node must output (U, ⊥), got {out!r}",
                    )
                )
            return violations

        # Condition 2: compatible leaf -> (B, P(v))
        if is_leaf(topology, node):
            if out != (BALANCED, label.parent):
                violations.append(
                    Violation(
                        node,
                        "cond2",
                        f"compatible leaf must output (B, P(v))="
                        f"(B, {label.parent}), got {out!r}",
                    )
                )
            return violations

        # Condition 3: compatible internal nodes.
        lc = left_child_node(topology, node)
        rc = right_child_node(topology, node)
        lc_out = outputs.get(lc)
        rc_out = outputs.get(rc)
        lc_is_u = _is_output_pair(lc_out) and lc_out[0] == UNBALANCED
        rc_is_u = _is_output_pair(rc_out) and rc_out[0] == UNBALANCED

        if lc_is_u or rc_is_u:
            # 3(b): must output (U, p) pointing at a U child.
            ok_ports = set()
            if lc_is_u:
                ok_ports.add(label.left_child)
            if rc_is_u:
                ok_ports.add(label.right_child)
            if beta != UNBALANCED or port not in ok_ports:
                violations.append(
                    Violation(
                        node,
                        "cond3b",
                        f"child output U; node must point at a U child "
                        f"(ports {sorted(ok_ports)}), got {out!r}",
                    )
                )
            return violations

        lc_is_b = (
            _is_output_pair(lc_out)
            and lc_out == (BALANCED, topology.label(lc).parent)
        )
        rc_is_b = (
            _is_output_pair(rc_out)
            and rc_out == (BALANCED, topology.label(rc).parent)
        )
        if lc_is_b and rc_is_b:
            # 3(a): both children balanced -> (B, P(v)).
            if out != (BALANCED, label.parent):
                violations.append(
                    Violation(
                        node,
                        "cond3a",
                        f"children balanced; node must output "
                        f"(B, {label.parent}), got {out!r}",
                    )
                )
        return violations


def compatibility_map(
    instance: Instance, t: Optional[Topology] = None
) -> Dict[int, Optional[bool]]:
    """Per-node compatibility (None for inconsistent nodes).

    ``t`` is the topology to read it through (a fresh
    :class:`InstanceTopology` by default).
    """
    if t is None:
        t = InstanceTopology(instance)
    result: Dict[int, Optional[bool]] = {}
    for v in instance.graph.nodes():
        result[v] = is_compatible(t, v) if is_consistent(t, v) else None
    return result


def reference_solution(
    instance: Instance, t: Optional[Topology] = None
) -> Dict[int, object]:
    """A canonical valid output computed with global information.

    Implements Lemma 4.7's characterization: incompatible ⇒ (U, ⊥); a node
    with an incompatible G_T descendant ⇒ (U, port toward such a child,
    preferring LC); otherwise (B, P(v)).  Inconsistent nodes output (B, ⊥)
    as in the Proposition 4.8 algorithm.

    "Has an incompatible descendant" spreads upward from the incompatible
    nodes through compatible internal parents, so every node gets the same
    answer whatever order the instance's nodes were inserted in — also on
    a cyclic G_T, where a memoized downward search would cut the cycle at
    whichever node it entered first.

    ``t`` is the topology to read the instance through (a fresh
    :class:`InstanceTopology` by default).
    """
    if t is None:
        t = InstanceTopology(instance)
    compat = compatibility_map(instance, t)
    tainted = {v for v, c in compat.items() if c is False}
    stack = list(tainted)
    while stack:
        child = stack.pop()
        parent = parent_node(t, child)
        if parent is None or parent in tainted or not compat.get(parent):
            continue
        if not is_internal(t, parent):
            continue
        if child in (left_child_node(t, parent), right_child_node(t, parent)):
            tainted.add(parent)
            stack.append(parent)

    outputs: Dict[int, object] = {}
    for v in instance.graph.nodes():
        if compat[v] is None:
            outputs[v] = (BALANCED, None)
        elif compat[v] is False:
            outputs[v] = (UNBALANCED, None)
        elif is_leaf(t, v):
            outputs[v] = (BALANCED, t.label(v).parent)
        else:
            label = t.label(v)
            if left_child_node(t, v) in tainted:
                outputs[v] = (UNBALANCED, label.left_child)
            elif right_child_node(t, v) in tainted:
                outputs[v] = (UNBALANCED, label.right_child)
            else:
                outputs[v] = (BALANCED, label.parent)
    return outputs
