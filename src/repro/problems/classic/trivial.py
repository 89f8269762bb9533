"""Class-A specimens for the Figure 1/2 landscape: Θ(1) problems.

Section 1.2: the LCLs with distance complexity Θ(1) are exactly those with
volume complexity Θ(1) — both classes collapse.  We include two concrete
members: a constant-output problem and local degree parity.
"""

from __future__ import annotations

from typing import List

from repro.lcl.base import LCLProblem, Violation
from repro.registry import register_problem


@register_problem("constant")
class ConstantProblem(LCLProblem):
    """Output the fixed label "ok" everywhere — the simplest LCL."""

    name = "constant"
    checking_radius = 0
    output_labels = ("ok",)

    def check_node(self, topology, node, outputs) -> List[Violation]:
        if outputs.get(node) != "ok":
            return [Violation(node, "const", "must output 'ok'")]
        return []


@register_problem("degree-parity")
class DegreeParity(LCLProblem):
    """Each node outputs deg(v) mod 2 — checkable and solvable at radius 1.

    The checker needs the degree, which a topology does not expose, so the
    problem carries its own validate(); the per-node rule still only reads
    the node itself (radius 0 in practice).
    """

    name = "degree-parity"
    checking_radius = 1
    output_labels = (0, 1)

    def check_node(self, topology, node, outputs) -> List[Violation]:
        # Degree is not topology-visible; the instance-level validate()
        # below is authoritative.  Alphabet-only check here.
        if outputs.get(node) not in (0, 1):
            return [Violation(node, "alphabet", "output must be 0/1")]
        return []

    def validate(self, instance, outputs, topology=None) -> List[Violation]:
        violations = super().validate(instance, outputs, topology)
        for node in instance.graph.nodes():
            expected = instance.graph.degree(node) % 2
            if outputs.get(node) not in (0, 1):
                continue
            if outputs.get(node) != expected:
                violations.append(
                    Violation(
                        node,
                        "parity",
                        f"expected {expected}, got {outputs.get(node)!r}",
                    )
                )
        return violations
