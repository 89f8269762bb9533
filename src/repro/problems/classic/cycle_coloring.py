"""Class-B specimens: cycle 3-coloring and MIS (Θ(log* n) problems).

Figure 1 places (Δ+1)-coloring-style symmetry-breaking problems at
distance Θ(log* n); Section 1.2 notes the corresponding volume class
coincides (via Even–Medina–Ron style colorings).  We implement the cycle
(Δ = 2) members, solved by Cole–Vishkin in
:mod:`repro.algorithms.classic_algs`.

These problems are defined on cycle instances (every node degree 2, ports
1 = predecessor, 2 = successor); the checkers read neighbors through the
port structure, which the generic :class:`Topology` does not expose, so
they carry instance-level ``validate`` overrides and the per-node check
handles only the alphabet.
"""

from __future__ import annotations

from typing import List

from repro.graphs.labelings import Instance
from repro.lcl.base import LCLProblem, Violation
from repro.registry import register_problem


@register_problem("cycle-3-coloring")
class CycleColoring(LCLProblem):
    """Proper vertex coloring of a cycle with ``num_colors`` colors."""

    def __init__(self, num_colors: int = 3) -> None:
        if num_colors < 2:
            raise ValueError("need at least 2 colors")
        self.num_colors = num_colors
        self.name = f"cycle-{num_colors}-coloring"
        self.checking_radius = 1
        self.output_labels = tuple(range(num_colors))

    def check_node(self, topology, node, outputs) -> List[Violation]:
        out = outputs.get(node)
        if out not in self.output_labels:
            return [Violation(node, "alphabet", f"output {out!r} not a color")]
        return []

    def validate(
        self, instance: Instance, outputs, topology=None
    ) -> List[Violation]:
        violations = super().validate(instance, outputs, topology)
        for node in instance.graph.nodes():
            for nbr in instance.graph.neighbors(node):
                if node < nbr and outputs.get(node) == outputs.get(nbr):
                    violations.append(
                        Violation(
                            node,
                            "proper",
                            f"neighbor {nbr} has same color "
                            f"{outputs.get(node)!r}",
                        )
                    )
        return violations


@register_problem("mis")
class MaximalIndependentSet(LCLProblem):
    """MIS: selected nodes (output 1) are independent and dominating."""

    name = "mis"
    checking_radius = 1
    output_labels = (0, 1)

    def check_node(self, topology, node, outputs) -> List[Violation]:
        if outputs.get(node) not in (0, 1):
            return [Violation(node, "alphabet", "output must be 0/1")]
        return []

    def validate(
        self, instance: Instance, outputs, topology=None
    ) -> List[Violation]:
        violations = super().validate(instance, outputs, topology)
        for node in instance.graph.nodes():
            nbrs = instance.graph.neighbors(node)
            if outputs.get(node) == 1:
                for nbr in nbrs:
                    if node < nbr and outputs.get(nbr) == 1:
                        violations.append(
                            Violation(
                                node,
                                "independent",
                                f"adjacent selected node {nbr}",
                            )
                        )
            else:
                if all(outputs.get(nbr) == 0 for nbr in nbrs):
                    violations.append(
                        Violation(node, "maximal", "unselected, no selected neighbor")
                    )
        return violations


@register_problem("cycle-2-coloring")
class TwoColoring(LCLProblem):
    """Proper 2-coloring — a *global* (class D) problem on even cycles.

    Any algorithm must see Θ(n) far: the two proper 2-colorings of an even
    cycle differ everywhere, and fixing the color at one node determines
    the color of every other node through the whole cycle.
    """

    name = "cycle-2-coloring"
    checking_radius = 1
    output_labels = (0, 1)

    def check_node(self, topology, node, outputs) -> List[Violation]:
        if outputs.get(node) not in (0, 1):
            return [Violation(node, "alphabet", "output must be 0/1")]
        return []

    def validate(
        self, instance: Instance, outputs, topology=None
    ) -> List[Violation]:
        violations = super().validate(instance, outputs, topology)
        for node in instance.graph.nodes():
            for nbr in instance.graph.neighbors(node):
                if node < nbr and outputs.get(node) == outputs.get(nbr):
                    violations.append(
                        Violation(
                            node, "proper", f"neighbor {nbr} has same color"
                        )
                    )
        return violations
