"""The Example 7.6 relay problem (volume vs CONGEST separation).

Two complete binary trees of depth k joined by a single root–root bridge;
the i-th leaf of the right tree holds a bit ``b_i``, and the i-th leaf of
the left tree must output it.  Probes solve this with O(log n) volume (walk
up, across, and down); CONGEST needs Ω(n/B) rounds because all 2^k bits
must cross the one bridge edge.

This problem is **not** an LCL (the paper says so explicitly): validity
pairs leaves across Θ(n) distance, so the checker is global and reads the
instance's pairing metadata.  It lives here only for the Section 7.3
experiments; nothing in the LCL machinery depends on it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.graphs.labelings import Instance
from repro.lcl.base import LCLProblem, Violation
from repro.registry import register_problem


@register_problem("relay", tags=("non-lcl",))
class RelayProblem(LCLProblem):
    """Left-tree leaves must output their partner right-tree leaf's bit."""

    name = "relay"
    checking_radius = 0  # not meaningful: this is not an LCL
    output_labels = (0, 1, None)

    def check_node(self, topology, node, outputs) -> List[Violation]:
        return []  # all constraints are global; see validate()

    def validate(
        self, instance: Instance, outputs, topology=None
    ) -> List[Violation]:
        violations: List[Violation] = []
        pairing: Dict[int, int] = instance.meta["pairing"]
        for u_leaf, v_leaf in pairing.items():
            expected = instance.label(v_leaf).bit
            got = outputs.get(u_leaf)
            if got != expected:
                violations.append(
                    Violation(
                        u_leaf,
                        "relay",
                        f"must output partner {v_leaf}'s bit {expected}, "
                        f"got {got!r}",
                    )
                )
        return violations
