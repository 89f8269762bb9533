"""The LCL problem interface (Section 2.4, Definition 2.6).

A locally checkable labeling problem has finite input and output label
sets and a constant checking radius ``c``: a global output is valid iff it
looks valid within distance ``c`` of every node.  Each problem in
:mod:`repro.problems` subclasses :class:`LCLProblem` and implements its
paper-verbatim validity conditions as a per-node predicate; the locality of
those predicates is itself enforced in tests via
:class:`repro.lcl.verifier.LocalityGuard`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.graphs.labelings import Instance
from repro.graphs.tree_structure import InstanceTopology, Topology


@dataclass(frozen=True)
class Violation:
    """One validity-condition failure at one node."""

    node: int
    rule: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.rule}] node {self.node}: {self.message}"


class LCLProblem:
    """Base class for locally checkable labeling problems.

    Subclasses define:

    * ``name`` — a short identifier;
    * ``checking_radius`` — the constant ``c`` of Definition 2.6;
    * ``output_labels`` — the finite output alphabet (documentation and
      sanity checks);
    * :meth:`check_node` — the paper's validity conditions at one node,
      reading the input only through the supplied :class:`Topology` (so the
      same code runs both globally and under a locality guard).
    """

    name: str = "lcl"
    checking_radius: int = 1
    output_labels: Sequence[object] = ()

    def check_node(
        self,
        topology: Topology,
        node: int,
        outputs: Dict[int, object],
    ) -> List[Violation]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def validate(
        self,
        instance: Instance,
        outputs: Dict[int, object],
        topology: Optional[InstanceTopology] = None,
    ) -> List[Violation]:
        """All violations over all nodes (empty list ⇔ valid output).

        ``topology`` is an :class:`InstanceTopology` over ``instance`` to
        read it through (a fresh one by default).  Its memo depends only
        on the instance, so a caller checking many outputs on one
        instance can pass the same topology to every call.
        """
        if topology is None:
            topology = InstanceTopology(instance)
        violations: List[Violation] = []
        for node in instance.graph.nodes():
            violations.extend(self.check_node(topology, node, outputs))
        return violations

    def is_valid(self, instance: Instance, outputs: Dict[int, object]) -> bool:
        return not self.validate(instance, outputs)

    # ------------------------------------------------------------------
    @staticmethod
    def output_of(outputs: Dict[int, object], node: Optional[int]):
        """Convenience: the output at ``node`` (None-safe)."""
        if node is None:
            return None
        return outputs.get(node)
