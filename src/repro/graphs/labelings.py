"""Input labelings for the paper's LCL constructions.

The paper layers progressively richer input labels on top of a port graph:

* Definition 3.1 — a **(binary) tree labeling** gives every node a parent
  port ``P(v)``, a left-child port ``LC(v)`` and a right-child port
  ``RC(v)``, each drawn from ``[Δ] ∪ {⊥}``; a **colored tree labeling** adds
  an input color ``χin(v) ∈ {R, B}``.
* Definition 4.1 — a **balanced tree labeling** adds lateral left/right
  neighbor ports ``LN(v)``, ``RN(v)``.
* Definition 6.1 — Hybrid-THC additionally gives each node an explicit
  ``level(v) ∈ [k+1]``, and Definition 6.4 (HH-THC) adds a bit ``b_v``.

We represent ``⊥`` as ``None`` and keep one uniform :class:`NodeLabel`
record with optional fields, so a single :class:`Labeling` type carries any
of the above (problems simply ignore fields they do not use).  This mirrors
the paper's convention that an input labeling bundles the identifiers, the
port ordering and "any additional input required for the graph problem".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, Optional

# The two input colors of Definition 3.1 and the two extra output symbols of
# Definition 5.5 ("decline" and "exempt").
RED = "R"
BLUE = "B"
DECLINE = "D"
EXEMPT = "X"
COLORS = (RED, BLUE)
THC_OUTPUTS = (RED, BLUE, DECLINE, EXEMPT)

# BalancedTree output symbols (Definition 4.3).
BALANCED = "B"
UNBALANCED = "U"


def other_color(color: str) -> str:
    """The color in {R, B} that is not ``color``."""
    if color == RED:
        return BLUE
    if color == BLUE:
        return RED
    raise ValueError(f"not an input color: {color!r}")


@dataclass
class NodeLabel:
    """The input label ``L(v)`` of a single node.

    All port-valued fields hold a port number (int ≥ 1) or ``None`` for ⊥.

    Attributes
    ----------
    parent, left_child, right_child:
        The tree labeling of Definition 3.1.
    color:
        ``χin(v)`` of a colored tree labeling (``"R"`` / ``"B"``).
    left_neighbor, right_neighbor:
        ``LN(v)`` / ``RN(v)`` of a balanced tree labeling (Definition 4.1).
    level:
        The explicit level of Hybrid-THC inputs (Definition 6.1).
    bit:
        The selector bit ``b_v`` of HH-THC inputs (Definition 6.4).
    """

    parent: Optional[int] = None
    left_child: Optional[int] = None
    right_child: Optional[int] = None
    color: Optional[str] = None
    left_neighbor: Optional[int] = None
    right_neighbor: Optional[int] = None
    level: Optional[int] = None
    bit: Optional[int] = None

    def copy(self) -> "NodeLabel":
        return replace(self)


class Labeling:
    """A map from node id to :class:`NodeLabel`.

    Missing nodes read as an empty label (all fields ⊥), which matches how
    the constructions treat nodes that carry no tree structure.

    :attr:`mutations` counts the calls that put a label object in place
    (``labeling[v] = label``, and ``labeling[v]`` when it inserts an
    empty one); editing a :class:`NodeLabel`'s fields in place is not
    counted.
    """

    def __init__(self, labels: Optional[Dict[int, NodeLabel]] = None) -> None:
        self._labels: Dict[int, NodeLabel] = dict(labels or {})
        self._mutations = 0

    @property
    def mutations(self) -> int:
        """How many label objects have been put in place (see above)."""
        return self._mutations

    def __getitem__(self, node_id: int) -> NodeLabel:
        label = self._labels.get(node_id)
        if label is None:
            label = NodeLabel()
            self._labels[node_id] = label
            self._mutations += 1
        return label

    def get(self, node_id: int) -> NodeLabel:
        """Read-only access: returns an empty label without inserting it."""
        label = self._labels.get(node_id)
        return NodeLabel() if label is None else label

    def __setitem__(self, node_id: int, label: NodeLabel) -> None:
        self._labels[node_id] = label
        self._mutations += 1

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[int]:
        # Without this, iteration falls back to __getitem__(0), (1), ...,
        # which inserts a label per read and never ends.
        return iter(self._labels)

    def nodes(self) -> Iterator[int]:
        return iter(self._labels)

    def copy(self) -> "Labeling":
        return Labeling({n: lab.copy() for n, lab in self._labels.items()})


@dataclass
class Instance:
    """A labeled graph: the full input to a graph problem (Definition 2.4).

    ``n`` is the number of nodes, which the model provides to every
    algorithm (Section 2.1: "we assume that n ... is provided as input to
    every algorithm").  For adversarially grown instances ``n`` is the
    *target* size announced up front.
    """

    graph: "PortGraph"
    labeling: Labeling
    n: int = 0
    name: str = ""
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n == 0:
            self.n = self.graph.num_nodes

    def label(self, node_id: int) -> NodeLabel:
        return self.labeling.get(node_id)


# Re-export for type checkers without creating an import cycle at runtime.
from repro.graphs.port_graph import PortGraph  # noqa: E402  (intentional)
