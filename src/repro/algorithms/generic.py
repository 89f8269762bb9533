"""Generic algorithm building blocks shared by all problems.

The most important one is :class:`FullGatherAlgorithm`: the trivial
"volume O(n)" upper bound of Section 1.2 — explore the whole connected
component, reconstruct it as a local instance, run a global reference
solver, and output one's own part.  Every problem's D-VOL = O(n) row in
Table 1 is realized this way.
"""

from __future__ import annotations

from typing import Callable, Dict, Set, Tuple

from repro.graphs.labelings import Instance, Labeling
from repro.graphs.port_graph import PortGraph
from repro.model.batched import gather_kernel
from repro.model.probe import CostProfile, ProbeAlgorithm, ProbeView
from repro.model.views import Ball, gather_ball


def gather_component(view: ProbeView) -> Ball:
    """Explore the start node's entire connected component."""
    # Radius n always exhausts a component of at most n nodes.
    return gather_ball(view, max(1, view.n))


def ball_to_instance(ball: Ball, n: int, name: str = "gathered") -> Instance:
    """Reconstruct a gathered ball as a standalone :class:`Instance`.

    The reconstruction preserves node IDs, port numbers and labels, so any
    instance-level solver (e.g. the reference solutions) runs on it
    unchanged.  Ports leading outside the ball stay dangling, which is the
    correct local view: the algorithm genuinely does not know what is
    there.
    """
    max_port = 1
    for node, ports in ball.adjacency.items():
        if ports:
            max_port = max(max_port, max(ports))
    for info in ball.info.values():
        if info.ports:
            max_port = max(max_port, max(info.ports))
    graph = PortGraph(max_degree=max(max_port, 1))
    labeling = Labeling()
    for node, info in ball.info.items():
        graph.add_node(node)
        labeling[node] = info.label.copy()
        for port in info.ports:
            graph.reserve_port(node, port)
    seen: Set[frozenset] = set()
    for node, ports in ball.adjacency.items():
        for port, nbr in ports.items():
            if nbr not in ball.info:
                continue
            key = frozenset((node, nbr))
            if key in seen:
                continue
            seen.add(key)
            back = ball.adjacency.get(nbr, {})
            back_port = next(
                (p for p, target in back.items() if target == node), None
            )
            if back_port is None:
                # The reverse port was never probed; recover it from the
                # graph's symmetric structure by probing is not possible
                # here, so skip (cannot happen after a full gather).
                continue
            graph.add_edge(node, port, nbr, back_port)
    return Instance(graph=graph, labeling=labeling, n=n, name=name)


class FullGatherAlgorithm(ProbeAlgorithm):
    """Gather the whole component; solve globally; answer for oneself.

    ``reference`` maps a reconstructed :class:`Instance` to a full output
    dict; the algorithm returns the start node's entry.  Volume is the
    component size — the generic O(n) bound every LCL admits.
    """

    def __init__(self, reference: Callable[[Instance], Dict[int, object]],
                 name: str = "full-gather") -> None:
        self._reference = reference
        self.name = name

    def run(self, view: ProbeView):
        ball = gather_component(view)
        local = ball_to_instance(ball, view.n)
        outputs = self._reference(local)
        return outputs[view.start]

    def run_node_batch(self, oracle, nodes):
        """Whole-run batch over the flat-array CSR kernel.

        A full gather is the start node's whole component, so every start
        node of one component would rebuild and solve the same instance.
        Only the first start node of each component gathers a
        :class:`Ball` (a bit-exact replica of the scalar gather) and runs
        the reference on it; the component's later start nodes read their
        entry from that one output dict.  This is exact because every
        full-gather reference answers each node the same whatever order
        the reconstructed instance's nodes were inserted in (DESIGN.md
        §9.3).  Their gathers have the first one's volume and queries, and
        their distance is their eccentricity: one
        :meth:`~repro.model.batched.CsrGatherKernel.eccentricities` call
        per component, made when its second start node comes up, so a
        batch holding one start node of a component pays for no more
        than its gather.
        """
        kernel = gather_kernel(oracle)
        if kernel is None:
            return None
        radius = max(1, oracle.n)
        # member -> (outputs, first profile, first start node)
        solved: Dict[int, Tuple[Dict[int, object], CostProfile, int]] = {}
        eccentricities: Dict[int, Dict[int, int]] = {}
        triples = []
        for node in nodes:
            entry = solved.get(node)
            if entry is None:
                ball, profile = kernel.ball(node, radius)
                outputs = self._reference(ball_to_instance(ball, oracle.n))
                entry = (outputs, profile, node)
                for member in ball.info:
                    solved[member] = entry
            else:
                outputs, first, root = entry
                ecc = eccentricities.get(root)
                if ecc is None:
                    ecc = eccentricities[root] = kernel.eccentricities(root)
                profile = CostProfile(
                    volume=first.volume,
                    distance=ecc[node],
                    queries=first.queries,
                    random_bits=0,
                )
            triples.append((node, outputs[node], profile))
        return triples
