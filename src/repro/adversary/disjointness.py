"""Communication-complexity lower bounds via disjointness (Section 2.5).

Theorem 2.9 (Eden–Rosenbaum): if ``(E, g)`` embeds a function f and every
query can be answered with ≤ B bits of Alice↔Bob communication, then any
algorithm computing g needs Ω(R(f)/B) queries.  Proposition 4.9
instantiates this for BalancedTree with f = disjointness (R(disj) = Ω(N),
Theorem 2.10 / Kalyanasundaram–Schnitger): in the Figure 5 embedding only
leaf labels depend on (a, b) — coordinate i's pair (u_i, w_i) needs
exactly the two bits (a_i, b_i) — so every query costs ≤ 2 bits and any
algorithm solving BalancedTree needs Ω(N) = Ω(n) queries.

:class:`TwoPartyReferee` executes a probe algorithm on E(a, b) while
keeping Alice's and Bob's books: each time a query's *response* depends on
an (a_i, b_i) the referee charges the two bits (once per coordinate per
direction, since both parties cache what they learned — standard protocol
bookkeeping).  The referee is built on the engine's
:class:`~repro.adversary.engine.RecordingOracle`: the full interaction is
a replayable :class:`~repro.adversary.engine.Transcript`, and the bit
charge is a pure function of the transcript
(:func:`bits_from_transcript`), so the accounting itself is auditable
after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Set

from repro.adversary.base import Adversary, AdversaryRun
from repro.adversary.engine import RecordingOracle, Transcript
from repro.graphs.generators import disjointness_embedding
from repro.graphs.labelings import BALANCED, Instance
from repro.model.implicit import as_oracle
from repro.model.oracle import GraphOracle, NodeInfo
from repro.model.probe import ProbeAlgorithm, ProbeView
from repro.model.randomness import (
    RandomnessContext,
    TapeStore,
)
from repro.registry import register_adversary


def charge_bits(
    revealed: Iterable[int], coordinate_of: Dict[int, int]
) -> int:
    """Theorem 2.9 bookkeeping: 2 bits per first-revealed coordinate.

    Answering for a leaf reveals its labels ⇒ needs a_i and b_i: Bob
    sends b_i to Alice and Alice sends a_i to Bob, once per coordinate
    (both parties cache what they learned).
    """
    alice_knows: Set[int] = set()
    bob_knows: Set[int] = set()
    bits = 0
    for node in revealed:
        coord = coordinate_of.get(node)
        if coord is None:
            continue
        if coord not in alice_knows:
            alice_knows.add(coord)
            bits += 1  # Bob sends b_i to Alice
        if coord not in bob_knows:
            bob_knows.add(coord)
            bits += 1  # Alice sends a_i to Bob
    return bits


def bits_from_transcript(
    transcript: Transcript, coordinate_of: Dict[int, int]
) -> int:
    """Re-derive the communication charge from a recorded transcript."""
    return charge_bits(transcript.revealed_nodes(), coordinate_of)


class TwoPartyReferee(RecordingOracle):
    """Records the interaction on E(a, b) and charges bits as it goes."""

    def __init__(self, instance: Instance, inner: Optional[GraphOracle] = None):
        super().__init__(
            inner if inner is not None else as_oracle(
                instance, mode="reference"
            ),
            Transcript(
                adversary="prop49/balanced-tree",
                n=instance.n,
                meta={"instance": instance.name},
            ),
        )
        self._coordinate_of: Dict[int, int] = instance.meta["coordinate_of"]
        self.bits_exchanged = 0
        self._alice_knows: Set[int] = set()  # coordinates of b Alice learned
        self._bob_knows: Set[int] = set()  # coordinates of a Bob learned

    def node_info(self, node_id: int) -> NodeInfo:
        self._charge(node_id)
        return super().node_info(node_id)

    def resolve(self, node_id: int, port: int) -> Optional[int]:
        endpoint = super().resolve(node_id, port)
        if endpoint is not None:
            self._charge(endpoint)
        return endpoint

    def _charge(self, node_id: int) -> None:
        """Answering for a leaf reveals its labels ⇒ needs a_i and b_i."""
        coord = self._coordinate_of.get(node_id)
        if coord is None:
            return
        if coord not in self._alice_knows:
            self._alice_knows.add(coord)
            self.bits_exchanged += 1  # Bob sends b_i to Alice
        if coord not in self._bob_knows:
            self._bob_knows.add(coord)
            self.bits_exchanged += 1  # Alice sends a_i to Bob


@dataclass
class TwoPartyRun:
    """One simulated execution with its communication transcript."""

    queries: int
    bits_exchanged: int
    output: object
    g_value: int
    disj_value: int
    transcript: Optional[Transcript] = None
    instance: Optional[Instance] = None

    @property
    def correct(self) -> bool:
        return self.g_value == self.disj_value


def simulate_two_party(
    algorithm: ProbeAlgorithm,
    a: Sequence[int],
    b: Sequence[int],
    seed: int = 0,
) -> TwoPartyRun:
    """Alice and Bob jointly run ``algorithm`` from the root of E(a, b).

    ``g(E(a, b))`` is read off the root's output: (B, ·) ⇔ the labeling is
    globally compatible ⇔ disj(a, b) = 1 (Proposition 4.9).  The bits
    exchanged upper-bound the communication of the induced protocol, so
    over many (a, b) the query count obeys queries ≥ bits/2.
    """
    instance = disjointness_embedding(a, b)
    referee = TwoPartyReferee(instance)
    root = instance.meta["root"]
    tapes = TapeStore(seed) if algorithm.is_randomized else None
    view = ProbeView(
        referee,
        root,
        # ProbeView binds its visited-set predicate to the context.
        RandomnessContext(tapes, algorithm.randomness, root),
    )
    output = algorithm.run(view)
    g_value = 1 if isinstance(output, tuple) and output[0] == BALANCED else 0
    referee.transcript.meta.update(
        {"algorithm": algorithm.name, "a": list(a), "b": list(b)}
    )
    return TwoPartyRun(
        queries=view.queries,
        bits_exchanged=referee.bits_exchanged,
        output=output,
        g_value=g_value,
        disj_value=instance.meta["disjoint"],
        transcript=referee.transcript,
        instance=instance,
    )


def communication_cost_of_query_plan(run: TwoPartyRun) -> float:
    """Theorem 2.9's accounting: queries ≥ bits / B with B = 2."""
    return run.bits_exchanged / 2.0


# Budgets are exponents (N = 2^budget); cap them so a stray value from
# another adversary's grid (e.g. prop313's n=120) is rejected instead of
# materializing a 2^120-element input.
MAX_LOG_N = 16


def _referee_inputs(log_n: int):
    """The pinned (a, b) pair for budget 2^log_n (deterministic)."""
    import random

    if not 1 <= log_n <= MAX_LOG_N:
        raise ValueError(
            f"prop49 budgets are exponents log2(N) in [1, {MAX_LOG_N}]; "
            f"got {log_n}"
        )
    n = 2**log_n
    rnd = random.Random(log_n)
    a = [rnd.randint(0, 1) for _ in range(n)]
    b = [rnd.randint(0, 1) for _ in range(n)]
    return a, b


@register_adversary(
    "prop49/balanced-tree",
    problem="balanced-tree",
    bound="R-VOL(BalancedTree) = Ω(n) (via R(disj) = Ω(N))",
    victim="balanced-tree/full-gather",
    quick=(3, 4, 5),
    full=(3, 4, 5, 6, 7),
    expected_fit=("n",),
    candidates=("log n", "n^{1/2}", "n"),
    description="Prop 4.9: two-party disjointness referee on E(a, b).",
)
class Prop49Referee(Adversary):
    """Prop 4.9: two-party disjointness referee on E(a, b).

    ``budget`` is log₂ N (the disjointness instance length); the referee
    charges 2 bits per revealed coordinate, so a correct solver exchanges
    2N bits — linear in the n ≈ 4N nodes of the embedding — and Theorem
    2.9's ``queries ≥ bits/2`` accounting must hold on every run.
    """

    name = "prop49/balanced-tree"
    default_victim = "balanced-tree/full-gather"

    def run(self, budget: object) -> AdversaryRun:
        log_n = int(budget)
        a, b = _referee_inputs(log_n)
        two_party = simulate_two_party(self.make_victim(), a, b)
        upheld = (
            two_party.correct
            and two_party.queries >= two_party.bits_exchanged / 2.0
        )
        return AdversaryRun(
            adversary=self.name,
            algorithm=self.victim,
            budget=log_n,
            n=two_party.instance.graph.num_nodes,
            queries=two_party.queries,
            bits=two_party.bits_exchanged,
            defeated=False,  # a referee audits; it never rigs the input
            upheld=upheld,
            instance=two_party.instance,
            transcript=two_party.transcript,
            detail={
                "N": 2**log_n,
                "a": a,
                "b": b,
                "g_value": two_party.g_value,
                "disj_value": two_party.disj_value,
                "output": repr(two_party.output),
            },
        )

    def verify(self, run: AdversaryRun, backend=None) -> bool:
        from repro.exec.backends import owned_backend

        instance = run.instance
        if run.transcript.replay(as_oracle(instance, mode="reference")):
            return False
        if run.transcript.replay(as_oracle(instance, mode="compiled")):
            return False
        # The transcript alone must account for the charged bits.
        if (
            bits_from_transcript(run.transcript, instance.meta["coordinate_of"])
            != run.bits
        ):
            return False
        # Re-run from the root on the finished instance through the
        # ordinary backend machinery: output and query count reproduce.
        root = instance.meta["root"]
        with owned_backend(backend) as engine:
            result = engine.run(instance, self.make_victim(), nodes=[root])
        if repr(result.outputs[root]) != run.detail["output"]:
            return False
        return result.profiles[root].queries == run.queries
