"""Running algorithms over whole instances and verifying the results.

Definition 2.4: an algorithm solves a problem when the per-node outputs
``L'(v) = A(v, G, L)`` form a valid output labeling.  The runner executes
the algorithm once from *every* node (they share one tape store, so a
randomized run is one joint sample of all nodes' strings), aggregates the
cost profiles, and checks validity against the problem's checker.

*How* the per-node executions are dispatched is delegated to an
:class:`~repro.exec.backends.ExecutionBackend`: every entry point takes a
``backend=`` argument (``None`` → serial, the reference semantics; other
backends are drop-in and produce bitwise-identical results — see
``repro.exec``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.graphs.labelings import Instance
from repro.graphs.tree_structure import InstanceTopology
from repro.model.implicit import (
    MATERIALIZE_LIMIT,
    InstanceSource,
    InstanceSpec,
)
from repro.model.probe import CostProfile, ProbeAlgorithm


def _coerce_source(source) -> InstanceSource:
    """Return ``source`` if it is an ``Instance`` or ``InstanceSpec``.

    A bare graph or a pre-built oracle is refused: wrap the graph in an
    :class:`~repro.graphs.labelings.Instance`, and pass the instance (or
    an :class:`~repro.model.implicit.InstanceSpec`) instead of an oracle
    so the backend builds the right oracle itself.
    """
    if isinstance(source, (Instance, InstanceSpec)):
        return source
    raise TypeError(
        f"expected an Instance or InstanceSpec, got "
        f"{type(source).__name__}; wrap a bare graph in an Instance and "
        "pass the instance, not a pre-built oracle"
    )


@dataclass
class RunResult:
    """Outputs and cost profiles of one whole-instance run.

    The worst-case cost properties read as 0 on an empty run (no started
    executions — e.g. ``run_algorithm(..., nodes=[])``): the maximum over
    an empty set of executions is vacuously zero cost here, and returning
    0 beats surfacing a bare ``max() arg is an empty sequence``.
    """

    algorithm: str
    instance: str
    outputs: Dict[int, object] = field(default_factory=dict)
    profiles: Dict[int, CostProfile] = field(default_factory=dict)
    # Set by supervised backends when this run survived handled faults
    # (a repro.faults.retry.FaultLog snapshot).  Excluded from equality:
    # a recovered run IS the fault-free run, bit for bit.
    fault_log: Optional[object] = field(
        default=None, compare=False, repr=False
    )

    @property
    def max_volume(self) -> int:
        """``VOL_n(A)`` on this instance: the worst per-node volume."""
        return max((p.volume for p in self.profiles.values()), default=0)

    @property
    def max_distance(self) -> int:
        """``DIST_n(A)`` on this instance: the worst per-node distance."""
        return max((p.distance for p in self.profiles.values()), default=0)

    @property
    def max_queries(self) -> int:
        return max((p.queries for p in self.profiles.values()), default=0)

    @property
    def mean_volume(self) -> float:
        if not self.profiles:
            return 0.0
        return statistics.fmean(p.volume for p in self.profiles.values())

    @property
    def total_random_bits(self) -> int:
        return sum(p.random_bits for p in self.profiles.values())

    @property
    def truncated_nodes(self) -> List[int]:
        return [v for v, p in self.profiles.items() if p.truncated]


def run_algorithm(
    instance: InstanceSource,
    algorithm: ProbeAlgorithm,
    seed: int = 0,
    nodes: Optional[Iterable[int]] = None,
    max_volume: Optional[int] = None,
    max_queries: Optional[int] = None,
    backend=None,
) -> RunResult:
    """Execute ``algorithm`` from every node (or the given subset).

    ``instance`` is an :data:`~repro.model.implicit.InstanceSource`: a
    materialized :class:`~repro.graphs.labelings.Instance` or an
    :class:`~repro.model.implicit.InstanceSpec` naming an implicit
    family (giant n; pass an explicit ``nodes=`` selection there).
    ``backend`` selects the execution strategy (an
    :class:`~repro.exec.backends.ExecutionBackend`, a spec string like
    ``"process:4"``, or ``None`` for serial); all backends return
    identical results for identical seeds.
    """
    from repro.exec.backends import owned_backend

    with owned_backend(backend) as engine:
        return engine.run(
            _coerce_source(instance),
            algorithm,
            nodes,
            seed=seed,
            max_volume=max_volume,
            max_queries=max_queries,
        )


@dataclass
class SolveReport:
    """A run together with its validity verdict."""

    run: RunResult
    valid: bool
    violations: List["Violation"]

    @property
    def max_volume(self) -> int:
        return self.run.max_volume

    @property
    def max_distance(self) -> int:
        return self.run.max_distance


def validation_topology(instance: InstanceSource) -> InstanceTopology:
    """The :class:`InstanceTopology` :func:`solve_and_check` validates on.

    Problem checkers are whole-graph passes, so an
    :class:`~repro.model.implicit.InstanceSpec` is materialized here —
    which bounds validation to materializable sizes.  Giant-n specs
    belong in :func:`run_algorithm` (cost measurement over explicit node
    selections), not in :func:`solve_and_check`.
    """
    source = _coerce_source(instance)
    if isinstance(source, InstanceSpec):
        if source.n > MATERIALIZE_LIMIT:
            raise ValueError(
                f"solve_and_check validates against the whole graph and "
                f"cannot check {source!r} (n={source.n} > "
                f"{MATERIALIZE_LIMIT}); use run_algorithm with an "
                "explicit node selection for giant-n cost measurements"
            )
        source = source.materialize()
    return InstanceTopology(source)


def solve_and_check(
    problem,
    instance: InstanceSource,
    algorithm: ProbeAlgorithm,
    seed: int = 0,
    max_volume: Optional[int] = None,
    max_queries: Optional[int] = None,
    backend=None,
    topology: Optional[InstanceTopology] = None,
) -> SolveReport:
    """Run the algorithm on the full instance and verify its output.

    The output is validated through ``topology``, which defaults to the
    backend's ``validation_topology(instance)``, built before the run so
    that a spec too large to validate is refused before it executes.  On
    a compiled serial backend that topology reads the kept oracle's
    tables, so the instance is compiled once for the run and the check
    together (DESIGN.md §6.2); elsewhere it is
    :func:`validation_topology`.  A
    caller that checks many runs on one instance — a fixed-instance trial
    batch — builds it once and passes it to every call: the instance is
    then materialized, and each label and port row read, once.
    """
    from repro.exec.backends import owned_backend

    with owned_backend(backend) as engine:
        if topology is None:
            topology = engine.validation_topology(instance)
        run = run_algorithm(
            instance,
            algorithm,
            seed=seed,
            max_volume=max_volume,
            max_queries=max_queries,
            backend=engine,
        )
    violations = problem.validate(topology.instance, run.outputs, topology)
    return SolveReport(run=run, valid=not violations, violations=violations)


def success_probability(
    problem,
    instance_factory,
    algorithm: ProbeAlgorithm,
    trials: int,
    base_seed: int = 0,
    max_volume: Optional[int] = None,
    max_queries: Optional[int] = None,
    backend=None,
) -> float:
    """Fraction of independent trials in which the algorithm solved Π.

    ``instance_factory(trial_index)`` supplies the input for each trial
    (fixed instance, or a fresh draw from a hard distribution as in the
    Proposition 3.12 experiment); trial ``i`` uses seed ``base_seed + i``.

    A :class:`~repro.exec.backends.SerialBackend` keeps the oracle of the
    instance it ran last, so a repeated instance is compiled once, not
    once per trial; a :class:`~repro.exec.backends.ProcessPoolBackend`
    fans the trials out across workers.  The value is backend-independent.
    """
    from repro.exec.backends import owned_backend

    with owned_backend(backend) as engine:
        return engine.success_probability(
            problem,
            instance_factory,
            algorithm,
            trials,
            base_seed=base_seed,
            max_volume=max_volume,
            max_queries=max_queries,
        )


# Imported late to avoid a cycle: problems import model pieces too.
from repro.lcl.base import Violation  # noqa: E402
