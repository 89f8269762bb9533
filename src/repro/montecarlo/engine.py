"""The streaming Monte-Carlo trial engine (adaptive success estimation).

``success_probability`` runs a *fixed* trial count per point; this engine
streams trials in batches through any execution backend's
:meth:`~repro.exec.backends.ExecutionBackend.run_trial_batch`, maintains
online statistics (success rate with a Wilson or Clopper–Pearson
confidence interval, deterministic quantile sketches of the per-trial
VOL/DIST/query maxima), and stops early once the interval is inside the
policy's tolerance — or exhausts the trial budget.

Determinism and resume
----------------------
Trial ``i`` always runs under seed ``base_seed + i``; node ``v``'s tape in
that trial is seeded from ``repro-tape:{base_seed + i}:{v}`` (see
:class:`~repro.model.randomness.TapeStore`).  Every per-trial outcome is
therefore a pure function of ``(base_seed, trial, node)`` — independent of
the backend, the batch boundaries, and of whether the run was interrupted:
:func:`run_trials` with ``resume=`` replays the recorded outcomes into
fresh online statistics (all of which are deterministic, including the
quantile sketch) and continues at the next trial index, producing a result
bitwise identical to an uninterrupted run.

``store=`` is the crash-safe sibling of ``resume=``: completed trials
are committed to a :class:`~repro.corpus.results.ResultStore` at every
batch boundary, and re-running the exact same spec against the same
store replays the stored prefix and continues without re-executing
finished work — surviving ``kill -9`` where ``resume=`` needs the
previous in-memory result.  Stored trials are keyed by a hash of the run
spec (problem, instance source, algorithm, policy, seeds, budgets), so a
different run never replays another run's trials.

With ``early_stop=False`` the engine executes exactly ``max_trials``
trials — the same solve-and-check calls, seeds, and tape draws as the
legacy fixed-count ``success_probability`` path; the differential
conformance suite under ``tests/montecarlo`` pins that equivalence on
every registry cell and every backend.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Union

from repro.exec.backends import (
    BatchBackend,
    ExecutionBackend,
    FixedInstanceFactory,
    SerialBackend,
    TrialOutcome,
    get_backend,
)
from repro.montecarlo.stats import METHODS, QuantileSketch, SuccessStats

#: Stopping reasons recorded in results and bench artifacts.
STOP_CONVERGED = "converged"  # CI half-width <= tolerance
STOP_BUDGET = "budget"  # max_trials reached with early stopping on
STOP_FIXED = "fixed"  # early stopping off: ran exactly max_trials


@dataclass(frozen=True)
class TrialPolicy:
    """How many trials to run and when to stop.

    ``early_stop=True`` stops at the first batch boundary where at least
    ``min_trials`` have run and the ``confidence``-level interval around
    the success rate has half-width ≤ ``tolerance``; otherwise exactly
    ``max_trials`` trials run (the legacy fixed-count semantics).
    Stopping is only ever evaluated at batch boundaries, so the executed
    trial set is always a prefix ``0..t-1`` of the deterministic stream.
    """

    min_trials: int = 16
    max_trials: int = 256
    batch_size: int = 16
    confidence: float = 0.95
    tolerance: float = 0.05
    early_stop: bool = True
    method: str = "wilson"

    def __post_init__(self) -> None:
        if self.min_trials < 1:
            raise ValueError("min_trials must be >= 1")
        if self.max_trials < self.min_trials:
            raise ValueError("max_trials must be >= min_trials")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError("tolerance must be in (0, 1)")
        if self.method not in METHODS:
            raise ValueError(
                f"unknown interval method {self.method!r} "
                f"(expected one of {METHODS})"
            )

    @classmethod
    def fixed(cls, trials: int, method: str = "wilson") -> "TrialPolicy":
        """The legacy semantics: exactly ``trials`` trials, no stopping."""
        return cls(
            min_trials=1,
            max_trials=trials,
            batch_size=trials,
            early_stop=False,
            method=method,
        )

    def with_early_stop(self, enabled: bool) -> "TrialPolicy":
        return replace(self, early_stop=enabled)

    def describe(self) -> Dict[str, object]:
        """A stable JSON-able descriptor (cache keys, bench artifacts)."""
        return {
            "min_trials": self.min_trials,
            "max_trials": self.max_trials,
            "batch_size": self.batch_size,
            "confidence": self.confidence,
            "tolerance": self.tolerance,
            "early_stop": self.early_stop,
            "method": self.method,
        }


#: The shared quick preset: what `repro mc --quick` runs and what the
#: bench artifact's monte_carlo section uses as its adaptive policy —
#: one definition, so the CLI smoke and the artifact gate cannot drift.
QUICK_POLICY = TrialPolicy(
    min_trials=8, max_trials=32, batch_size=8, tolerance=0.1
)


# FixedInstanceFactory now lives in repro.exec.backends (so the process
# pool can recognize fixed-instance batches and publish the instance to
# shared memory); re-exported here unchanged for existing importers.


@dataclass
class MonteCarloResult:
    """Everything one streaming estimation run produced.

    ``outcomes`` is the full per-trial record (the quick/full grids this
    repo sweeps are small enough to keep it; the online statistics never
    read it back).  ``stopped`` is one of :data:`STOP_CONVERGED`,
    :data:`STOP_BUDGET`, :data:`STOP_FIXED`.
    """

    policy: TrialPolicy
    base_seed: int
    outcomes: List[TrialOutcome] = field(default_factory=list)
    stopped: str = STOP_FIXED
    elapsed: float = 0.0
    stats: SuccessStats = None  # type: ignore[assignment]
    volume_sketch: QuantileSketch = None  # type: ignore[assignment]
    distance_sketch: QuantileSketch = None  # type: ignore[assignment]
    queries_sketch: QuantileSketch = None  # type: ignore[assignment]
    # Set when a supervised backend recovered from faults during this
    # run (a repro.faults.retry.FaultLog snapshot).  Excluded from
    # equality: a recovered run IS the fault-free run, bit for bit.
    fault_log: Optional[object] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.stats is None:
            self.stats = SuccessStats(self.policy.method)
        if self.volume_sketch is None:
            self.volume_sketch = QuantileSketch()
        if self.distance_sketch is None:
            self.distance_sketch = QuantileSketch()
        if self.queries_sketch is None:
            self.queries_sketch = QuantileSketch()

    # ------------------------------------------------------------------
    @property
    def trials(self) -> int:
        return self.stats.trials

    @property
    def successes(self) -> int:
        return self.stats.successes

    @property
    def rate(self) -> float:
        return self.stats.rate

    def interval(self) -> "tuple[float, float]":
        return self.stats.interval(self.policy.confidence)

    def half_width(self) -> float:
        return self.stats.half_width(self.policy.confidence)

    @property
    def verdicts(self) -> List[bool]:
        """The per-trial validity verdicts, in trial order."""
        return [o.valid for o in self.outcomes]

    def record(self, outcome: TrialOutcome) -> None:
        """Fold one trial into every online statistic."""
        self.outcomes.append(outcome)
        self.stats.record(outcome.valid)
        self.volume_sketch.add(outcome.max_volume)
        self.distance_sketch.add(outcome.max_distance)
        self.queries_sketch.add(outcome.max_queries)

    def to_payload(self) -> Dict[str, object]:
        """The JSON-able artifact record for this estimation run."""
        low, high = self.interval()
        return {
            "trials": self.trials,
            "successes": self.successes,
            "rate": self.rate,
            "ci_low": low,
            "ci_high": high,
            "confidence": self.policy.confidence,
            "method": self.policy.method,
            "stopped": self.stopped,
            "volume": self.volume_sketch.summary(),
            "distance": self.distance_sketch.summary(),
            "queries": self.queries_sketch.summary(),
            "elapsed": self.elapsed,
        }


def _should_stop(policy: TrialPolicy, result: MonteCarloResult) -> bool:
    return (
        policy.early_stop
        and result.trials >= policy.min_trials
        and result.half_width() <= policy.tolerance
    )


def _source_key(instance_or_factory) -> str:
    """A stable name for the instance source (part of the run key)."""
    from repro.model.implicit import InstanceSpec

    if isinstance(instance_or_factory, FixedInstanceFactory):
        return _source_key(instance_or_factory.instance)
    if isinstance(instance_or_factory, InstanceSpec):
        return (
            f"spec:{instance_or_factory.family}:"
            f"{instance_or_factory.param!r}"
        )
    name = getattr(instance_or_factory, "name", None)
    n = getattr(instance_or_factory, "n", None)
    if name is not None and n is not None:
        return f"instance:{name}:{n}"
    qual = getattr(
        instance_or_factory,
        "__qualname__",
        type(instance_or_factory).__qualname__,
    )
    return f"factory:{qual}"


def trial_run_key(
    problem,
    instance_or_factory,
    algorithm,
    policy: TrialPolicy,
    base_seed: int,
    max_volume: Optional[int],
    max_queries: Optional[int],
) -> "tuple[str, Dict[str, object]]":
    """``(spec hash, meta)`` naming one run spec's stored trials.

    Everything that changes any trial's seed or verdict is in the hash;
    the meta is stored beside the trials for human inspection only.
    """
    meta = {
        "problem": type(problem).__name__,
        "source": _source_key(instance_or_factory),
        "algorithm": getattr(algorithm, "name", type(algorithm).__name__),
        "policy": policy.describe(),
        "base_seed": base_seed,
        "max_volume": max_volume,
        "max_queries": max_queries,
    }
    blob = json.dumps(meta, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16], meta


def _records_prefix(
    outcomes: List[TrialOutcome], policy: TrialPolicy
) -> List[TrialOutcome]:
    """The contiguous prefix of stored trials, batch-aligned.

    ``outcomes`` come in trial order, one per trial index.  The prefix
    stops at the first gap and is then truncated to a multiple of
    ``policy.batch_size`` so the resumed run re-evaluates its stop
    conditions at exactly the batch boundaries the uninterrupted run
    would have used — the dropped tail re-executes bitwise-identically.
    """
    prefix = 0
    for outcome in outcomes:
        if outcome.trial != prefix:
            break
        prefix += 1
    if prefix >= policy.max_trials:
        # A completed run's final batch may be shorter than batch_size;
        # nothing is left to execute, so keep every recorded trial.
        return outcomes[: policy.max_trials]
    return outcomes[: (prefix // policy.batch_size) * policy.batch_size]


def run_trials(
    problem,
    instance_or_factory,
    algorithm,
    policy: TrialPolicy,
    *,
    base_seed: int = 0,
    backend: Union[ExecutionBackend, str, None] = None,
    max_volume: Optional[int] = None,
    max_queries: Optional[int] = None,
    resume: Optional[MonteCarloResult] = None,
    store=None,
    progress: Optional[Callable[[str], None]] = None,
) -> MonteCarloResult:
    """Stream solve-and-check trials until the policy says stop.

    ``instance_or_factory`` is either a fixed instance (wrapped in a
    :class:`FixedInstanceFactory`; the oracle compiles once per batch) or
    an ``instance_factory(trial) -> instance`` for per-trial draws from a
    hard distribution.  ``resume`` continues a previously returned result
    from its next trial index — the combined run is bitwise identical to
    an uninterrupted one (see the module docstring).

    ``store`` (a :class:`~repro.corpus.results.ResultStore`) makes the
    run crash-safe and resumable: each completed batch commits to the
    store under the run's :func:`trial_run_key`, and the stored prefix
    replays instead of re-executing on the next run of the same spec.
    One store serves every run spec ever recorded; ``resume=`` is
    mutually exclusive with it (the store already is a durable resume
    point).
    """
    if resume is not None and store is not None:
        raise ValueError(
            "pass either resume= (in-memory) or store= (on-disk), not "
            "both — the store already replays completed trials"
        )
    engine = get_backend(backend)
    owned: List[ExecutionBackend] = []
    if backend is not None and not isinstance(backend, ExecutionBackend):
        # A string spec ("process:4", ...) constructed a fresh backend
        # nobody else holds: close it when the run ends, or a lazily
        # started ProcessPoolExecutor (and any published shared-memory
        # segment) leaks into interpreter teardown.
        owned.append(engine)
    # The try covers everything from here on: even pre-loop failures
    # (resume validation, a factory that raises) must close an owned
    # pool and its shared-memory segments, not just loop exceptions.
    try:
        # A plain SerialBackend wraps *each* trial batch in a transient
        # BatchBackend, recompiling a fixed instance's oracle once per
        # batch; holding one oracle-caching backend for the whole
        # streaming loop compiles it once per run instead.  Results are
        # identical (the conformance suite pins serial == batch), so
        # this is purely an amortization.  Exact-type check on purpose:
        # a BatchBackend (a SerialBackend subclass) already caches
        # across calls.
        if type(engine) is SerialBackend:
            engine = BatchBackend(compiled=engine.compiled)
            owned.append(engine)
        factory = (
            instance_or_factory
            if callable(instance_or_factory)
            else FixedInstanceFactory(instance_or_factory)
        )
        if resume is not None:
            if resume.policy != policy or resume.base_seed != base_seed:
                raise ValueError(
                    "resume requires the same policy and base_seed the "
                    "original run used (trial seeds would diverge otherwise)"
                )
            result = MonteCarloResult(policy=policy, base_seed=base_seed)
            for outcome in resume.outcomes:
                result.record(outcome)
            result.elapsed = resume.elapsed
        else:
            result = MonteCarloResult(policy=policy, base_seed=base_seed)
        if store is not None:
            run_key, run_meta = trial_run_key(
                problem,
                instance_or_factory,
                algorithm,
                policy,
                base_seed,
                max_volume,
                max_queries,
            )
            store.record_trial_run(run_key, run_meta)
            replayed = _records_prefix(store.trial_records(run_key), policy)
            for outcome in replayed:
                result.record(outcome)
            if replayed and progress is not None:
                progress(
                    f"  replayed {len(replayed)} completed "
                    f"trial{'s' if len(replayed) != 1 else ''} from "
                    f"store {store.path}"
                )
        started = time.perf_counter()
        backend_log = getattr(engine, "fault_log", None)
        log_mark = len(backend_log) if backend_log is not None else 0
        result.stopped = STOP_FIXED if not policy.early_stop else STOP_BUDGET
        while result.trials < policy.max_trials:
            if _should_stop(policy, result):
                result.stopped = STOP_CONVERGED
                break
            first = result.trials
            batch = range(
                first, min(first + policy.batch_size, policy.max_trials)
            )
            outcomes = engine.run_trial_batch(
                problem,
                factory,
                algorithm,
                batch,
                base_seed=base_seed,
                max_volume=max_volume,
                max_queries=max_queries,
            )
            for outcome in outcomes:
                result.record(outcome)
            if store is not None:
                # One committed transaction per completed batch: a crash
                # can lose at most the batch in flight.
                store.record_trials(run_key, outcomes)
            if progress is not None:
                low, high = result.interval()
                progress(
                    f"  trials={result.trials} rate={result.rate:.3f} "
                    f"ci=[{low:.3f}, {high:.3f}]"
                )
        else:
            if _should_stop(policy, result):
                # Converged exactly at the budget boundary: still a
                # genuine convergence, not a budget exhaustion.
                result.stopped = STOP_CONVERGED
        if backend_log is not None and len(backend_log) > log_mark:
            result.fault_log = backend_log.since(log_mark)
    finally:
        for held in owned:
            held.close()
    result.elapsed += time.perf_counter() - started
    return result


def estimate_success_probability(
    problem,
    instance_or_factory,
    algorithm,
    policy: Optional[TrialPolicy] = None,
    **kwargs,
) -> MonteCarloResult:
    """:func:`run_trials` with the default policy — the common entry."""
    return run_trials(
        problem,
        instance_or_factory,
        algorithm,
        policy or TrialPolicy(),
        **kwargs,
    )


__all__ = [
    "FixedInstanceFactory",
    "MonteCarloResult",
    "QUICK_POLICY",
    "STOP_BUDGET",
    "STOP_CONVERGED",
    "STOP_FIXED",
    "TrialPolicy",
    "estimate_success_probability",
    "run_trials",
    "trial_run_key",
]
