"""Pluggable execution backends for whole-instance runs.

The model layer defines *what* one per-node execution is
(:func:`~repro.model.probe.execute_at`); this module defines *how* the
executions of a whole-instance run are dispatched.  Three strategies:

* :class:`SerialBackend` — one process, nodes in iteration order.  This
  is the default everywhere and is what the paper's definitions
  describe (``SerialBackend(compiled=False)`` is the uncompiled
  *reference path*, see below).
* :class:`ProcessPoolBackend` — chunked fan-out of start nodes over a
  ``concurrent.futures`` process pool.  Results are merged back in the
  original node order, so the returned :class:`~repro.model.runner.RunResult`
  is **bitwise identical** to the serial one.
* :class:`BatchBackend` — serial execution with an oracle cache, so
  repeated runs over the same instance (ablations, the trial loop of
  :func:`~repro.model.runner.success_probability`) do not rebuild the
  :class:`~repro.model.oracle.StaticOracle` each time.

Why parallel fan-out is sound here: a node's random tape is seeded by the
string ``repro-tape:{seed}:{node_id}`` (see
:class:`~repro.model.randomness.TapeStore`), so the bits any execution
reads depend only on ``(seed, node_id, index)`` — never on which process
generates them or in what order executions run.  Each worker rebuilds its
own :class:`TapeStore` from the same seed and observes exactly the bits
the shared serial store would have produced.

Every backend **auto-compiles** static instances by default: the instance
is compiled once per whole-instance run (and once per
:meth:`~ExecutionBackend.success_probability` trial batch when the
factory keeps returning the same instance) into a
:class:`~repro.model.oracle.CompiledOracle`, and the per-node executions
use the O(1) incremental-DIST engine.  Pass ``compiled=False`` (or the
backend spec ``"reference"``) to run the uncompiled reference engine —
``StaticOracle`` plus BFS-on-demand ``DIST`` — which produces bitwise
identical results, just slower; the property suite under ``tests/perf``
enforces the equivalence.

Two fast paths sit on top of the compiled engine (both bitwise-identical
to the scalar serial semantics, both enforced by the equivalence suites):

* **Batched flat-array kernel** — deterministic, unbudgeted runs of
  algorithms that implement
  :meth:`~repro.model.probe.ProbeAlgorithm.run_node_batch` (the
  full-gather family) advance over the CSR arrays directly
  (:mod:`repro.model.batched`) instead of through per-query
  :class:`~repro.model.probe.ProbeView` bookkeeping.
* **Zero-copy shared memory** — :class:`ProcessPoolBackend` publishes
  the frozen instance once per dispatch into a
  :mod:`multiprocessing.shared_memory` segment (:mod:`repro.exec.shm`)
  and ships only an O(1) :class:`~repro.exec.shm.ShmInstanceHandle` plus
  chunk indices to workers, which attach zero-copy and cache the
  compiled oracle per process.  ``shared_memory=False`` (or the spec
  suffix ``"process:N:pickle"``) preserves the whole-instance-per-chunk
  pickle path bit-for-bit; the segment is unlinked in a ``finally`` on
  every dispatch, with an ``atexit`` backstop.

One shortcut sits in the trial loop every backend and pool worker runs:
a fixed-instance trial that read no random bit has the same outcome
under every seed, so the rest of its batch reuses it instead of
executing again (:func:`_trial_outcomes`).

Fault tolerance: :class:`ProcessPoolBackend` dispatches are *supervised*
by default — per-chunk timeouts, worker-crash detection, and a
:class:`~repro.faults.retry.RetryPolicy` that re-dispatches only the
lost chunks, degrading each chunk along the documented chain
shm → pickle transport → serial in-process when retries keep failing.
Because every chunk outcome is a pure function of its seeds, a run that
survived faults is bitwise-identical to the fault-free run; what
happened is recorded in the structured
:class:`~repro.faults.retry.FaultLog` attached to the result.  See
DESIGN.md §11 for the fault model and the determinism argument.
"""

from __future__ import annotations

import abc
import os
import pickle
import time
import warnings
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exec import shm as shm_layer
from repro.faults.plan import ShmAttachError, wrap_payload
from repro.faults.retry import FaultEvent, FaultLog, RetryPolicy
from repro.model.implicit import InstanceSpec, as_oracle, iter_node_ids
from repro.model.probe import CostProfile, ProbeAlgorithm, execute_at
from repro.model.randomness import TapeStore
from repro.model.runner import RunResult


def _make_oracle(instance, compiled: bool):
    """One instance source's oracle: fast path or reference semantics.

    ``mode="auto"`` is the compiled table for materialized instances and
    the lazy bounded-memory :class:`~repro.model.implicit.ImplicitOracle`
    for an :class:`~repro.model.implicit.InstanceSpec`; the reference
    path always gets :class:`StaticOracle` semantics (a spec is
    materialized first — small n only, which is all the reference engine
    can run anyway).
    """
    return as_oracle(instance, mode="auto" if compiled else "reference")


@dataclass(frozen=True)
class TrialOutcome:
    """One solve-and-check trial of a success-probability experiment.

    Trial ``i`` always runs under seed ``base_seed + i`` — every node's
    tape is derived from the string ``repro-tape:{base_seed + i}:{node}``,
    so the outcome is a pure function of ``(base_seed, trial, node)`` and
    any backend (or any resumed run) reproduces it bit for bit.  The
    per-trial cost maxima and the total random-bit consumption ride along
    so streaming consumers (the Monte-Carlo engine) can keep quantile
    sketches and conformance tests can compare tape draws, not just
    verdicts.
    """

    trial: int
    seed: int
    valid: bool
    max_volume: int
    max_distance: int
    max_queries: int
    random_bits: int


def _execute_nodes(
    oracle,
    algorithm: ProbeAlgorithm,
    nodes: Sequence[int],
    seed: int,
    max_volume: Optional[int],
    max_queries: Optional[int],
    distance_mode: str = "incremental",
) -> List[Tuple[int, object, CostProfile]]:
    """The shared inner loop: run ``algorithm`` from each node in order."""
    if (
        distance_mode == "incremental"
        and max_volume is None
        and max_queries is None
        and not algorithm.is_randomized
    ):
        # Batched flat-array fast path: only for deterministic,
        # unbudgeted runs on the compiled engine (truncation and tape
        # semantics stay with the scalar loop below, which is also the
        # reference path `distance_mode="reference"` always takes).
        batched = algorithm.run_node_batch(oracle, nodes)
        if batched is not None:
            return batched
    tapes = TapeStore(seed) if algorithm.is_randomized else None
    out: List[Tuple[int, object, CostProfile]] = []
    for node in nodes:
        output, profile = execute_at(
            oracle,
            algorithm,
            node,
            tape_store=tapes,
            max_volume=max_volume,
            max_queries=max_queries,
            distance_mode=distance_mode,
        )
        out.append((node, output, profile))
    return out


def _run_chunk(payload: bytes) -> List[Tuple[int, object, CostProfile]]:
    """Worker entry point: one contiguous chunk of start nodes."""
    (
        instance,
        algorithm,
        nodes,
        seed,
        max_volume,
        max_queries,
        compiled,
    ) = pickle.loads(payload)
    oracle = _make_oracle(instance, compiled)
    return _execute_nodes(
        oracle,
        algorithm,
        nodes,
        seed,
        max_volume,
        max_queries,
        distance_mode="incremental" if compiled else "reference",
    )


def _run_chunk_shm(payload: bytes) -> List[Tuple[int, object, CostProfile]]:
    """Worker entry point: a chunk against a shared-memory instance.

    The payload carries an O(1) :class:`~repro.exec.shm.ShmInstanceHandle`
    instead of the pickled instance; the attachment (zero-copy CSR views
    + compiled oracle) is cached per worker process, so every chunk after
    a worker's first is pure dispatch.
    """
    (
        handle,
        algorithm,
        nodes,
        seed,
        max_volume,
        max_queries,
    ) = pickle.loads(payload)
    _, oracle = shm_layer.attached_instance(handle)
    return _execute_nodes(
        oracle,
        algorithm,
        nodes,
        seed,
        max_volume,
        max_queries,
        distance_mode="incremental",
    )


class FixedInstanceFactory:
    """``instance_factory(trial) -> instance`` for a fixed instance.

    Module-level and attribute-only, so it pickles into process-pool
    workers (a lambda closing over the instance would not).  Lives here
    (rather than the Monte-Carlo engine that popularized it) so the
    process-pool backend can recognize fixed-instance trial batches and
    publish the one instance to shared memory; re-exported unchanged
    from :mod:`repro.montecarlo.engine`.
    """

    def __init__(self, instance) -> None:
        self.instance = instance

    def __call__(self, trial: int):
        return self.instance


def _trial_outcomes(
    backend: "ExecutionBackend",
    problem,
    instance_factory,
    algorithm: ProbeAlgorithm,
    trial_indices: Sequence[int],
    base_seed: int,
    max_volume: Optional[int],
    max_queries: Optional[int],
) -> List[TrialOutcome]:
    """The shared trial loop: solve-and-check each trial on ``backend``.

    On a fixed instance the tape is the only input a seed reaches, and
    every tape read is counted.  A trial that read no random bit never
    branched on its tape, so every other seed gives the same outcome:
    the later trials of such a batch take it with their own ``trial``
    and ``seed`` instead of executing again (DESIGN.md §8.2).
    """
    from repro.model.runner import solve_and_check

    fixed = isinstance(instance_factory, FixedInstanceFactory)
    seed_free: Optional[TrialOutcome] = None
    outcomes: List[TrialOutcome] = []
    for trial in trial_indices:
        seed = base_seed + trial
        if seed_free is not None:
            outcomes.append(replace(seed_free, trial=trial, seed=seed))
            continue
        report = solve_and_check(
            problem,
            instance_factory(trial),
            algorithm,
            seed=seed,
            max_volume=max_volume,
            max_queries=max_queries,
            backend=backend,
        )
        run = report.run
        outcome = TrialOutcome(
            trial=trial,
            seed=seed,
            valid=bool(report.valid),
            max_volume=run.max_volume,
            max_distance=run.max_distance,
            max_queries=run.max_queries,
            random_bits=run.total_random_bits,
        )
        outcomes.append(outcome)
        if fixed and outcome.random_bits == 0:
            seed_free = outcome
    return outcomes


def _run_trials(payload: bytes) -> List[TrialOutcome]:
    """Worker entry point: a chunk of independent success trials."""
    (
        problem,
        instance_factory,
        algorithm,
        trial_indices,
        base_seed,
        max_volume,
        max_queries,
        compiled,
    ) = pickle.loads(payload)
    # Amortize oracle compilation if the factory repeats an instance.
    with BatchBackend(compiled=compiled) as backend:
        return _trial_outcomes(
            backend,
            problem,
            instance_factory,
            algorithm,
            trial_indices,
            base_seed,
            max_volume,
            max_queries,
        )


def _run_trials_shm(payload: bytes) -> List[TrialOutcome]:
    """Worker entry point: fixed-instance trials via shared memory.

    Only dispatched for :class:`FixedInstanceFactory` batches, so the one
    attached instance (and its per-worker cached compiled oracle) serves
    every trial of every chunk this worker sees for the run.
    """
    (
        handle,
        problem,
        algorithm,
        trial_indices,
        base_seed,
        max_volume,
        max_queries,
    ) = pickle.loads(payload)
    instance, oracle = shm_layer.attached_instance(handle)
    return _trial_outcomes(
        _PinnedOracleBackend(oracle),
        problem,
        FixedInstanceFactory(instance),
        algorithm,
        trial_indices,
        base_seed,
        max_volume,
        max_queries,
    )


class ExecutionBackend(abc.ABC):
    """How the per-node executions of a whole-instance run are dispatched.

    Every backend must produce results *identical* to
    :class:`SerialBackend` — backends may change wall-clock behavior and
    resource usage, never observable outputs.
    """

    name: str = "backend"

    @property
    def oracle_mode(self) -> str:
        """``"compiled"`` or ``"reference"`` (recorded in bench artifacts)."""
        return "compiled" if getattr(self, "compiled", True) else "reference"

    @abc.abstractmethod
    def run(
        self,
        instance,
        algorithm: ProbeAlgorithm,
        nodes: Optional[Iterable[int]] = None,
        *,
        seed: int = 0,
        max_volume: Optional[int] = None,
        max_queries: Optional[int] = None,
    ) -> RunResult:
        """Execute ``algorithm`` from every node (or the given subset)."""

    def run_trial_batch(
        self,
        problem,
        instance_factory,
        algorithm: ProbeAlgorithm,
        trial_indices: Sequence[int],
        *,
        base_seed: int = 0,
        max_volume: Optional[int] = None,
        max_queries: Optional[int] = None,
    ) -> List[TrialOutcome]:
        """Solve-and-check the given trials; one :class:`TrialOutcome` each.

        Trial ``i`` runs under seed ``base_seed + i`` regardless of which
        backend dispatches it or how the indices are batched, so the
        outcome list for a set of indices is backend-independent.  This is
        the primitive both :meth:`success_probability` (one fixed batch)
        and the streaming Monte-Carlo engine (adaptive batches) build on.
        """
        return _trial_outcomes(
            self,
            problem,
            instance_factory,
            algorithm,
            list(trial_indices),
            base_seed,
            max_volume,
            max_queries,
        )

    def success_probability(
        self,
        problem,
        instance_factory,
        algorithm: ProbeAlgorithm,
        trials: int,
        *,
        base_seed: int = 0,
        max_volume: Optional[int] = None,
        max_queries: Optional[int] = None,
    ) -> float:
        """Fraction of independent trials the algorithm solved Π on.

        One fixed-count batch through :meth:`run_trial_batch`, so every
        backend's trial dispatch (oracle caching, process fan-out) is
        shared with the Monte-Carlo engine and the two can never diverge.
        """
        if trials <= 0:
            raise ValueError("success_probability needs at least one trial")
        outcomes = self.run_trial_batch(
            problem,
            instance_factory,
            algorithm,
            range(trials),
            base_seed=base_seed,
            max_volume=max_volume,
            max_queries=max_queries,
        )
        return sum(o.valid for o in outcomes) / trials

    # Backends that hold external resources (pools) override these.
    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _resolve_nodes(self, instance, nodes) -> List[int]:
        if nodes is not None:
            return list(nodes)
        return list(iter_node_ids(instance))

    def _assemble(
        self,
        instance,
        algorithm: ProbeAlgorithm,
        triples: Iterable[Tuple[int, object, CostProfile]],
    ) -> RunResult:
        result = RunResult(algorithm=algorithm.name, instance=instance.name)
        for node, output, profile in triples:
            result.outputs[node] = output
            result.profiles[node] = profile
        return result


class SerialBackend(ExecutionBackend):
    """One process, nodes in order: the paper's execution semantics.

    ``compiled=True`` (the default) compiles the instance's oracle once
    per whole-instance run and uses the incremental-DIST engine;
    ``compiled=False`` is the *reference path* — ``StaticOracle`` plus
    BFS-on-demand ``DIST`` — with bitwise-identical results.
    """

    name = "serial"

    def __init__(self, compiled: bool = True) -> None:
        self.compiled = compiled
        if not compiled:
            self.name = "reference"

    @property
    def _distance_mode(self) -> str:
        return "incremental" if self.compiled else "reference"

    def run(
        self,
        instance,
        algorithm: ProbeAlgorithm,
        nodes: Optional[Iterable[int]] = None,
        *,
        seed: int = 0,
        max_volume: Optional[int] = None,
        max_queries: Optional[int] = None,
    ) -> RunResult:
        node_list = self._resolve_nodes(instance, nodes)
        oracle = self._oracle_for(instance)
        triples = _execute_nodes(
            oracle,
            algorithm,
            node_list,
            seed,
            max_volume,
            max_queries,
            distance_mode=self._distance_mode,
        )
        return self._assemble(instance, algorithm, triples)

    def run_trial_batch(
        self,
        problem,
        instance_factory,
        algorithm: ProbeAlgorithm,
        trial_indices: Sequence[int],
        *,
        base_seed: int = 0,
        max_volume: Optional[int] = None,
        max_queries: Optional[int] = None,
    ) -> List[TrialOutcome]:
        """Trial batch with the oracle compiled once per batch.

        A fixed-instance factory (the Proposition 3.12 shape) would
        otherwise recompile the same instance every trial; routing the
        batch through a transient :class:`BatchBackend` compiles it once.
        """
        with BatchBackend(compiled=self.compiled) as batch:
            return _trial_outcomes(
                batch,
                problem,
                instance_factory,
                algorithm,
                list(trial_indices),
                base_seed,
                max_volume,
                max_queries,
            )

    def _oracle_for(self, instance):
        return _make_oracle(instance, self.compiled)


class BatchBackend(SerialBackend):
    """Serial execution with an oracle cache for repeated instances.

    ``success_probability`` with a fixed-instance factory, and ablation
    loops that re-run many algorithms/seeds on one instance, construct a
    fresh :class:`StaticOracle` per call under :class:`SerialBackend`;
    this backend builds it once per distinct instance and reuses it.
    """

    name = "batch"

    def __init__(self, max_cached: int = 64, compiled: bool = True) -> None:
        super().__init__(compiled=compiled)
        self.name = "batch"
        if max_cached < 1:
            raise ValueError("max_cached must be positive")
        self._max_cached = max_cached
        # id() keys are only stable while the object lives; the oracle
        # holds a strong reference to its instance, keeping the id valid
        # for as long as the entry is cached.  Ordered least- to
        # most-recently *used*: hits re-rank, eviction pops the front.
        self._oracles: "OrderedDict[int, object]" = OrderedDict()

    def run_trial_batch(self, *args, **kwargs) -> List[TrialOutcome]:
        # This backend already amortizes repeated instances itself; the
        # SerialBackend override would wrap it in yet another batch.
        return ExecutionBackend.run_trial_batch(self, *args, **kwargs)

    def _oracle_for(self, instance):
        key = id(instance)
        oracle = self._oracles.get(key)
        if oracle is not None and oracle.instance is instance:
            self._oracles.move_to_end(key)
            return oracle
        oracle = _make_oracle(instance, self.compiled)
        if key in self._oracles:
            # A dead instance's id was reused: the stale entry must go
            # regardless of capacity.
            del self._oracles[key]
        elif len(self._oracles) >= self._max_cached:
            self._oracles.popitem(last=False)
        self._oracles[key] = oracle
        return oracle

    def close(self) -> None:
        self._oracles.clear()


class _PinnedOracleBackend(SerialBackend):
    """Serial execution against one pre-compiled oracle (shm workers).

    A worker that attached a shared-memory instance already holds its
    compiled oracle; this backend hands that oracle to every run over
    the attached instance instead of recompiling, and — unlike its
    parent — does not wrap trial batches in a transient
    :class:`BatchBackend` (the pinned oracle *is* the cache).
    """

    name = "process-shm-worker"

    def __init__(self, oracle) -> None:
        super().__init__(compiled=True)
        self._pinned = oracle

    def run_trial_batch(self, *args, **kwargs) -> List[TrialOutcome]:
        return ExecutionBackend.run_trial_batch(self, *args, **kwargs)

    def _oracle_for(self, instance):
        if instance is self._pinned.instance:
            return self._pinned
        return super()._oracle_for(instance)


#: Fault kinds the injector may apply per transport (shm-only kinds make
#: no sense on the pickle transport; publish faults are applied at the
#: publish step, not per chunk).
_PICKLE_FAULTS = (
    "kill-worker",
    "delay-chunk",
    "transient-oserror",
    "corrupt-payload",
)
_SHM_FAULTS = _PICKLE_FAULTS + ("shm-attach-fail",)

# "shm unavailable" should be one actionable warning per process, not a
# crash and not a silent slowdown.
_SHM_FALLBACK_WARNED = False


def _warn_shm_fallback(exc: Exception) -> None:
    global _SHM_FALLBACK_WARNED
    if _SHM_FALLBACK_WARNED:
        return
    _SHM_FALLBACK_WARNED = True
    warnings.warn(
        "shared-memory transport unavailable "
        f"({type(exc).__name__}: {exc}); falling back to the pickle "
        "transport for this and future dispatches needing it. Results "
        "are identical, only slower; pass shared_memory=False (spec "
        "'process:N:pickle') to silence this, or free /dev/shm space "
        "to restore the zero-copy path.",
        RuntimeWarning,
        stacklevel=3,
    )


class ProcessPoolBackend(ExecutionBackend):
    """Chunked fan-out of start nodes over a supervised process pool.

    The node list is split into contiguous chunks, each chunk runs the
    plain serial loop in a worker, and the chunk results are merged back
    in submission order — so outputs, profiles and iteration order are
    identical to :class:`SerialBackend` (see the module docstring for why
    the random tapes agree bit-for-bit).

    ``success_probability`` fans the *trials* out instead, which is the
    better unit of work when each trial draws a fresh instance.  If the
    work items cannot be pickled (e.g. an instance factory defined inside
    a test function), it silently falls back to the serial path.

    With ``shared_memory=True`` (the default on the compiled path) the
    instance is *published once per dispatch* to a shared-memory segment
    and chunks carry only an O(1) handle; workers attach zero-copy and
    cache the compiled oracle per process.  The segment is unlinked in a
    ``finally`` whether the dispatch succeeds or a worker raises.
    ``shared_memory=False`` preserves the instance-per-chunk pickle path
    bit-for-bit (results are identical either way — only the transport
    differs); the reference path (``compiled=False``) always pickles.

    Supervision (``supervised=True``, the default): each dispatch tracks
    its chunks individually, detects crashed workers
    (``BrokenProcessPool``), hung chunks (``timeout`` seconds per chunk,
    off by default), and corrupt payloads, and re-dispatches *only the
    lost chunks* under ``retry`` (a :class:`~repro.faults.retry.RetryPolicy`;
    backoff jitter is seeded from the dispatch seed, so reruns wait the
    exact same schedule).  A chunk that keeps failing degrades
    shm → pickle transport → serial in-process; the serial stage always
    completes or raises the chunk's real exception.  Worker *application*
    errors skip straight to serial after ``retry.app_attempts`` tries —
    they are usually deterministic, and serial reproduces the real
    traceback.  Every handled failure is recorded in :attr:`fault_log`
    (a snapshot rides on each :class:`~repro.model.runner.RunResult`).
    ``supervised=False`` restores the bare gather loop (no timeouts, no
    retries, first worker exception propagates) — the zero-overhead
    baseline the bench suite compares against.

    ``fault_injector`` (a :class:`~repro.faults.plan.FaultInjector`) is
    the chaos-harness hook: ``None`` (the default) costs one ``is None``
    check per chunk dispatch.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        compiled: bool = True,
        shared_memory: bool = True,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        supervised: bool = True,
        fault_injector=None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None for no limit)")
        self.workers = workers or os.cpu_count() or 1
        self.chunk_size = chunk_size
        self.compiled = compiled
        self.shared_memory = shared_memory
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.supervised = supervised
        #: Everything supervision handled over this backend's lifetime;
        #: per-dispatch snapshots ride on the results themselves.
        self.fault_log = FaultLog()
        self._injector = fault_injector
        self._dispatches = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        # Segments published by dispatches that have not unlinked yet;
        # normally drained by the per-dispatch ``finally``, re-drained by
        # close() as a backstop (shm's atexit hook is the last resort).
        self._live_handles: Set[object] = set()

    # ------------------------------------------------------------------
    # Supervision: classify → retry → degrade (shm → pickle → serial)
    # ------------------------------------------------------------------
    def _reset_pool(self) -> None:
        """Tear down a broken/hung pool so the next round gets a fresh one."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = list(getattr(executor, "_processes", {}).values())
        for proc in processes:
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for proc in processes:
            try:
                proc.join(timeout=1.0)
            except Exception:
                pass

    def _dispatch_supervised(
        self,
        scope: str,
        chunks: List[list],
        transport: str,
        payloads: List[bytes],
        workers_map: Dict[str, Callable[[bytes], list]],
        pickle_payload: Callable[[list], bytes],
        serial_chunk: Callable[[list], list],
        seed: int,
    ) -> List[list]:
        """Run every chunk to completion; return per-chunk results in order.

        The loop is round-based: submit all pending chunks, gather with
        the per-chunk timeout, classify each failure, decide retry vs
        degrade, reset the pool once per round if it broke, sleep the
        round's largest due backoff, repeat.  A chunk on the ``serial``
        stage executes in-process at the top of the next round — it
        either completes or raises the chunk's real exception to the
        caller (the dispatch's ``finally`` still unpublishes).
        """
        retry = self.retry
        injector = self._injector
        count = len(chunks)
        results: List[Optional[list]] = [None] * count
        transports = [transport] * count
        blobs: List[bytes] = list(payloads)
        tries = [0] * count  # lifetime dispatch count: fault/backoff coordinate
        stage_tries = [0] * count  # tries on the current transport stage
        app_tries = [0] * count  # worker application errors seen
        pending = list(range(count))
        while pending:
            for idx in pending:
                if transports[idx] == "serial":
                    results[idx] = serial_chunk(chunks[idx])
            pending = [i for i in pending if transports[i] != "serial"]
            if not pending:
                break
            submitted: List[Tuple[int, object]] = []
            failures: List[Tuple[int, str, str]] = []  # (chunk, kind, detail)
            broken = False
            for idx in pending:
                worker = workers_map[transports[idx]]
                blob = blobs[idx]
                if injector is not None:
                    allowed = (
                        _SHM_FAULTS
                        if transports[idx] == "shm"
                        else _PICKLE_FAULTS
                    )
                    fault = injector.fault_for(scope, idx, tries[idx], allowed)
                    if fault is not None:
                        self.fault_log.record(
                            FaultEvent(
                                f"injected:{fault}",
                                scope,
                                idx,
                                tries[idx],
                                "injected",
                            )
                        )
                        worker, blob = wrap_payload(
                            fault, injector.plan, worker, blob
                        )
                try:
                    future = self._pool().submit(worker, blob)
                except (BrokenProcessPool, RuntimeError) as exc:
                    broken = True
                    failures.append((idx, "worker-crash", f"submit: {exc}"))
                    continue
                submitted.append((idx, future))
            timed_out = False
            for idx, future in submitted:
                # After the first timeout the round is lost anyway: poll
                # the rest briefly to salvage chunks that did finish.
                wait = 0.05 if timed_out else self.timeout
                try:
                    results[idx] = future.result(timeout=wait)
                except FuturesTimeout:
                    timed_out = True
                    broken = True
                    future.cancel()
                    failures.append(
                        (idx, "timeout", f"chunk exceeded {self.timeout:g}s")
                    )
                except BrokenProcessPool as exc:
                    broken = True
                    failures.append((idx, "worker-crash", str(exc)))
                except (pickle.UnpicklingError, EOFError) as exc:
                    failures.append(
                        (
                            idx,
                            "corrupt-payload",
                            f"{type(exc).__name__}: {exc}",
                        )
                    )
                except Exception as exc:
                    if transports[idx] == "shm" and isinstance(
                        exc, (ShmAttachError, FileNotFoundError)
                    ):
                        kind = "shm-attach"
                    else:
                        kind = "chunk-error"
                    failures.append(
                        (idx, kind, f"{type(exc).__name__}: {exc}")
                    )
            if broken:
                self._reset_pool()
            pending = []
            round_delay = 0.0
            for idx, kind, detail in failures:
                attempt = tries[idx]
                tries[idx] += 1
                stage_tries[idx] += 1
                action = "retry"
                if kind == "chunk-error":
                    # Application errors are usually deterministic: after
                    # app_attempts tries, reproduce the real exception
                    # serially instead of burning the full retry budget.
                    app_tries[idx] += 1
                    if app_tries[idx] >= retry.app_attempts:
                        action = "degrade:serial"
                if kind == "shm-attach":
                    # The segment is gone for every future attempt too.
                    action = "degrade:pickle"
                elif (
                    action == "retry"
                    and stage_tries[idx] >= retry.max_attempts
                ):
                    action = (
                        "degrade:pickle"
                        if transports[idx] == "shm"
                        else "degrade:serial"
                    )
                if action == "degrade:pickle":
                    transports[idx] = "pickle"
                    stage_tries[idx] = 0
                    try:
                        blobs[idx] = pickle_payload(chunks[idx])
                    except Exception:
                        action = "degrade:serial"
                if action == "degrade:serial":
                    transports[idx] = "serial"
                self.fault_log.record(
                    FaultEvent(kind, scope, idx, attempt, action, detail)
                )
                if action == "retry":
                    round_delay = max(
                        round_delay,
                        retry.delay(f"{seed}:{scope}:{idx}", attempt),
                    )
                pending.append(idx)
            if round_delay > 0:
                time.sleep(round_delay)
        return results

    # ------------------------------------------------------------------
    def run(
        self,
        instance,
        algorithm: ProbeAlgorithm,
        nodes: Optional[Iterable[int]] = None,
        *,
        seed: int = 0,
        max_volume: Optional[int] = None,
        max_queries: Optional[int] = None,
    ) -> RunResult:
        node_list = self._resolve_nodes(instance, nodes)
        chunks = self._chunk(node_list)
        serial = self.workers == 1 or len(chunks) <= 1
        self._dispatches += 1
        scope = f"run:{self._dispatches}"
        mark = len(self.fault_log)
        handle = None
        payloads: List[bytes] = []
        if (
            not serial
            and self.shared_memory
            and self.compiled
            # An InstanceSpec is already an O(1) payload — pickling it
            # per chunk beats publishing (there is no graph to share);
            # each worker serves its chunk from its own ImplicitOracle.
            and not isinstance(instance, InstanceSpec)
        ):
            handle = self._publish(instance, scope)
        if handle is not None:
            try:
                payloads = [
                    pickle.dumps(
                        (handle, algorithm, chunk, seed, max_volume,
                         max_queries)
                    )
                    for chunk in chunks
                ]
            except Exception:
                # Unpicklable algorithm: the shm path cannot help either;
                # drop the segment and try the legacy transport below.
                self._unpublish(handle)
                handle = None
                payloads = []
        if not serial and handle is None:
            try:
                payloads = [
                    pickle.dumps(
                        (instance, algorithm, chunk, seed, max_volume,
                         max_queries, self.compiled)
                    )
                    for chunk in chunks
                ]
            except Exception:
                # Unpicklable instance/algorithm (local classes, lambdas):
                # the parallel path is an optimization, not a requirement.
                serial = True
        if serial:
            triples = _execute_nodes(
                _make_oracle(instance, self.compiled),
                algorithm,
                node_list,
                seed,
                max_volume,
                max_queries,
                distance_mode="incremental" if self.compiled else "reference",
            )
            return self._assemble(instance, algorithm, triples)

        def _pickle_payload(chunk: list) -> bytes:
            return pickle.dumps(
                (instance, algorithm, chunk, seed, max_volume,
                 max_queries, self.compiled)
            )

        oracle_cache: list = []

        def _serial_chunk(chunk: list) -> list:
            if not oracle_cache:
                oracle_cache.append(_make_oracle(instance, self.compiled))
            return _execute_nodes(
                oracle_cache[0],
                algorithm,
                chunk,
                seed,
                max_volume,
                max_queries,
                distance_mode="incremental" if self.compiled else "reference",
            )

        try:
            if self.supervised:
                chunk_results = self._dispatch_supervised(
                    scope,
                    chunks,
                    "pickle" if handle is None else "shm",
                    payloads,
                    {"shm": _run_chunk_shm, "pickle": _run_chunk},
                    _pickle_payload,
                    _serial_chunk,
                    seed,
                )
            else:
                worker = _run_chunk if handle is None else _run_chunk_shm
                futures = [self._pool().submit(worker, p) for p in payloads]
                # submission order == original node order
                chunk_results = [future.result() for future in futures]
        finally:
            if handle is not None:
                self._unpublish(handle)
        triples = [t for chunk in chunk_results for t in chunk]
        result = self._assemble(instance, algorithm, triples)
        events = self.fault_log.since(mark)
        if events:
            result.fault_log = events
        return result

    def run_trial_batch(
        self,
        problem,
        instance_factory,
        algorithm: ProbeAlgorithm,
        trial_indices: Sequence[int],
        *,
        base_seed: int = 0,
        max_volume: Optional[int] = None,
        max_queries: Optional[int] = None,
    ) -> List[TrialOutcome]:
        """Fan the trials out over the pool; merged in index order.

        Each worker amortizes repeated instances through its own
        :class:`BatchBackend`; trial seeds depend only on the indices, so
        the merged outcome list is identical to the serial one.
        """
        indices = list(trial_indices)
        chunks = self._chunk(indices)

        def _local() -> List[TrialOutcome]:
            with BatchBackend(compiled=self.compiled) as batch:
                return _trial_outcomes(
                    batch,
                    problem,
                    instance_factory,
                    algorithm,
                    indices,
                    base_seed,
                    max_volume,
                    max_queries,
                )

        if self.workers == 1 or len(chunks) <= 1:
            return _local()
        self._dispatches += 1
        scope = f"trials:{self._dispatches}"
        handle = None
        payloads: List[bytes] = []
        if (
            self.shared_memory
            and self.compiled
            and isinstance(instance_factory, FixedInstanceFactory)
            # A fixed *spec* ships as its own O(1) payload (see run()).
            and not isinstance(instance_factory.instance, InstanceSpec)
        ):
            # Fixed-instance trial streams (the Monte-Carlo engine's
            # common shape) share one instance across every trial:
            # publish it once, fan out O(1) handles.
            handle = self._publish(instance_factory.instance, scope)
        if handle is not None:
            try:
                payloads = [
                    pickle.dumps(
                        (
                            handle,
                            problem,
                            algorithm,
                            chunk,
                            base_seed,
                            max_volume,
                            max_queries,
                        )
                    )
                    for chunk in chunks
                ]
            except Exception:
                self._unpublish(handle)
                handle = None
                payloads = []
        if handle is None:
            try:
                payloads = [
                    pickle.dumps(
                        (
                            problem,
                            instance_factory,
                            algorithm,
                            chunk,
                            base_seed,
                            max_volume,
                            max_queries,
                            self.compiled,
                        )
                    )
                    for chunk in chunks
                ]
            except Exception:
                # Unpicklable factory/problem (lambdas, local classes): the
                # parallel path is an optimization, not a requirement.
                return _local()
        def _pickle_payload(chunk: list) -> bytes:
            return pickle.dumps(
                (
                    problem,
                    instance_factory,
                    algorithm,
                    chunk,
                    base_seed,
                    max_volume,
                    max_queries,
                    self.compiled,
                )
            )

        def _serial_chunk(chunk: list) -> List[TrialOutcome]:
            with BatchBackend(compiled=self.compiled) as batch:
                return _trial_outcomes(
                    batch,
                    problem,
                    instance_factory,
                    algorithm,
                    chunk,
                    base_seed,
                    max_volume,
                    max_queries,
                )

        try:
            if self.supervised:
                chunk_results = self._dispatch_supervised(
                    scope,
                    chunks,
                    "pickle" if handle is None else "shm",
                    payloads,
                    {"shm": _run_trials_shm, "pickle": _run_trials},
                    _pickle_payload,
                    _serial_chunk,
                    base_seed,
                )
            else:
                worker = _run_trials if handle is None else _run_trials_shm
                futures = [self._pool().submit(worker, p) for p in payloads]
                # submission order == trial index order
                chunk_results = [future.result() for future in futures]
        finally:
            if handle is not None:
                self._unpublish(handle)
        outcomes: List[TrialOutcome] = []
        for chunk in chunk_results:
            outcomes.extend(chunk)
        return outcomes

    # ------------------------------------------------------------------
    def close(self) -> None:
        while self._live_handles:
            self._unpublish(self._live_handles.pop())
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _publish(self, instance, scope: str = "publish"):
        """Publish ``instance`` to shared memory; ``None`` = use pickle."""
        if self._injector is not None:
            fault = self._injector.fault_for(
                scope, -1, 0, allowed=("shm-publish-fail",)
            )
            if fault is not None:
                self.fault_log.record(
                    FaultEvent(
                        "injected:shm-publish-fail", scope, -1, 0, "injected"
                    )
                )
                self.fault_log.record(
                    FaultEvent(
                        "shm-publish",
                        scope,
                        -1,
                        0,
                        "fallback:pickle",
                        "injected publish failure",
                    )
                )
                return None
        try:
            handle = shm_layer.publish_instance(instance)
        except shm_layer.ShmPublishError as exc:
            # /dev/shm missing, full, or too small for the instance:
            # results are identical over pickle, so degrade — but say so
            # (once per process), because the slowdown is actionable.
            _warn_shm_fallback(exc)
            self.fault_log.record(
                FaultEvent(
                    "shm-publish", scope, -1, 0, "fallback:pickle", str(exc)
                )
            )
            return None
        except Exception:
            # Unshareable instance (ids outside int64, unpicklable aux,
            # a graph that refuses to freeze): shared memory is an
            # optimization, not a requirement.
            return None
        self._live_handles.add(handle)
        return handle

    def _unpublish(self, handle) -> None:
        self._live_handles.discard(handle)
        shm_layer.unpublish(handle)

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def _chunk(self, items: List[int]) -> List[List[int]]:
        """Contiguous chunks; ~4 per worker to smooth uneven node costs.

        A tiny trailing remainder (fewer than ``size // 2`` items) would
        cost a whole dispatch round-trip for almost no work, so it is
        merged into the previous chunk instead — the partition stays
        contiguous and ordered, so merged results are unchanged.
        """
        if not items:
            return []
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            size = max(1, -(-len(items) // (self.workers * 4)))
        chunks = [items[i : i + size] for i in range(0, len(items), size)]
        if len(chunks) > 1 and len(chunks[-1]) < size // 2:
            tail = chunks.pop()
            chunks[-1] = chunks[-1] + tail
        return chunks


_DEFAULT_BACKEND = SerialBackend()

#: The backend spec-string grammar, quoted by every parse error::
#:
#:     spec      := "serial" | "reference" | "batch" | "process" pool?
#:     pool      := ":" workers? transport?
#:     workers   := integer >= 1
#:     transport := ":" ("shm" | "pickle")
BACKEND_SPEC_GRAMMAR = (
    "'serial', 'reference', 'batch', 'process', 'process:N', or "
    "'process:N:shm'/'process:N:pickle'"
)


@dataclass(frozen=True)
class BackendSpec:
    """A parsed backend spec string — the value form of the grammar.

    ``kind`` is one of ``serial`` / ``reference`` / ``batch`` /
    ``process``; ``workers`` and ``transport`` (``"shm"`` or
    ``"pickle"``) apply only to ``process``.  ``str()`` renders the
    canonical spec string, and ``parse_backend_spec(str(spec)) == spec``
    for every valid value; :meth:`make` builds the backend it names.
    """

    kind: str
    workers: Optional[int] = None
    transport: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("serial", "reference", "batch", "process"):
            raise ValueError(
                f"unknown backend kind {self.kind!r} "
                f"(expected {BACKEND_SPEC_GRAMMAR})"
            )
        if self.kind != "process":
            if self.workers is not None or self.transport is not None:
                raise ValueError(
                    f"backend kind {self.kind!r} takes no workers or "
                    "transport (only 'process' does)"
                )
            return
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be positive")
        if self.transport not in (None, "shm", "pickle"):
            raise ValueError(
                f"unknown transport {self.transport!r} "
                "(expected 'shm' or 'pickle')"
            )

    def __str__(self) -> str:
        if self.kind != "process":
            return self.kind
        spec = "process"
        if self.workers is not None or self.transport is not None:
            spec += f":{self.workers if self.workers is not None else ''}"
        if self.transport is not None:
            spec += f":{self.transport}"
        return spec

    def make(self) -> ExecutionBackend:
        """Construct the backend this spec names (a fresh instance)."""
        if self.kind == "serial":
            return SerialBackend()
        if self.kind == "reference":
            return SerialBackend(compiled=False)
        if self.kind == "batch":
            return BatchBackend()
        return ProcessPoolBackend(
            workers=self.workers,
            shared_memory=self.transport != "pickle",
        )


def parse_backend_spec(spec: str) -> BackendSpec:
    """Parse a backend spec string into a :class:`BackendSpec`.

    The grammar is ``'serial' | 'reference' | 'batch' |
    'process[:N[:shm|:pickle]]'`` (:data:`BACKEND_SPEC_GRAMMAR`); every
    rejection is a ``ValueError`` naming the offending spec and the
    grammar.  ``str()`` of the returned value round-trips to the
    canonical spec string.
    """
    if not isinstance(spec, str):
        raise TypeError(
            f"backend spec must be a string, got {type(spec).__name__}"
        )
    name, sep, arg = spec.partition(":")
    if name == "process":
        count, _, transport = arg.partition(":")
        if transport not in ("", "shm", "pickle"):
            raise ValueError(
                f"bad transport in backend spec {spec!r} "
                "(expected 'process:N:shm' or 'process:N:pickle')"
            )
        try:
            workers = int(count) if count else None
        except ValueError:
            raise ValueError(
                f"bad worker count in backend spec {spec!r} "
                "(expected 'process:N' with integer N)"
            ) from None
        if workers is not None and workers < 1:
            raise ValueError(
                f"bad worker count in backend spec {spec!r} "
                "(expected 'process:N' with integer N)"
            )
        return BackendSpec("process", workers, transport or None)
    if name in ("serial", "reference", "batch"):
        if sep:
            raise ValueError(
                f"backend {name!r} takes no arguments in spec {spec!r} "
                f"(the grammar is {BACKEND_SPEC_GRAMMAR})"
            )
        return BackendSpec(name)
    raise ValueError(
        f"unknown execution backend {spec!r} "
        f"(expected {BACKEND_SPEC_GRAMMAR})"
    )


def get_backend(spec=None) -> ExecutionBackend:
    """Resolve a backend argument: instance, spec string, or ``None``.

    Spec strings follow :func:`parse_backend_spec`'s grammar: ``"serial"``,
    ``"batch"``, ``"process"``, and ``"process:N"`` for an N-worker pool —
    all of which use the compiled instance fast path — plus
    ``"reference"``, the uncompiled reference engine (``StaticOracle`` +
    BFS ``DIST``; bitwise-identical results).  ``"process:N:shm"`` /
    ``"process:N:pickle"`` pin the pool's instance transport (shared
    memory is the default); results are identical either way.  ``None``
    means the shared default :class:`SerialBackend`.
    """
    if spec is None:
        return _DEFAULT_BACKEND
    if isinstance(spec, ExecutionBackend):
        return spec
    if isinstance(spec, BackendSpec):
        return spec.make()
    if isinstance(spec, str):
        return parse_backend_spec(spec).make()
    raise ValueError(
        f"unknown execution backend {spec!r} "
        f"(expected an ExecutionBackend, {BACKEND_SPEC_GRAMMAR})"
    )
