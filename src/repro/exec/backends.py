"""Pluggable execution backends for whole-instance runs.

The model layer defines *what* one per-node execution is
(:func:`~repro.model.probe.execute_at`); this module defines *how* the
executions of a whole-instance run are dispatched.  Two strategies:

* :class:`SerialBackend` — one process, nodes in iteration order.  This
  is the default everywhere and is what the paper's definitions
  describe (``SerialBackend(compiled=False)`` is the uncompiled
  *reference path*, see below).  It keeps the oracle of the instance it
  ran last, so repeated runs over one instance (trial batches,
  ablations, the trial loop of
  :func:`~repro.model.runner.success_probability`) build it once.
* :class:`ProcessPoolBackend` — chunked fan-out of start nodes (or of
  trials) over a ``concurrent.futures`` process pool.  Results are
  merged back in the original order, so the returned
  :class:`~repro.model.runner.RunResult` is **bitwise identical** to
  the serial one.

Why parallel fan-out is sound here: a node's random tape is seeded by the
string ``repro-tape:{seed}:{node_id}`` (see
:class:`~repro.model.randomness.TapeStore`), so the bits any execution
reads depend only on ``(seed, node_id, index)`` — never on which process
generates them or in what order executions run.  Each worker rebuilds its
own :class:`TapeStore` from the same seed and observes exactly the bits
the shared serial store would have produced.

Every backend **auto-compiles** static instances by default: the instance
is compiled once per run of a new instance (so once per
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

* **Batched runs** — unbudgeted runs of algorithms that implement
  :meth:`~repro.model.probe.ProbeAlgorithm.run_node_batch` skip the
  per-node loop: the full-gather family advances over the CSR arrays
  directly (:mod:`repro.model.batched`) instead of through per-query
  :class:`~repro.model.probe.ProbeView` bookkeeping, the cycle
  algorithms answer a port-uniform cycle from one execution and one
  pass over its ring, and the leaf-coloring random walks, the
  deterministic tree-distance solvers (LeafColoring, BalancedTree,
  Hybrid-THC, HH-THC) and the THC family's recursive and waypoint
  solvers replay their one scalar body over the compiled oracle's tree
  table, the randomized ones reading the run's own tape store.
* **Zero-copy shared memory** — for a node run of a materialized
  instance, :class:`ProcessPoolBackend` publishes the frozen instance
  once per dispatch into a :mod:`multiprocessing.shared_memory` segment
  (:mod:`repro.exec.shm`) and ships only an O(1)
  :class:`~repro.exec.shm.ShmInstanceHandle` plus chunk indices to
  workers, which attach zero-copy and cache the compiled oracle per
  process.  Everything else — an :class:`~repro.model.implicit.InstanceSpec`
  (already an O(1) payload), a trial batch, the reference engine, and
  any dispatch whose publish or attach failed — ships by pickle, with
  bit-identical results.  The segment is unlinked in a ``finally`` on
  every dispatch, with an ``atexit`` backstop.

An entry point that takes a backend argument resolves it through
:func:`owned_backend`: a spec string (or ``None``) builds a backend the
entry point closes on return, and a backend object stays the caller's.

One shortcut sits in the trial loop every backend and pool worker runs:
a fixed-instance trial that read no random bit has the same outcome
under every seed, so the rest of its batch reuses it instead of
executing again (:func:`_trial_outcomes`).  A pool runs the first trial
of a fixed-instance batch in-process for the same reason, and fans out
only the rest of a batch whose first trial read a bit.

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
import contextlib
import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exec import shm as shm_layer
from repro.faults.plan import ShmAttachError, wrap_payload
from repro.faults.retry import FaultEvent, FaultLog, RetryPolicy
from repro.graphs.labelings import Instance
from repro.graphs.tree_structure import InstanceTopology
from repro.model.implicit import InstanceSpec, as_oracle, iter_node_ids
from repro.model.oracle import CompiledOracle
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
    tapes = TapeStore(seed) if algorithm.is_randomized else None
    if (
        distance_mode == "incremental"
        and max_volume is None
        and max_queries is None
    ):
        # Batched fast path: only for unbudgeted runs on the compiled
        # engine (truncation semantics stay with the scalar loop below,
        # which is also the reference path `distance_mode="reference"`
        # always takes).  A randomized batch reads the run's own tapes.
        batched = algorithm.run_node_batch(oracle, nodes, tapes)
        if batched is not None:
            return batched
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
    """Worker entry point: one contiguous chunk of start nodes.

    The source is the pickled instance (or spec) itself, or the O(1)
    :class:`~repro.exec.shm.ShmInstanceHandle` of a published one; an
    attachment (zero-copy CSR views + compiled oracle) is cached per
    worker process, so every chunk after a worker's first is pure
    dispatch.
    """
    (
        source,
        algorithm,
        nodes,
        seed,
        max_volume,
        max_queries,
        compiled,
    ) = pickle.loads(payload)
    if isinstance(source, shm_layer.ShmInstanceHandle):
        _, oracle = shm_layer.attached_instance(source)
    else:
        oracle = _make_oracle(source, compiled)
    return _execute_nodes(
        oracle,
        algorithm,
        nodes,
        seed,
        max_volume,
        max_queries,
        distance_mode="incremental" if compiled else "reference",
    )


class FixedInstanceFactory:
    """``instance_factory(trial) -> instance`` for a fixed instance.

    Module-level and attribute-only, so it pickles into process-pool
    workers (a lambda closing over the instance would not).  Lives here
    (rather than the Monte-Carlo engine that popularized it) so the
    trial loop can recognize fixed-instance batches — it validates them
    through one topology and reuses a trial that read no random bit —
    and the process pool can answer one whose first trial read no bit
    in-process; re-exported unchanged from :mod:`repro.montecarlo.engine`.
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
    and ``seed`` instead of executing again.  Every trial of a fixed
    instance is validated through one topology, built (and a spec
    materialized) once per batch by the backend (DESIGN.md §8.2).
    """
    from repro.model.runner import solve_and_check

    fixed = isinstance(instance_factory, FixedInstanceFactory)
    seed_free: Optional[TrialOutcome] = None
    topology = None
    outcomes: List[TrialOutcome] = []
    for trial in trial_indices:
        seed = base_seed + trial
        if seed_free is not None:
            outcomes.append(replace(seed_free, trial=trial, seed=seed))
            continue
        source = instance_factory(trial)
        if topology is None or not fixed:
            topology = backend.validation_topology(source)
        report = solve_and_check(
            problem,
            source,
            algorithm,
            seed=seed,
            max_volume=max_volume,
            max_queries=max_queries,
            backend=backend,
            topology=topology,
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
    # One serial backend compiles a repeated instance once per chunk.
    with SerialBackend(compiled=compiled) as backend:
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

    def validation_topology(self, source) -> InstanceTopology:
        """The topology :func:`~repro.model.runner.solve_and_check`
        validates ``source`` through on this backend.

        By default a fresh one from
        :func:`~repro.model.runner.validation_topology`, which
        materializes a spec and refuses one too large to validate.
        """
        from repro.model.runner import validation_topology

        return validation_topology(source)

    # Backends that hold resources (a pool, a kept oracle) override these.
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

    ``compiled=True`` (the default) uses the compiled oracle and the
    incremental-DIST engine; ``compiled=False`` is the *reference path*
    — ``StaticOracle`` plus BFS-on-demand ``DIST`` — with
    bitwise-identical results.

    The backend keeps the oracle of the instance it ran last and reuses
    it while the next run's source is the same object, so callers that
    rerun one instance (trial batches, adaptive Monte-Carlo batches,
    ablations, a pool worker's trial chunk) build it once; a run of
    another instance replaces it, and :meth:`close` drops it.  A kept
    oracle holds its instance alive, which also keeps the identity check
    sound.  A compiled oracle is a snapshot, so it is reused only while
    the instance still holds the graph and labeling it compiled and
    neither has been mutated through its own methods
    (:meth:`~repro.model.oracle.CompiledOracle.is_current`): an
    ``add_edge``, a ``labeling[v] = label`` or a replaced
    ``instance.labeling`` compiles afresh.  A
    :class:`~repro.graphs.labelings.NodeLabel` edited in place is not
    seen; replace the label object instead.

    A compiled backend validates a materialized instance through its kept
    oracle (:meth:`validation_topology`): the compile happens there,
    before the run, and the run reuses it.
    """

    name = "serial"

    def __init__(self, compiled: bool = True) -> None:
        self.compiled = compiled
        self._oracle = None
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

    def validation_topology(self, source) -> InstanceTopology:
        """A compiled backend's topology for a materialized instance is
        its kept oracle's (compiling it if need be): the labels and port
        rows come from the oracle's tables, and the ``is_internal``
        verdicts its tree table computed are already in the memo."""
        if self.compiled and isinstance(source, Instance):
            return self._oracle_for(source).validation_topology()
        return super().validation_topology(source)

    def _oracle_for(self, instance):
        oracle = self._oracle
        if (
            oracle is None
            or oracle.instance is not instance
            or (isinstance(oracle, CompiledOracle) and not oracle.is_current())
        ):
            oracle = self._oracle = _make_oracle(instance, self.compiled)
        return oracle

    def close(self) -> None:
        self._oracle = None


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
        f"({type(exc).__name__}: {exc}); node runs fall back to the "
        "pickle transport for this and future dispatches needing it. "
        "Results are identical, only slower; free /dev/shm space to "
        "restore the zero-copy path.",
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

    The workload picks the transport.  A node run of a materialized
    instance on the compiled path is *published once per dispatch* to a
    shared-memory segment and chunks carry only an O(1) handle; workers
    attach zero-copy and cache the compiled oracle per process.  The
    segment is unlinked in a ``finally`` whether the dispatch succeeds
    or a worker raises.  A spec, a trial batch, the reference path
    (``compiled=False``) and a dispatch whose publish failed ship their
    chunks by pickle; results are identical either way.

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
        worker: Callable[[bytes], list],
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
                submit, blob = worker, blobs[idx]
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
                        submit, blob = wrap_payload(
                            fault, injector.plan, worker, blob
                        )
                try:
                    future = self._pool().submit(submit, blob)
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
    def _fan_out(
        self,
        kind: str,
        items: list,
        seed: int,
        worker: Callable[[bytes], list],
        pack: Callable[[list, object], tuple],
        serial_chunk: Callable[[list], list],
        shared=None,
    ) -> list:
        """Run ``items`` in chunks over the pool; results in item order.

        ``pack(chunk, handle)`` is one chunk's payload tuple for
        ``worker``; ``handle`` is the shared-memory handle of ``shared``
        when that instance was published, ``None`` on the pickle
        transport.  ``serial_chunk(items)`` runs items in-process: the
        whole list when the pool cannot help (one worker, one chunk, or
        work that cannot be pickled), a single chunk when supervision
        degrades it.
        """
        chunks = self._chunk(items)
        if self.workers == 1 or len(chunks) <= 1:
            return serial_chunk(items)
        self._dispatches += 1
        scope = f"{kind}:{self._dispatches}"
        handle = None if shared is None else self._publish(shared, scope)
        try:
            try:
                payloads = [
                    pickle.dumps(pack(chunk, handle)) for chunk in chunks
                ]
            except Exception:
                # Unpicklable work (local classes, lambdas): the parallel
                # path is an optimization, not a requirement.
                payloads = None
            if payloads is not None and self.supervised:
                chunk_results = self._dispatch_supervised(
                    scope,
                    chunks,
                    "pickle" if handle is None else "shm",
                    payloads,
                    worker,
                    lambda chunk: pickle.dumps(pack(chunk, None)),
                    serial_chunk,
                    seed,
                )
            elif payloads is not None:
                futures = [self._pool().submit(worker, p) for p in payloads]
                chunk_results = [future.result() for future in futures]
        finally:
            if handle is not None:
                self._unpublish(handle)
        if payloads is None:
            return serial_chunk(items)
        # submission order == original item order
        return [item for chunk in chunk_results for item in chunk]

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
        mark = len(self.fault_log)
        local = SerialBackend(compiled=self.compiled)

        def serial_chunk(chunk: list) -> list:
            return _execute_nodes(
                local._oracle_for(instance),
                algorithm,
                chunk,
                seed,
                max_volume,
                max_queries,
                distance_mode=local._distance_mode,
            )

        triples = self._fan_out(
            "run",
            self._resolve_nodes(instance, nodes),
            seed,
            _run_chunk,
            lambda chunk, handle: (
                instance if handle is None else handle,
                algorithm,
                chunk,
                seed,
                max_volume,
                max_queries,
                self.compiled,
            ),
            serial_chunk,
            # An InstanceSpec is already an O(1) payload — pickling it per
            # chunk beats publishing (there is no graph to share); each
            # worker serves its chunk from its own ImplicitOracle.
            shared=(
                instance
                if self.compiled and not isinstance(instance, InstanceSpec)
                else None
            ),
        )
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
        """Fan the trials out over the pool by pickle; merged in index order.

        Each worker runs its chunk on one :class:`SerialBackend`, which
        compiles a repeated instance once; trial seeds depend only on the
        indices, so the merged outcome list is identical to the serial
        one.  On a fixed instance the first trial runs in-process: if it
        read no random bit, every other seed gives its outcome
        (:func:`_trial_outcomes`), so it answers the whole batch without
        the pool; otherwise the remaining trials fan out.
        """
        indices = list(trial_indices)
        local = SerialBackend(compiled=self.compiled)

        def serial_chunk(chunk: list) -> List[TrialOutcome]:
            return _trial_outcomes(
                local,
                problem,
                instance_factory,
                algorithm,
                chunk,
                base_seed,
                max_volume,
                max_queries,
            )

        head: List[TrialOutcome] = []
        if indices and isinstance(instance_factory, FixedInstanceFactory):
            head = serial_chunk(indices[:1])
            indices = indices[1:]
            if head[0].random_bits == 0:
                return head + [
                    replace(head[0], trial=trial, seed=base_seed + trial)
                    for trial in indices
                ]
        return head + self._fan_out(
            "trials",
            indices,
            base_seed,
            _run_trials,
            lambda chunk, handle: (
                problem,
                instance_factory,
                algorithm,
                chunk,
                base_seed,
                max_volume,
                max_queries,
                self.compiled,
            ),
            serial_chunk,
        )

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


#: The backend spec-string grammar, quoted by every parse error::
#:
#:     spec    := "serial" | "reference" | "process" (":" workers)?
#:     workers := integer >= 1
BACKEND_SPEC_GRAMMAR = "'serial', 'reference', 'process', or 'process:N'"


@dataclass(frozen=True)
class BackendSpec:
    """A parsed backend spec string — the value form of the grammar.

    ``kind`` is one of ``serial`` / ``reference`` / ``process``;
    ``workers`` applies only to ``process``.  ``str()`` renders the
    canonical spec string, and ``parse_backend_spec(str(spec)) == spec``
    for every valid value; :meth:`make` builds the backend it names.
    """

    kind: str
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("serial", "reference", "process"):
            raise ValueError(
                f"unknown backend kind {self.kind!r} "
                f"(expected {BACKEND_SPEC_GRAMMAR})"
            )
        if self.kind != "process":
            if self.workers is not None:
                raise ValueError(
                    f"backend kind {self.kind!r} takes no workers "
                    "(only 'process' does)"
                )
            return
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be positive")

    def __str__(self) -> str:
        if self.workers is None:
            return self.kind
        return f"{self.kind}:{self.workers}"

    def make(self) -> ExecutionBackend:
        """Construct the backend this spec names (a fresh instance)."""
        if self.kind == "serial":
            return SerialBackend()
        if self.kind == "reference":
            return SerialBackend(compiled=False)
        return ProcessPoolBackend(workers=self.workers)


def parse_backend_spec(spec: str) -> BackendSpec:
    """Parse a backend spec string into a :class:`BackendSpec`.

    The grammar is ``'serial' | 'reference' | 'process[:N]'``
    (:data:`BACKEND_SPEC_GRAMMAR`); every rejection is a ``ValueError``
    naming the offending spec and the grammar.  ``str()`` of the
    returned value round-trips to the canonical spec string.
    """
    if not isinstance(spec, str):
        raise TypeError(
            f"backend spec must be a string, got {type(spec).__name__}"
        )
    name, sep, count = spec.partition(":")
    if name == "process":
        try:
            workers = int(count) if count else None
        except ValueError:
            workers = 0
        if workers is not None and workers < 1:
            raise ValueError(
                f"bad worker count in backend spec {spec!r} "
                f"(expected {BACKEND_SPEC_GRAMMAR} with integer N >= 1)"
            )
        return BackendSpec("process", workers)
    if name in ("serial", "reference"):
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
    ``"process"``, and ``"process:N"`` for an N-worker pool — all of
    which use the compiled instance fast path — plus ``"reference"``,
    the uncompiled reference engine (``StaticOracle`` + BFS ``DIST``;
    bitwise-identical results).  ``None`` means a fresh
    :class:`SerialBackend`, so a default call keeps no instance alive
    once it returns.
    """
    if spec is None:
        return SerialBackend()
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


@contextlib.contextmanager
def owned_backend(spec=None) -> Iterator[ExecutionBackend]:
    """:func:`get_backend`'s backend for the ``with`` block, closed at
    its end if it was built here.

    A backend object passed in is the caller's and stays open.  Anything
    else (a spec string, a :class:`BackendSpec`, ``None``) builds a
    fresh backend that nobody else holds, so the block closes it on the
    way out, exceptions included: a process pool left open keeps its
    workers, and any shared-memory segment it published, alive until
    the cyclic garbage collector finds it.
    """
    backend = get_backend(spec)
    try:
        yield backend
    finally:
        if backend is not spec:
            backend.close()
