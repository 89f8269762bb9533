"""The chaos harness: run a workload under faults, prove nothing changed.

The fault-tolerance contract has two halves — *results* (a supervised
run that survives injected faults is bitwise-identical to the fault-free
run, because every re-dispatched unit is a pure function of its seeds)
and *resources* (no shared-memory segment outlives the run, no matter
which failure path retired it).  :func:`run_chaos` checks both for one
workload × one :class:`~repro.faults.plan.FaultPlan`:

1. execute the workload fault-free on :class:`SerialBackend` (the
   reference semantics every backend must match);
2. execute it again on a supervised :class:`ProcessPoolBackend` with the
   plan's :class:`~repro.faults.plan.FaultInjector` active — the pool
   picks the transport (a node run of a materialized instance goes by
   shared memory unless the plan fails its publish; a spec goes by
   pickle; a trial batch runs its first trial in-process and ships the
   rest by pickle unless that trial read no random bit), and the report
   names the path it took;
3. compare outputs/profiles (or per-trial outcomes) for bit equality,
   and assert the shared-memory registry and ``/dev/shm`` are exactly
   as they started.

``repro chaos`` (:mod:`repro.cli.chaos`) and the chaos property suite
(``tests/faults``) are thin wrappers over this function.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exec import shm as shm_layer
from repro.exec.backends import (
    FixedInstanceFactory,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.retry import FaultLog, RetryPolicy
from repro.model.implicit import InstanceSpec


def shm_entries() -> "set[str]":
    """Current ``psm_*`` segment files (empty on non-POSIX-shm hosts)."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-POSIX host
        return set()


def _transport(
    instance,
    workers: int,
    trials: Optional[int],
    seed_free: bool,
    fault_log: FaultLog,
) -> str:
    """The path the pool picked for a chaotic job's chunks.

    A one-worker pool, and a fixed-instance trial batch whose first
    trial read no random bit (``seed_free``: one execution answers it),
    run in-process.  Any other trial batch and a spec ship by pickle; a
    node run of a materialized instance ships by shared memory unless
    its publish failed (the pool then logs a ``shm-publish`` fallback).
    Chunks that supervision degraded later show up in the fault log,
    not here.
    """
    if workers == 1 or seed_free:
        return "in-process"
    if trials is not None or isinstance(instance, InstanceSpec):
        return "pickle"
    if any(event.kind == "shm-publish" for event in fault_log):
        return "pickle"
    return "shm"


@dataclass
class ChaosReport:
    """One chaos run's verdicts and evidence.

    ``transport`` is the path the pool picked for the job's chunks:
    ``"shm"``, ``"pickle"`` or ``"in-process"``.
    """

    workload: str
    transport: str
    plan: FaultPlan
    equal: bool
    shm_clean: bool
    injected: int
    fault_log: FaultLog = field(default_factory=FaultLog)
    leaked: List[str] = field(default_factory=list)
    baseline_s: float = 0.0
    chaos_s: float = 0.0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.equal and self.shm_clean

    def to_payload(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "transport": self.transport,
            "plan": self.plan.describe(),
            "ok": self.ok,
            "equal": self.equal,
            "shm_clean": self.shm_clean,
            "injected": self.injected,
            "events": self.fault_log.to_payload(),
            "leaked": list(self.leaked),
            "baseline_s": self.baseline_s,
            "chaos_s": self.chaos_s,
            "detail": self.detail,
        }

    def format_line(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        notes = []
        if not self.equal:
            notes.append("results diverged")
        if not self.shm_clean:
            notes.append(f"shm residue: {self.leaked}")
        suffix = f" ({'; '.join(notes)})" if notes else ""
        return (
            f"{verdict}  {self.workload} [{self.transport}] "
            f"plan(seed={self.plan.seed}, rate={self.plan.rate:g}) "
            f"injected={self.injected} handled=[{self.fault_log.summary()}] "
            f"{self.chaos_s:.2f}s vs {self.baseline_s:.2f}s clean{suffix}"
        )


def run_chaos(
    problem,
    instance,
    algorithm,
    *,
    plan: FaultPlan,
    workers: int = 2,
    seed: int = 0,
    trials: Optional[int] = None,
    chunk_size: Optional[int] = None,
    timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
) -> ChaosReport:
    """Run one workload under ``plan`` and verify nothing observable changed.

    ``trials=None`` runs the whole-instance workload (``backend.run``
    from every node); ``trials=k`` runs a fixed-instance solve-and-check
    trial batch instead (the Monte-Carlo shape — this is the only mode
    that needs ``problem``; pass ``problem=None`` otherwise).  A small
    ``chunk_size`` forces several chunks even on tiny test instances so
    faults have distinct units to hit.
    """
    if retry is None:
        # Chaos runs must outlast the plan's worst case: give every
        # stage at least one attempt beyond the last faultable one.
        retry = RetryPolicy(max_attempts=plan.max_attempt + 2)
    before = shm_entries()
    serial = SerialBackend()
    if trials is None:
        started = time.perf_counter()
        baseline = serial.run(instance, algorithm, seed=seed)
        baseline_s = time.perf_counter() - started
        seed_free = False
    else:
        factory = FixedInstanceFactory(instance)
        started = time.perf_counter()
        baseline = serial.run_trial_batch(
            problem, factory, algorithm, range(trials), base_seed=seed
        )
        baseline_s = time.perf_counter() - started
        seed_free = bool(baseline) and baseline[0].random_bits == 0
    injector = FaultInjector(plan)
    pool = ProcessPoolBackend(
        workers=workers,
        chunk_size=chunk_size,
        timeout=timeout,
        retry=retry,
        fault_injector=injector,
    )
    detail = ""
    try:
        started = time.perf_counter()
        if trials is None:
            chaotic = pool.run(instance, algorithm, seed=seed)
            equal = (
                chaotic.outputs == baseline.outputs
                and chaotic.profiles == baseline.profiles
            )
        else:
            chaotic = pool.run_trial_batch(
                problem,
                FixedInstanceFactory(instance),
                algorithm,
                range(trials),
                base_seed=seed,
            )
            equal = chaotic == baseline
        chaos_s = time.perf_counter() - started
        fault_log = pool.fault_log.since(0)
    except Exception as exc:  # a chaos run must never crash the harness
        chaos_s = time.perf_counter() - started
        equal = False
        detail = f"chaos run raised {type(exc).__name__}: {exc}"
        fault_log = pool.fault_log.since(0)
    finally:
        pool.close()
    leaked = sorted(
        (shm_entries() - before) | set(shm_layer.published_segments())
    )
    name = getattr(instance, "name", type(instance).__name__)
    workload = (
        f"run[{name}]" if trials is None else f"trials[{name}]x{trials}"
    )
    return ChaosReport(
        workload=workload,
        transport=_transport(instance, workers, trials, seed_free, fault_log),
        plan=plan,
        equal=equal,
        shm_clean=not leaked,
        injected=len(injector.fired),
        fault_log=fault_log,
        leaked=leaked,
        baseline_s=baseline_s,
        chaos_s=chaos_s,
        detail=detail,
    )


__all__ = ["ChaosReport", "run_chaos", "shm_entries"]
