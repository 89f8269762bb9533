"""Fault-tolerant execution: supervision, retry, chaos.

Everything in this package exploits one property the rest of the repo
already guarantees: every unit of work — a chunk of per-node executions,
a solve-and-check trial, a sweep grid point — is a *pure function of its
seeds*.  A lost unit can therefore be re-executed bitwise-identically,
which turns fault tolerance from a consistency problem into a dispatch
problem:

* :mod:`repro.faults.retry` — :class:`RetryPolicy` (bounded retries,
  deterministic backoff jitter) and the structured :class:`FaultLog`
  attached to results that survived faults;
* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultInjector`,
  the seeded deterministic fault schedules the chaos harness injects
  through the backends' zero-overhead-when-off hooks;
* :mod:`repro.faults.chaos` — :func:`run_chaos`, which executes a
  workload under a fault plan and verifies bitwise result equivalence
  plus shared-memory cleanliness.

Crash-safe resume of long runs lives in the result store
(:class:`~repro.corpus.results.ResultStore`): every sweep point and
trial batch commits as it completes, and a re-run replays what is
stored.  See DESIGN.md §11 for the fault model and the determinism
argument.
"""

from repro.faults.plan import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    ShmAttachError,
)
from repro.faults.retry import FaultEvent, FaultLog, RetryPolicy

_CHAOS_EXPORTS = ("ChaosReport", "run_chaos", "shm_entries")


def __getattr__(name: str):
    # repro.faults.chaos imports the backends, which import this package:
    # resolving the chaos surface lazily keeps the import graph acyclic.
    if name in _CHAOS_EXPORTS:
        from repro.faults import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FAULT_KINDS",
    "ChaosReport",
    "FaultEvent",
    "FaultInjector",
    "FaultLog",
    "FaultPlan",
    "InjectedFault",
    "RetryPolicy",
    "ShmAttachError",
    "run_chaos",
    "shm_entries",
]
