"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper: it measures the
relevant costs on the instance families the paper's proofs use, fits the
growth class, and prints a paper-claimed vs measured table.  Absolute
numbers are not expected to match the paper (there are none to match —
the results are asymptotic); the *shape* is the reproduction target.

The sweeps themselves are declarative :class:`repro.exec.sweep.SweepSpec`
objects executed by the sweep orchestrator, without a result store:
benches always re-measure.  Two environment knobs:

* ``REPRO_BENCH_BACKEND`` — execution backend for every sweep
  (``serial`` default; ``reference`` / ``process`` / ``process:N``);
* ``REPRO_BENCH_PROGRESS`` — print one line per measured grid point.
"""

from __future__ import annotations

import os
from typing import List, Sequence

import repro.suites as suites
from repro.exec.backends import get_backend
from repro.exec.sweep import (
    InstanceFamily,
    SweepResult,
    SweepSpec,
    run_sweeps,
)
from repro.suites import DIST_CANDIDATES, VOL_CANDIDATES

BACKEND = get_backend(os.environ.get("REPRO_BENCH_BACKEND"))
VERBOSE = bool(os.environ.get("REPRO_BENCH_PROGRESS"))


def banner(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def report_sweeps(specs: Sequence[SweepSpec]) -> List[SweepResult]:
    """Run a batch of sweeps on the configured backend and print rows."""
    progress = print if VERBOSE else None
    results = run_sweeps(specs, BACKEND, progress=progress)
    for result in results:
        print(result.format_row())
    return results


def run_suite(name: str) -> List[SweepResult]:
    """Run a named :mod:`repro.suites` suite on the configured backend.

    The same suite (same specs, families, seeds) is what
    ``repro sweep <name>`` executes, so the table scripts and the CLI
    share one code path.
    """
    return suites.run_suite(
        name,
        backend=BACKEND,
        progress=print if VERBOSE else None,
    )


def once(benchmark, fn):
    """Run a measurement exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


__all__ = [
    "BACKEND",
    "DIST_CANDIDATES",
    "VOL_CANDIDATES",
    "InstanceFamily",
    "SweepSpec",
    "banner",
    "once",
    "report_sweeps",
    "run_suite",
]
