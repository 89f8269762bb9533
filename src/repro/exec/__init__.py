"""Execution subsystem: pluggable backends and sweep orchestration.

The science code (model / problems / algorithms) defines what a run *is*;
this package decides how runs are *dispatched* — serially, over a process
pool, or batched with shared oracles — and orchestrates whole sweeps of
runs declaratively.  See README.md ("Choosing a backend") for the guide.
"""

from repro.exec.backends import (
    BatchBackend,
    ExecutionBackend,
    FixedInstanceFactory,
    ProcessPoolBackend,
    SerialBackend,
    get_backend,
)
from repro.exec.shm import (
    ShmInstanceHandle,
    ShmPublishError,
    attach_instance,
    attached_instance,
    publish_instance,
    published_segments,
    unpublish,
    unpublish_all,
)
from repro.exec.sweep import (
    InstanceFamily,
    SweepPoint,
    SweepResult,
    SweepSpec,
    run_sweep,
    run_sweeps,
)

__all__ = [
    "BatchBackend",
    "ExecutionBackend",
    "FixedInstanceFactory",
    "InstanceFamily",
    "ProcessPoolBackend",
    "SerialBackend",
    "ShmInstanceHandle",
    "ShmPublishError",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "attach_instance",
    "attached_instance",
    "get_backend",
    "publish_instance",
    "published_segments",
    "run_sweep",
    "run_sweeps",
    "unpublish",
    "unpublish_all",
]
