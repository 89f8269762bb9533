"""``repro.serve`` — the async solve-and-check service and its load harness.

The production framing of the ROADMAP's north star: a long-running
asyncio HTTP/JSON service (:mod:`repro.serve.service`) exposing the
registry — solve-and-check a cell, Monte-Carlo-estimate a success rate,
play an adversary budget point — behind a scheduler
(:mod:`repro.serve.scheduler`) that answers repeats bitwise-identically
from the result store on the event loop, runs every other job on one
worker thread that owns one shared execution backend,
and rejects overload with explicit backpressure.  The deterministic
load generator (:mod:`repro.serve.load`) turns "heavy traffic" into a
CI-gated number: p50/p95/p99 latency, requests/sec and store hit rate
in the bench artifact's ``serving`` section.
"""

from repro.serve.http import (
    HttpProtocolError,
    Request,
    Response,
    canonical_json,
    json_response,
    read_request,
)
from repro.serve.load import LoadConfig, LoadReport, run_load
from repro.serve.scheduler import (
    Backpressure,
    BatchScheduler,
    JobResult,
    SchedulerClosed,
    ServeStats,
)
from repro.serve.service import (
    ReproService,
    ServeConfig,
    ServerThread,
    request_key,
    run_server,
)

__all__ = [
    "Backpressure",
    "BatchScheduler",
    "HttpProtocolError",
    "JobResult",
    "LoadConfig",
    "LoadReport",
    "ReproService",
    "Request",
    "Response",
    "SchedulerClosed",
    "ServeConfig",
    "ServeStats",
    "ServerThread",
    "canonical_json",
    "json_response",
    "read_request",
    "request_key",
    "run_server",
]
