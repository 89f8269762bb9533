"""``repro serve`` / ``repro load`` — the service and its load harness.

* ``repro serve`` — run the asyncio HTTP/JSON service in the foreground
  (Ctrl-C to stop): the registry behind ``POST /solve``, ``POST /mc``,
  ``POST /adversary`` and ``GET /registry|/healthz|/stats``, with
  one worker thread, store-backed response caching, and 429
  backpressure (see :mod:`repro.serve`);
* ``repro load`` — drive a running server with the deterministic load
  generator and gate the measured numbers (p99 latency ceiling,
  requests/sec floor, bitwise-identical cache-served repeats), printing
  or writing the same report the bench artifact embeds as its
  ``serving`` section.

Exit codes: 0 success, 1 a load gate failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path
from typing import Dict, Optional


def _serve_config(args: argparse.Namespace):
    from repro.serve.service import ServeConfig

    return ServeConfig(
        host=args.host,
        port=args.port,
        backend=args.backend or "serial",
        store=args.store,
        queue_limit=args.queue_limit,
        default_deadline=args.deadline,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.cli import _fail
    from repro.serve.service import run_server

    try:
        config = _serve_config(args)
        return run_server(config)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


def _load_config(args: argparse.Namespace):
    from repro.serve.load import LoadConfig

    base = LoadConfig()
    if args.quick:
        # The CI preset: small unique set, both probe kinds, and the
        # cache/latency gates armed — the numbers BENCH_repro.json and
        # the serve-smoke job gate on.
        base = LoadConfig(
            requests=24,
            concurrency=4,
            deadline_probes=2,
            burst_probes=16,
            require_cache=True,
        )
    return LoadConfig(
        host=args.host,
        port=args.port,
        requests=args.requests or base.requests,
        concurrency=args.concurrency or base.concurrency,
        mode=args.mode,
        rate=args.rate,
        seed=base.seed if args.seed is None else args.seed,
        deadline_probes=(
            base.deadline_probes
            if args.deadline_probes is None
            else args.deadline_probes
        ),
        burst_probes=(
            base.burst_probes
            if args.burst_probes is None
            else args.burst_probes
        ),
        p99_gate_ms=args.p99_gate,
        min_rps=args.min_rps,
        require_cache=base.require_cache or args.require_cache,
    )


def _print_report(report, printer=print) -> None:
    from repro.cli import format_table

    rows = []
    for phase in report.phases:
        latency = phase.latency_ms()
        rows.append([
            phase.name,
            phase.requests,
            f"{phase.rps:.1f}",
            _ms(latency["p50"]),
            _ms(latency["p95"]),
            _ms(latency["p99"]),
            f"{phase.store_hits}/{phase.requests}",
        ])
    printer(format_table(
        ["phase", "reqs", "req/s", "p50 ms", "p95 ms", "p99 ms", "hits"],
        rows,
    ))
    for name, counts in report.probes.items():
        printer(f"probe {name}: {counts}")
    printer(
        f"repeat phase: identical={report.repeat_identical} "
        f"new_executions={report.repeat_executions}"
    )
    for failure in report.failures:
        printer(f"GATE FAILED: {failure}")
    printer("load: ok" if report.ok else "load: FAILED")


def _ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1f}"


def cmd_load(args: argparse.Namespace) -> int:
    from repro.cli import _fail
    from repro.serve.load import run_load

    try:
        config = _load_config(args)
        report = run_load(config)
    except (ValueError, OSError, ConnectionError) as exc:
        return _fail(str(exc))
    payload = report.to_payload()
    payload["config"] = {
        "requests": config.requests,
        "concurrency": config.concurrency,
        "mode": config.mode,
        "seed": config.seed,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_report(report)
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# the bench artifact's serving section
# ----------------------------------------------------------------------
def serving_record(
    progress=None, store_dir: Optional[str] = None
) -> Dict[str, object]:
    """Measure the service for ``BENCH_repro.json``'s ``serving`` section.

    Spins a store-backed server on an ephemeral port in-process, runs
    the quick load preset against it (cold + repeat phases, deadline and
    burst probes, cache gates armed), and returns the artifact record —
    so every committed artifact carries measured p50/p99, requests/sec,
    and a repeat phase proving the store served bitwise-identical
    responses with zero new executions.
    """
    from repro.serve.load import LoadConfig, run_load
    from repro.serve.service import ServeConfig, ServerThread

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        store = (
            str(Path(store_dir) / "serve_store.sqlite")
            if store_dir
            else str(Path(tmp) / "serve_store.sqlite")
        )
        server_config = ServeConfig(port=0, backend="serial", store=store)
        with ServerThread(server_config) as server:
            host, port = server.address
            if progress is not None:
                progress(f"  serving: measuring http://{host}:{port}")
            load_config = LoadConfig(
                host=host,
                port=port,
                requests=24,
                concurrency=4,
                deadline_probes=2,
                burst_probes=16,
                require_cache=True,
            )
            report = run_load(load_config)
    payload = report.to_payload()
    payload["config"] = {
        "backend": server_config.backend,
        "queue_limit": server_config.queue_limit,
        "requests": load_config.requests,
        "concurrency": load_config.concurrency,
        "mode": load_config.mode,
        "seed": load_config.seed,
    }
    if progress is not None:
        repeat = report.phases[-1]
        latency = repeat.latency_ms()
        progress(
            f"  serving: {repeat.rps:.1f} req/s warm, "
            f"p50 {_ms(latency['p50'])}ms p99 {_ms(latency['p99'])}ms, "
            f"{repeat.store_hits}/{repeat.requests} store hits "
            f"({'ok' if report.ok else 'FAIL'})"
        )
    return payload


def add_serve_arguments(sub) -> None:
    p_serve = sub.add_parser(
        "serve",
        help="run the async solve-and-check HTTP service (Ctrl-C to stop)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8437,
        help="TCP port (0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--backend",
        help="shared execution backend: serial | reference | process[:N] "
        "(default serial)",
    )
    p_serve.add_argument(
        "--store", metavar="PATH", default=None,
        help="sqlite result store used as the response cache: repeats "
        "of any request are served from it bitwise-identically with "
        "zero new executions",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="admission queue bound; a full queue returns 429 + "
        "Retry-After (default 64)",
    )
    p_serve.add_argument(
        "--deadline", type=float, default=30.0,
        help="default per-request deadline in seconds; expiry returns "
        "504 while the computation finishes into the cache (default 30)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "load",
        help="drive a running repro serve with the deterministic "
        "load harness and gate the measured numbers",
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=8437)
    p_load.add_argument(
        "--requests", type=int, default=None,
        help="unique descriptors per phase (default 32; 24 under --quick)",
    )
    p_load.add_argument(
        "--concurrency", type=int, default=None,
        help="closed-loop workers / open-loop connection pool (default 4)",
    )
    p_load.add_argument(
        "--mode", choices=["closed", "open"], default="closed",
        help="closed: next request on response; open: fixed-rate "
        "arrival schedule (latency includes queueing)",
    )
    p_load.add_argument(
        "--rate", type=float, default=50.0,
        help="open-loop arrivals per second (default 50)",
    )
    p_load.add_argument(
        "--seed", type=int, default=None,
        help="mix seed: same seed + same registry = byte-identical "
        "request stream (default 1543)",
    )
    p_load.add_argument(
        "--deadline-probes", type=int, default=None,
        help="Monte-Carlo jobs fired with microscopic deadlines; each "
        "must come back 504 (default 2)",
    )
    p_load.add_argument(
        "--burst-probes", type=int, default=None,
        help="concurrent fresh requests fired at once to probe 429 "
        "backpressure (default 0; 16 under --quick)",
    )
    p_load.add_argument(
        "--p99-gate", type=float, default=None, metavar="MS",
        help="fail if the repeat-phase p99 latency exceeds this",
    )
    p_load.add_argument(
        "--min-rps", type=float, default=None,
        help="fail if repeat-phase throughput falls below this",
    )
    p_load.add_argument(
        "--require-cache", action="store_true",
        help="fail unless every repeat-phase response is a store hit "
        "and the server performed zero new executions",
    )
    p_load.add_argument(
        "--quick", action="store_true",
        help="the CI preset: 24 requests, both probe kinds, cache "
        "gates armed",
    )
    p_load.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON report here",
    )
    p_load.add_argument("--json", action="store_true")
    p_load.set_defaults(func=cmd_load)
