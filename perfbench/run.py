#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gather-solve --seed 1 \\
        --seconds 30 --trace 0

Workloads: ``gather-solve`` (the nine full-gather cells, the paper's
O(n)-volume path), ``probe-sublinear`` (every other registry cell,
through a fresh result store) and ``serve-mixed`` (``repro serve`` under
an open-loop mix of store hits and fresh requests).  ``--trace 0``
measures the end-to-end metrics with nothing wrapped; ``--trace 1``
wraps each layer's public calls with span recorders and reports the
per-layer metrics instead, writing a Chrome trace and a per-layer table
under ``.perfbench_out/``.

Every answer is checked against ``perfbench/golden.json``; the last
line of standard output is the JSON result.  ``--record-golden``
rewrites that file from the current program.
"""

from __future__ import annotations

import time

# The set-up clock starts before any heavy import.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    GOLDEN_PATH,
    ROOT,
    SRC,
    DigestBook,
    Scratch,
    environment,
    load_golden,
    peak_rss_mb_self,
    write_artifact,
)

SOLVE_WORKLOADS = ("gather-solve", "probe-sublinear")
SERVE_WORKLOAD = "serve-mixed"
WORKLOADS = SOLVE_WORKLOADS + (SERVE_WORKLOAD,)
# Set-up is measured this many times per run (this process plus fresh
# probe processes) and the fastest is reported, as every other metric
# reports an operation's fastest repetition.  Solve set-up is ~0.1 s,
# and consecutive set-ups on a shared host range over 0.10-0.21 s, so
# a median still moved by 40% between runs; the minimum moved by 6%.
SETUP_SAMPLES = 5


def declared_metrics():
    """(end-to-end, per-layer) ``[(name, unit)]`` from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    return tuple(
        [(m["name"], m["unit"]) for m in declared[section]]
        for section in ("end_to_end", "per_layer")
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set up once, print the set-up time, exit (internal)",
    )
    parser.add_argument(
        "--record-golden", action="store_true",
        help="rewrite perfbench/golden.json from the current program",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_golden:
        parser.error("--workload is required")
    return args


# ----------------------------------------------------------------------
# set-up (shared by the measuring process and the set-up probes)
# ----------------------------------------------------------------------
def set_up(args, golden, scratch, book, in_process=False):
    if args.workload in SOLVE_WORKLOADS:
        from solve_workloads import SolveWorkload

        return SolveWorkload(args.workload, args.seed, golden)
    import serve_workload

    return serve_workload.start(golden, scratch, book, in_process)


def tear_down(args, workload) -> None:
    if args.workload == SERVE_WORKLOAD:
        workload.server.stop()


def setup_probes(args, count: int):
    """Set-up times of ``count`` fresh processes."""
    samples = []
    for _ in range(count):
        command = [
            sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
        ]
        probe = subprocess.Popen(
            command, cwd=str(ROOT), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = probe.communicate(timeout=120)
        except BaseException:
            # SIGTERM, not SIGKILL: the probe stops its own server.
            probe.terminate()
            probe.communicate(timeout=30)
            raise
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err[-2000:]}")
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return samples


# ----------------------------------------------------------------------
# the measured phases
# ----------------------------------------------------------------------
def solve_passes(workload, scratch, book, seconds, recorder=None):
    """Repeat the workload's pass (at least once) for ``seconds``."""
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        store = scratch.file(f"pass{len(passes)}-{time.time_ns()}.sqlite")
        passes.append(workload.run_pass(store, book, recorder=recorder))
    return passes


def run_untraced(args, golden, scratch, book):
    workload = set_up(args, golden, scratch, book)
    setup_s = time.perf_counter() - STARTED
    try:
        if args.workload in SOLVE_WORKLOADS:
            from solve_workloads import pass_metrics

            passes = solve_passes(workload, scratch, book, args.seconds)
            metrics, detail = pass_metrics(passes)
            metrics["peak_rss_mb"] = peak_rss_mb_self()
            valid = True
        else:
            import serve_workload

            measured = serve_workload.measure(
                workload, args.seed, args.seconds, book,
                restart=lambda: set_up(args, golden, scratch, book),
            )
            metrics = {
                "executions_per_s": measured["executions_per_s"],
                "trials_per_s": measured["trials_per_s"],
                "p50_ms": measured["latency"]["p50_ms"],
                "p99_ms": measured["latency"]["tail_ms"],
                "hit_p50_ms": measured["hit"]["p50_ms"],
                "miss_p50_ms": measured["miss"]["p50_ms"],
                "achieved_rps": measured["achieved_rps"],
                "peak_rss_mb": measured["peak_rss_mb"],
            }
            detail = measured
            valid = measured["valid"]
    finally:
        tear_down(args, workload)
    samples = [setup_s] + setup_probes(args, SETUP_SAMPLES - 1)
    metrics["setup_s"] = min(samples)
    detail["setup_samples_s"] = samples
    return metrics, detail, valid


def run_traced(args, golden, scratch, book):
    import layers
    import tracing

    recorder = tracing.SpanRecorder()
    missing = []

    @contextlib.contextmanager
    def traced():
        handle = tracing.install(recorder)
        missing[:] = handle.missing
        try:
            yield
        finally:
            handle.remove()

    serve = args.workload == SERVE_WORKLOAD
    with traced():
        workload = set_up(args, golden, scratch, book, in_process=True)
    try:
        if serve:
            import serve_workload

            with recorder.span("bench.workload") as root:
                measured = serve_workload.measure(
                    workload, args.seed, args.seconds, book,
                    restart=lambda: set_up(
                        args, golden, scratch, book, in_process=True
                    ),
                    during=traced,
                )
            extra = measured["layers"]
            passes = measured["rounds"]
            valid = measured["valid"]
        else:
            # Two untraced passes first give the tracing-overhead
            # baseline on this very input (fastest pass against fastest
            # pass, as for the end-to-end metrics).
            started = time.perf_counter()
            untraced = min(
                workload.run_pass(scratch.file(f"untraced{i}.sqlite"),
                                  book).wall_s
                for i in range(2)
            )
            remaining = args.seconds - (time.perf_counter() - started)
            with traced(), recorder.span("bench.workload") as root:
                runs = solve_passes(
                    workload, scratch, book, remaining, recorder=recorder
                )
            passes = len(runs)
            extra = {
                "trace.overhead_ratio":
                    min(p.wall_s for p in runs) / untraced,
            }
            valid = True
    finally:
        tear_down(args, workload)
    metrics, table, accounting = layers.per_layer(
        recorder, root, passes, extra, serve=serve
    )
    origin = min(s[tracing._START] for s in recorder.spans)
    trace_path = write_artifact(
        f"trace-{args.workload}-seed{args.seed}.json",
        tracing.chrome_trace(recorder, origin),
    )
    detail = {
        "passes": passes,
        "in_process_server": serve,
        "missing_wrappers": missing,
        "accounting": accounting,
        "table": table,
        "trace_path": str(trace_path.relative_to(ROOT)),
    }
    print(layers.format_table(table, accounting))
    return metrics, detail, valid


# ----------------------------------------------------------------------
def result_line(correct, book, metrics, names):
    return json.dumps({
        "correct": correct,
        "attempted": max(1, book.attempted),
        "failed": book.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in names
        },
    })


def main(argv=None) -> int:
    # A terminated run still unwinds, so every server it started stops.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC}/repro — run from the "
            "root of a full checkout", file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_golden:
        return record_golden()
    golden = load_golden()
    if args.workload in SOLVE_WORKLOADS:
        golden_book = golden[args.workload]["items"]
    else:
        golden_book = golden[args.workload]["bodies"]
    book = DigestBook(golden_book)
    with Scratch(args.workload) as scratch:
        if args.setup_probe:
            workload = set_up(args, golden, scratch, book)
            setup_s = time.perf_counter() - STARTED
            tear_down(args, workload)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = environment()
        print("env: " + json.dumps(env, sort_keys=True))
        run = run_traced if args.trace else run_untraced
        metrics, detail, valid = run(args, golden, scratch, book)
    end_to_end, per_layer = declared_metrics()
    names = per_layer if args.trace else end_to_end
    correct = valid and book.failed == 0 and book.attempted > 0
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        env=env,
        run_digest=book.run_digest,
        attempted=book.attempted,
        failed=book.failed,
        fail_ratio=book.failed / max(1, book.attempted),
        failures=book.failures,
        valid=valid,
        metrics=metrics,
    )
    write_artifact(
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        detail,
    )
    for name, unit in names:
        print(f"{name:32s} {metrics[name]:14.6g} {unit}")
    print(f"digest {book.run_digest}  attempted {book.attempted}  "
          f"failed {book.failed}  valid {valid}")
    for failure in book.failures:
        print(f"FAILED: {failure}")
    print(result_line(correct, book, metrics, names))
    return 0 if correct else 1


def record_golden() -> int:
    import serve_workload
    import solve_workloads

    golden = {
        workload: solve_workloads.record(workload)
        for workload in SOLVE_WORKLOADS
    }
    with Scratch("record") as scratch:
        golden[SERVE_WORKLOAD] = serve_workload.record(scratch)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
