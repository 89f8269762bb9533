"""Hot-path microbenchmarks: the compiled instance fast path vs reference.

The probe engine's inner loop is multiplied by ``n x queries`` on every
sweep (the runner starts the algorithm from *all* n nodes), so this bench
times the compiled layers PR 3 introduced and the PR 6 execution paths
stacked on top of them:

* ``oracle_queries`` — raw oracle throughput: ``resolve`` + ``node_info``
  over every (node, port) of an instance, :class:`StaticOracle` (dict-of-
  dict walk, per-call ``NodeInfo`` rebuild) vs :class:`CompiledOracle`
  (precomputed tables over a frozen CSR graph);
* ``full_gather`` — a full-gather ``run_algorithm`` from every node of a
  line and a complete-tree instance (n >= 512): uncompiled reference vs
  compiled scalar vs the batched flat-array kernel
  (:mod:`repro.model.batched`);
* ``dist_maintenance`` — an exploration that polls ``distance_cost()``
  after every query, incremental labels vs BFS-per-invalidation;
* ``parallel_scaling`` — the batched full-gather run fanned out over
  :class:`~repro.exec.backends.ProcessPoolBackend` at 1/2/4 workers (a
  node run of a materialized instance, so the pool ships it by shared
  memory; one worker runs it in-process), including the one-off
  publish+attach overhead that path pays;
* ``trial_batch`` — a fixed-instance Monte-Carlo trial batch on the
  serial backend vs a 2-worker pool (trial batches ship by pickle);
* ``fault_recovery`` — the cost of the PR 8 supervision layer: the same
  pooled workload with supervision off vs on (gated: < 5% overhead when
  nothing fails) and the wall-time of recovering from one injected
  worker kill, cross-checked bitwise against the serial run.

Speedup conventions: every row's ``speedup`` is measured against the
*compiled scalar serial* run of the same workload (the pre-PR-6 state of
the repo), so the gated numbers capture what this PR's batched kernel +
zero-copy fan-out actually buy; ``parallel_scaling`` rows additionally
report ``speedup_vs_serial_batched`` (pure dispatch efficiency, which on
a single-core CI box hovers near or below 1.0 by construction).

``--quick`` (the CI perf-smoke mode) runs reduced repeats and writes the
timing artifact; the process exits non-zero if the compiled path falls
behind the reference oracle on query throughput, if the 2-worker
shared-memory row drops below 1.3x over compiled scalar serial, or if
any shared-memory segment leaks (``/dev/shm`` is scanned before/after).

Outputs are cross-checked across engines inside the bench, on top of the
property suites in ``tests/perf`` / ``tests/model`` / ``tests/exec``.
``REPRO_BENCH_BACKEND`` (the sweep benches' env knob) is deliberately
ignored here: every section pins its own backends, because the
backend-vs-backend comparison *is* the measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Optional

from _common import banner

from repro.cli.bench import git_sha
from repro.exec import shm
from repro.exec.backends import (
    FixedInstanceFactory,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.graphs.builders import complete_binary_tree, path_graph
from repro.graphs.labelings import Instance, Labeling
from repro.model.batched import gather_kernel
from repro.model.oracle import CompiledOracle, StaticOracle
from repro.model.probe import CostProfile, ProbeAlgorithm, ProbeView
from repro.model.randomness import RandomnessContext, RandomnessModel
from repro.model.runner import run_algorithm
from repro.model.views import gather_ball

SCHEMA_NAME = "repro-bench-hotpath"
SCHEMA_VERSION = 3


def load_hotpath_artifact(source) -> Dict[str, object]:
    """Read a hot-path artifact, refusing any schema but the current one.

    ``source`` is a path or an already-parsed dict.
    """
    if isinstance(source, dict):
        artifact = source
    else:
        with open(source) as fh:
            artifact = json.load(fh)
    if artifact.get("schema") != SCHEMA_NAME:
        raise ValueError(f"not a {SCHEMA_NAME} artifact: {source!r}")
    version = artifact.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported {SCHEMA_NAME} schema_version "
                         f"{version!r}")
    return artifact


def line_instance(n: int) -> Instance:
    """An unlabeled path on ``n`` nodes (ids 1..n, ports 1/2)."""
    return Instance(
        graph=path_graph(n), labeling=Labeling(), name=f"line-{n}"
    )


def tree_instance(depth: int) -> Instance:
    """An unlabeled complete binary tree of the given depth."""
    topo = complete_binary_tree(depth)
    return Instance(
        graph=topo.graph,
        labeling=Labeling(),
        name=f"tree-{topo.graph.num_nodes}",
    )


class PureGatherAlgorithm(ProbeAlgorithm):
    """Gather the whole component and summarize it: the pure hot path.

    Unlike :class:`~repro.algorithms.generic.FullGatherAlgorithm` there
    is no instance reconstruction or reference solve afterwards, so the
    measured time is the engine + oracle loop and nothing else.  This
    class is deliberately scalar-only (no ``run_node_batch``): it is the
    pre-PR-6 compiled baseline every ``speedup`` column divides by.
    """

    name = "pure-gather"

    def run(self, view: ProbeView):
        ball = gather_ball(view, max(1, view.n))
        return (len(ball.distance), max(ball.distance.values()))


class BatchedGatherAlgorithm(PureGatherAlgorithm):
    """The same workload through the flat-array CSR kernel.

    ``summarize`` returns exactly the scalar run's ``(size, depth)``
    output and cost surface (the kernel suite pins this), so timing the
    two algorithms side by side isolates the batched kernel's win.
    """

    name = "pure-gather-batched"

    def run_node_batch(self, oracle, nodes, tapes=None):
        kernel = gather_kernel(oracle)
        if kernel is None:
            return None
        radius = max(1, oracle.n)
        out = []
        for node in nodes:
            size, depth, queries = kernel.summarize(node, radius)
            profile = CostProfile(
                volume=size, distance=depth, queries=queries, random_bits=0
            )
            out.append((node, (size, depth), profile))
        return out


def best_of(repeats: int, fn: Callable[[], float]) -> float:
    """The minimum wall time over ``repeats`` runs (noise-robust)."""
    return min(fn() for _ in range(repeats))


def timed(fn: Callable[[], object]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# 1. oracle query throughput
# ----------------------------------------------------------------------
def bench_oracle_queries(repeats: int, rounds: int) -> Dict[str, object]:
    instance = tree_instance(9)  # n = 1023
    graph = instance.graph
    pairs = [
        (node, port)
        for node in graph.nodes()
        for port in range(1, graph.num_ports(node) + 1)
    ]

    def sweep(oracle) -> None:
        resolve = oracle.resolve
        node_info = oracle.node_info
        for _ in range(rounds):
            for node, port in pairs:
                endpoint = resolve(node, port)
                if endpoint is not None:
                    node_info(endpoint)

    static = StaticOracle(instance)
    compiled = CompiledOracle(instance)
    # Cross-check before timing: same answers on every (node, port).
    for node, port in pairs:
        assert static.resolve(node, port) == compiled.resolve(node, port)
        assert static.node_info(node) == compiled.node_info(node)
    reference_s = best_of(repeats, lambda: timed(lambda: sweep(static)))
    compiled_s = best_of(repeats, lambda: timed(lambda: sweep(compiled)))
    queries = len(pairs) * rounds
    return {
        "name": "oracle_queries",
        "params": {"n": graph.num_nodes, "queries": queries},
        "reference_s": reference_s,
        "compiled_s": compiled_s,
        "reference_qps": queries / reference_s,
        "compiled_qps": queries / compiled_s,
        "speedup": reference_s / compiled_s,
    }


# ----------------------------------------------------------------------
# 2. full-gather whole-instance run
# ----------------------------------------------------------------------
def bench_full_gather(instance: Instance, repeats: int) -> Dict[str, object]:
    scalar = PureGatherAlgorithm()
    batched = BatchedGatherAlgorithm()
    reference_backend = SerialBackend(compiled=False)
    compiled_backend = SerialBackend(compiled=True)
    ref_run = run_algorithm(instance, scalar, backend=reference_backend)
    fast_run = run_algorithm(instance, scalar, backend=compiled_backend)
    batched_run = run_algorithm(instance, batched, backend=compiled_backend)
    assert fast_run.outputs == ref_run.outputs == batched_run.outputs
    assert fast_run.profiles == ref_run.profiles == batched_run.profiles
    n = instance.graph.num_nodes
    reference_s = best_of(
        repeats,
        lambda: timed(
            lambda: run_algorithm(
                instance, scalar, backend=reference_backend
            )
        ),
    )
    compiled_s = best_of(
        repeats,
        lambda: timed(
            lambda: run_algorithm(
                instance, scalar, backend=compiled_backend
            )
        ),
    )
    batched_s = best_of(
        repeats,
        lambda: timed(
            lambda: run_algorithm(
                instance, batched, backend=compiled_backend
            )
        ),
    )
    return {
        "name": f"full_gather[{instance.name}]",
        "params": {"n": n, "executions": n},
        "reference_s": reference_s,
        "compiled_s": compiled_s,
        "batched_s": batched_s,
        "reference_eps": n / reference_s,
        "compiled_eps": n / compiled_s,
        "batched_eps": n / batched_s,
        # `speedup` keeps its v1 meaning (reference vs compiled scalar);
        # the kernel's own win is reported against the scalar baseline.
        "speedup": reference_s / compiled_s,
        "batched_speedup_vs_scalar": compiled_s / batched_s,
    }


# ----------------------------------------------------------------------
# 3. DIST maintenance under interleaved cost reads
# ----------------------------------------------------------------------
def _null_context() -> RandomnessContext:
    return RandomnessContext(None, RandomnessModel.DETERMINISTIC, 0)


def bench_dist_maintenance(n: int, repeats: int) -> Dict[str, object]:
    instance = line_instance(n)
    compiled = CompiledOracle(instance)
    start = next(iter(instance.graph.nodes()))

    def explore(distance_mode: str) -> int:
        view = ProbeView(
            compiled, start, _null_context(), distance_mode=distance_mode
        )
        total = 0
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for port in view.info(u).ports:
                    endpoint = view.query(u, port)
                    # The poll after every query is the workload: it
                    # forces the reference path to re-BFS per probe.
                    total += view.distance_cost()
                    if endpoint is not None and endpoint.node_id not in seen:
                        seen.add(endpoint.node_id)
                        nxt.append(endpoint.node_id)
            frontier = nxt
        return total

    def run(distance_mode: str) -> int:
        seen.clear()
        seen.add(start)
        return explore(distance_mode)

    seen: set = {start}
    assert run("incremental") == run("reference")
    reference_s = best_of(repeats, lambda: timed(lambda: run("reference")))
    compiled_s = best_of(repeats, lambda: timed(lambda: run("incremental")))
    return {
        "name": "dist_maintenance",
        "params": {"n": n, "polls_per_query": 1},
        "reference_s": reference_s,
        "compiled_s": compiled_s,
        "speedup": reference_s / compiled_s,
    }


# ----------------------------------------------------------------------
# 4. parallel scaling: batched full-gather over the process pool
# ----------------------------------------------------------------------
def _measure_attach_overhead(instance: Instance) -> float:
    """One worker's per-run instance acquisition cost over shared memory.

    Publish + zero-copy attach + oracle compile (paid once per worker
    per run).
    """
    started = time.perf_counter()
    handle = shm.publish_instance(instance)
    attachment = shm.attach_instance(handle)
    elapsed = time.perf_counter() - started
    attachment.close()
    shm.unpublish(handle)
    return elapsed


def bench_parallel_scaling(
    instance: Instance,
    repeats: int,
    workers_grid: List[int],
) -> List[Dict[str, object]]:
    """Batched full-gather fan-out over a grid of worker counts.

    Baselines are measured in-process: ``scalar_serial_s`` (compiled
    scalar engine — the pre-PR-6 state every ``speedup`` divides by) and
    ``serial_batched_s`` (the batched kernel without any pool).
    """
    scalar = PureGatherAlgorithm()
    batched = BatchedGatherAlgorithm()
    serial = SerialBackend(compiled=True)
    baseline_run = run_algorithm(instance, scalar, backend=serial)
    scalar_serial_s = best_of(
        repeats,
        lambda: timed(
            lambda: run_algorithm(instance, scalar, backend=serial)
        ),
    )
    serial_batched_s = best_of(
        repeats,
        lambda: timed(
            lambda: run_algorithm(instance, batched, backend=serial)
        ),
    )
    rows: List[Dict[str, object]] = []
    n = instance.graph.num_nodes
    attach_overhead_s = _measure_attach_overhead(instance)
    for workers in workers_grid:
        with ProcessPoolBackend(workers=workers) as pool:
            pooled = run_algorithm(instance, batched, backend=pool)
            assert pooled.outputs == baseline_run.outputs
            assert pooled.profiles == baseline_run.profiles
            elapsed = best_of(
                repeats,
                lambda: timed(
                    lambda: run_algorithm(instance, batched, backend=pool)
                ),
            )
        rows.append(
            {
                "name": f"full_gather[{instance.name}]",
                "workers": workers,
                # A one-worker pool runs the whole node list in-process.
                "transport": "shm" if workers > 1 else "in-process",
                "params": {"n": n, "executions": n},
                "time_s": elapsed,
                "scalar_serial_s": scalar_serial_s,
                "serial_batched_s": serial_batched_s,
                "attach_overhead_s": attach_overhead_s,
                "speedup": scalar_serial_s / elapsed,
                "speedup_vs_serial_batched": serial_batched_s / elapsed,
            }
        )
    return rows


# ----------------------------------------------------------------------
# 5. fixed-instance trial batches: serial vs the pool
# ----------------------------------------------------------------------
def bench_trial_batch(trials: int, repeats: int) -> List[Dict[str, object]]:
    """A fixed-instance Monte-Carlo batch across dispatch strategies."""
    import random

    from repro.algorithms.leaf_coloring_algs import RWtoLeaf
    from repro.graphs.generators import leaf_coloring_instance
    from repro.problems.leaf_coloring import LeafColoring

    instance = leaf_coloring_instance(5, rng=random.Random(11))
    problem = LeafColoring()
    factory = FixedInstanceFactory(instance)

    def batch(backend) -> List[object]:
        return backend.run_trial_batch(
            problem, factory, RWtoLeaf(), range(trials), base_seed=7
        )

    serial = SerialBackend(compiled=True)
    baseline = batch(serial)
    serial_s = best_of(repeats, lambda: timed(lambda: batch(serial)))
    rows: List[Dict[str, object]] = [
        {
            "name": f"trial_batch[{instance.name}]",
            "backend": "serial",
            "transport": None,
            "params": {"trials": trials, "n": instance.n},
            "time_s": serial_s,
            "speedup": 1.0,
        }
    ]
    with ProcessPoolBackend(workers=2) as pool:
        assert batch(pool) == baseline
        elapsed = best_of(repeats, lambda: timed(lambda: batch(pool)))
    rows.append(
        {
            "name": f"trial_batch[{instance.name}]",
            "backend": "process:2",
            "transport": "pickle",
            "params": {"trials": trials, "n": instance.n},
            "time_s": elapsed,
            "speedup": serial_s / elapsed,
        }
    )
    return rows


# ----------------------------------------------------------------------
# 6. fault tolerance: supervision overhead + one-kill recovery
# ----------------------------------------------------------------------
def bench_fault_recovery(repeats: int) -> Dict[str, object]:
    """What supervision costs when nothing fails, and when one thing does.

    The supervised dispatch loop (per-chunk timeouts, failure
    classification, retry bookkeeping) wraps every pooled run since
    PR 8, so its no-fault overhead is gated below 5% of the
    unsupervised path on the same workload.  The recovery row then
    injects exactly one ``kill-worker`` fault and reports the wall-time
    of detecting the dead pool, respawning it, and re-dispatching only
    the lost chunks — cross-checked bitwise against the serial run.
    """
    import random

    from repro.algorithms.leaf_coloring_algs import RWtoLeaf
    from repro.faults.plan import FaultInjector, FaultPlan
    from repro.faults.retry import RetryPolicy
    from repro.graphs.generators import leaf_coloring_instance

    # Big enough that a run takes tens of milliseconds: the overhead
    # gate compares two wall-times whose difference is microseconds of
    # bookkeeping per chunk, so short runs drown it in dispatch noise.
    instance = leaf_coloring_instance(9, rng=random.Random(11))
    algorithm = RWtoLeaf()
    repeats = max(5, repeats)
    serial_run = run_algorithm(instance, algorithm, seed=7)

    def pooled(supervised: bool, injector=None):
        return ProcessPoolBackend(
            workers=2,
            supervised=supervised,
            fault_injector=injector,
            retry=RetryPolicy(base_delay=0.01, max_delay=0.05),
        )

    with pooled(supervised=False) as pool:
        baseline = run_algorithm(instance, algorithm, seed=7, backend=pool)
        assert baseline.outputs == serial_run.outputs
        unsupervised_s = best_of(
            repeats,
            lambda: timed(
                lambda: run_algorithm(
                    instance, algorithm, seed=7, backend=pool
                )
            ),
        )
    with pooled(supervised=True) as pool:
        clean = run_algorithm(instance, algorithm, seed=7, backend=pool)
        assert clean.outputs == serial_run.outputs
        assert len(pool.fault_log) == 0
        supervised_s = best_of(
            repeats,
            lambda: timed(
                lambda: run_algorithm(
                    instance, algorithm, seed=7, backend=pool
                )
            ),
        )
    overhead = supervised_s / unsupervised_s - 1.0

    # One injected worker kill on the first dispatch of the first chunk:
    # the pool breaks, the supervisor respawns it and re-runs only what
    # was lost.  A fresh backend per repeat so every measurement pays
    # the kill (the injector budget is per-backend-lifetime).
    one_kill = FaultPlan(
        seed=1, kinds=("kill-worker",), rate=1.0, max_faults=1,
        max_attempt=0,
    )

    def killed_run() -> Dict[str, object]:
        with pooled(
            supervised=True, injector=FaultInjector(one_kill)
        ) as pool:
            result = run_algorithm(
                instance, algorithm, seed=7, backend=pool
            )
            return result, len(pool.fault_log)

    result, events = killed_run()
    recovery_equal = (
        result.outputs == serial_run.outputs
        and result.profiles == serial_run.profiles
    )
    recovery_s = best_of(
        max(2, repeats - 1), lambda: timed(killed_run)
    )
    return {
        "name": f"fault_recovery[{instance.name}]",
        "params": {"n": instance.n, "workers": 2, "transport": "shm"},
        "unsupervised_s": unsupervised_s,
        "supervised_s": supervised_s,
        "supervision_overhead": overhead,
        "recovery_s": recovery_s,
        "recovery_fault_events": events,
        "recovery_equal": recovery_equal,
        "plan": one_kill.describe(),
    }


def _shm_segments() -> List[str]:
    """``psm_*`` files in /dev/shm (empty on non-POSIX-shm hosts)."""
    try:
        return sorted(
            f for f in os.listdir("/dev/shm") if f.startswith("psm_")
        )
    except FileNotFoundError:
        return []


# ----------------------------------------------------------------------
def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", action="store_true",
        help="reduced repeats/sizes (what CI's perf-smoke job runs)",
    )
    mode.add_argument(
        "--full", action="store_true", help="larger sizes, more repeats"
    )
    parser.add_argument("--out", default="bench_hotpath.json")
    args = parser.parse_args(argv)
    full = args.full
    repeats = 5 if full else 3

    banner("Hot-path microbenchmarks: compiled fast path vs reference")
    shm_before = _shm_segments()
    benches: List[Dict[str, object]] = []

    benches.append(bench_oracle_queries(repeats, rounds=20 if full else 5))
    gather_instances = [line_instance(512), tree_instance(9)]
    if full:
        gather_instances.append(line_instance(2048))
    for instance in gather_instances:
        benches.append(bench_full_gather(instance, repeats))
    benches.append(bench_dist_maintenance(1024 if full else 384, repeats))

    for bench in benches:
        extra = ""
        if "batched_s" in bench:
            extra = (
                f"  batched {bench['batched_s']:.4f}s "
                f"({bench['batched_speedup_vs_scalar']:.2f}x over scalar)"
            )
        print(
            f"{bench['name']:<28} reference {bench['reference_s']:.4f}s  "
            f"compiled {bench['compiled_s']:.4f}s  "
            f"speedup {bench['speedup']:.2f}x{extra}"
        )

    parallel_rows = bench_parallel_scaling(
        tree_instance(9),
        max(2, repeats - 1),
        workers_grid=[1, 2, 4],
    )
    for row in parallel_rows:
        print(
            f"{row['name']:<28} workers={row['workers']} "
            f"{row['transport']:<6} {row['time_s']:.4f}s  "
            f"speedup {row['speedup']:.2f}x "
            f"(vs serial-batched {row['speedup_vs_serial_batched']:.2f}x, "
            f"attach {row['attach_overhead_s'] * 1e3:.1f}ms)"
        )

    trial_rows = bench_trial_batch(
        trials=96 if full else 32, repeats=max(2, repeats - 1)
    )
    for row in trial_rows:
        transport = row["transport"] or "-"
        print(
            f"{row['name']:<28} {row['backend']:<10} {transport:<6} "
            f"{row['time_s']:.4f}s  speedup {row['speedup']:.2f}x"
        )

    fault_recovery = bench_fault_recovery(max(2, repeats - 1))
    print(
        f"{fault_recovery['name']:<28} supervised "
        f"{fault_recovery['supervised_s']:.4f}s vs unsupervised "
        f"{fault_recovery['unsupervised_s']:.4f}s "
        f"(overhead {fault_recovery['supervision_overhead'] * 100:+.1f}%)  "
        f"1-kill recovery {fault_recovery['recovery_s']:.4f}s "
        f"equal={fault_recovery['recovery_equal']}"
    )

    oracle_bench = benches[0]
    gather_speedups = {
        b["name"]: b["speedup"]
        for b in benches
        if b["name"].startswith("full_gather")
    }
    parallel_2w_shm = next(
        row["speedup"]
        for row in parallel_rows
        if row["workers"] == 2 and row["transport"] == "shm"
    )
    shm_after = _shm_segments()
    leaked = sorted(set(shm_after) - set(shm_before))
    gate = {
        "query_throughput_speedup": oracle_bench["speedup"],
        "query_throughput_ok": oracle_bench["speedup"] >= 1.0,
        "full_gather_speedups": gather_speedups,
        "parallel_speedup_2w_shm": parallel_2w_shm,
        "parallel_ok": parallel_2w_shm >= 1.3,
        "shm_leak_free": not leaked and not shm.published_segments(),
        "supervision_overhead": fault_recovery["supervision_overhead"],
        "supervision_ok": fault_recovery["supervision_overhead"] < 0.05,
        "fault_recovery_ok": bool(fault_recovery["recovery_equal"]),
    }
    artifact = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": "full" if full else "quick",
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "repeats": repeats,
        "benches": benches,
        "parallel_scaling": parallel_rows,
        "trial_batch": trial_rows,
        "fault_recovery": fault_recovery,
        "gate": gate,
    }
    with open(args.out, "w") as handle:
        json.dump(artifact, handle, indent=1)
        handle.write("\n")
    print(f"\nartifact -> {args.out}")
    failed = False
    if not gate["query_throughput_ok"]:
        print(
            "FAIL: compiled oracle fell behind the reference oracle on "
            f"query throughput ({oracle_bench['speedup']:.2f}x)"
        )
        failed = True
    if not gate["parallel_ok"]:
        print(
            "FAIL: 2-worker shared-memory fan-out below the 1.3x floor "
            f"over compiled scalar serial ({parallel_2w_shm:.2f}x)"
        )
        failed = True
    if not gate["shm_leak_free"]:
        print(f"FAIL: leaked shared-memory segments: {leaked} "
              f"(published: {shm.published_segments()})")
        failed = True
    if not gate["supervision_ok"]:
        print(
            "FAIL: supervised dispatch costs "
            f"{gate['supervision_overhead'] * 100:.1f}% over the "
            "unsupervised path on a fault-free run (gate: < 5%)"
        )
        failed = True
    if not gate["fault_recovery_ok"]:
        print(
            "FAIL: the run recovered from an injected worker kill with "
            "outputs that differ from the serial baseline"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
