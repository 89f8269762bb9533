"""``repro bench`` — the registry-enumerated smoke matrix and artifact.

Runs every compatible problem x algorithm x family cell of the component
registry (nothing is hand-listed: the matrix comes from
:func:`repro.registry.iter_compatible`) through the sweep orchestrator,
validating each grid point with the same
:func:`~repro.model.runner.solve_and_check` call the API exposes, and
writes a schema-versioned machine-readable artifact::

    {
      "schema": "repro-bench",
      "schema_version": 2,
      "mode": "quick" | "full",
      "backend": "serial" | "process:N" | "reference",
      "oracle": "compiled" | "reference",
      "git_sha": "...", "python": "3.x.y", "generated": "...Z",
      "cells": [
        {
          "problem": ..., "algorithm": ..., "family": ..., "seed": ...,
          "randomized": ..., "ok": ...,
          "points": [{"param", "n", "valid", "max_volume", "mean_volume",
                      "max_distance", "max_queries", "truncated_nodes",
                      "violations", "executions", "elapsed",
                      "execs_per_sec"}, ...],
          "max_volume": ..., "mean_volume": ..., "max_distance": ...,
          "volume_fit": ..., "distance_fit": ...,
          "executions": ..., "wall_time": ..., "execs_per_sec": ...,
          "elapsed": ...   (schema-v1 alias, always == wall_time)
        }, ...
      ],
      "lower_bounds": [
        {
          "adversary": ..., "problem": ..., "algorithm": ..., "bound": ...,
          "expected_fit": [...],
          "points": [{"budget", "n", "queries", "bits", "defeated",
                      "upheld", "elapsed"}, ...],
          "queries_fit": ..., "bits_fit": ..., "ok": ..., "wall_time": ...
        }, ...
      ],
      "summary": {"cells", "points", "failed", "executions",
                  "wall_time", "execs_per_sec", "elapsed",
                  "lower_bounds", "lower_bounds_failed"}
    }

Schema v2 (PR 3) added the timing trajectory: per-point and per-cell
wall-clock plus executions/sec (one "execution" = one per-node run of
the algorithm), and the oracle mode the numbers were measured under —
so later perf PRs have a committed baseline to be judged against.

Schema v3 (PR 4) added the ``lower_bounds`` section: every registered
interactive adversary is swept over its quick/full budget grid, the
measured query (and, for two-party games, bit) counts are fitted
against the growth classes of :mod:`repro.analysis.complexity_fit`,
and a record is "ok" only when every point upheld the lower-bound
dichotomy *and* the fitted class is one the registration expects
(Ω(n) for all three paper adversaries).

Schema v4 (PR 5) added the ``monte_carlo`` section: every matrix cell
is estimated twice by the streaming trial engine at its smallest grid
point — once fixed-count (``early_stop=off``, the legacy semantics)
and once adaptive — and a record is "ok" only when the two reach the
same success verdict, the adaptive run's verdict sequence is a prefix
of the fixed run's (the engine's determinism contract), and it spent
no more trials.  ``summary.monte_carlo`` totals the fixed vs adaptive
trial counts, so the committed artifact documents the saving.  A
formal JSON-schema for the artifact ships at
``repro/cli/schemas/bench-v4.schema.json``; :func:`upgrade_artifact`
reads older artifacts forward (v3 → v4 adds an empty ``monte_carlo``
section).

Schema v5 (PR 7) added the ``implicit_scaling`` section: every
implicit-capable family (``FamilyEntry.implicit``) is checked
node-for-node against its materialized factory at the largest
quick-grid parameter (NodeInfo tables and resolve responses must
agree exactly), then probed at a giant parameter (n >= 10^7) through
the bounded-memory :class:`~repro.model.implicit.ImplicitOracle` —
stride-sampled node ids are checked for degree/port/back-edge
self-consistency — and, where the family has a registered sublinear
sweep algorithm, a volume curve is fitted across growing n.  The
formal schema moves to ``bench-v5.schema.json``; the v4 → v5 upgrade
adds an empty ``implicit_scaling`` section.

PR 9 added the optional ``summary.corpus`` counters (still schema v5 —
the field is additive): under ``--corpus DIR`` each matrix cell's
instances load from the content-addressed corpus where present, and
the artifact records the hit/miss split (``root`` is null when no
corpus was given).

Schema v6 (PR 10) added the ``serving`` section: a store-backed
``repro serve`` instance is spun up in-process on an ephemeral port and
measured by the deterministic load harness (:mod:`repro.serve.load`) —
cold and repeat phases with p50/p95/p99 latency and requests/sec, the
batch-size histogram, deliberate 504-deadline and 429-burst probes,
and the cache gates (every repeat response a bitwise-identical store
hit, zero new executions).  ``serving`` is null under ``--no-serve``;
the v5 → v6 upgrade adds the null section.  The formal schema moves to
``bench-v6.schema.json``.

CI's ``bench-smoke`` job runs ``repro bench --quick`` on the serial and
``process:2`` backends, uploads the artifact, and fails on any invalid
cell (non-zero exit); the ``adversary-smoke``, ``mc-smoke``, and
``implicit-smoke`` jobs gate the ``lower_bounds``, ``monte_carlo``,
and ``implicit_scaling`` sections the same way (the latter under a
peak-RSS bound).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.registry import (
    ADVERSARIES,
    MatrixCell,
    iter_compatible,
    load_components,
)

SCHEMA_NAME = "repro-bench"
SCHEMA_VERSION = 6
SCHEMA_DOCUMENT = Path(__file__).parent / "schemas" / "bench-v6.schema.json"

# The Monte-Carlo section's policies: the adaptive run is the shared
# QUICK_POLICY preset (the same one `repro mc --quick` uses, by
# construction — see repro.montecarlo.engine), the fixed run is the
# legacy semantics at the preset's trial budget.  A cell's success
# verdict is "rate >= MC_VERDICT_THRESHOLD".
MC_VERDICT_THRESHOLD = 0.9


def _mc_policies():
    from repro.montecarlo.engine import QUICK_POLICY, TrialPolicy

    return TrialPolicy.fixed(QUICK_POLICY.max_trials), QUICK_POLICY


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _fit(ns: List[int], costs: List[float]) -> Optional[str]:
    from repro.analysis.complexity_fit import fit_growth

    if len(ns) < 2:
        return None
    return fit_growth(ns, costs).best


def _corpus_family(corpus, entry, grid: str, counters: Dict[str, int]):
    """An :class:`InstanceFamily` served from a corpus where possible.

    Grid points present in the corpus load from disk (a *hit*); absent
    points fall back to the registered factory (a *miss*) — the cell
    runs either way, the counters just record the provenance split for
    ``summary.corpus``.
    """
    from repro.exec.sweep import InstanceFamily

    def factory(param):
        instance = corpus.get(entry.name, param)
        if instance is not None:
            counters["hits"] += 1
            return instance
        counters["misses"] += 1
        return entry.factory(param)

    return InstanceFamily(entry.name, factory, entry.params(grid))


def run_cell(
    cell: MatrixCell,
    grid: str,
    backend,
    seed: Optional[int] = None,
    progress=None,
    corpus=None,
    corpus_counters: Optional[Dict[str, int]] = None,
) -> Dict[str, object]:
    """Solve-and-check one matrix cell over its parameter grid."""
    from repro.exec.sweep import SweepSpec, run_sweep
    from repro.model.runner import solve_and_check

    problem = cell.problem.make()
    cell_seed = cell.algorithm.seed if seed is None else seed
    points: List[Dict[str, object]] = []

    def measure(instance, param) -> float:
        report = solve_and_check(
            problem,
            instance,
            cell.algorithm.make(),
            seed=cell_seed,
            backend=backend,
        )
        points.append({
            "param": repr(param),
            "n": instance.graph.num_nodes,
            "valid": report.valid,
            "max_volume": report.run.max_volume,
            "mean_volume": report.run.mean_volume,
            "max_distance": report.run.max_distance,
            "max_queries": report.run.max_queries,
            "truncated_nodes": len(report.run.truncated_nodes),
            "violations": [str(v) for v in report.violations[:3]],
            "executions": len(report.run.profiles),
        })
        return float(report.run.max_volume)

    family = (
        cell.family.instance_family(grid)
        if corpus is None
        else _corpus_family(corpus, cell.family, grid, corpus_counters)
    )
    spec = SweepSpec(
        label=f"{cell.algorithm.name} @ {cell.family.name}",
        claimed="-",
        family=family,
        measure=measure,
    )
    result = run_sweep(spec, backend, progress=progress)
    for point, sweep_point in zip(points, result.points):
        point["elapsed"] = sweep_point.elapsed
        point["execs_per_sec"] = (
            point["executions"] / sweep_point.elapsed
            if sweep_point.elapsed > 0
            else None
        )
    ns = [p["n"] for p in points]
    executions = sum(p["executions"] for p in points)
    wall_time = sum(p["elapsed"] for p in points)
    return {
        "problem": cell.problem.name,
        "algorithm": cell.algorithm.name,
        "family": cell.family.name,
        "seed": cell_seed,
        "randomized": cell.algorithm.randomized,
        "ok": all(p["valid"] for p in points),
        "points": points,
        "max_volume": max(p["max_volume"] for p in points),
        "mean_volume": statistics.fmean(p["mean_volume"] for p in points),
        "max_distance": max(p["max_distance"] for p in points),
        "volume_fit": _fit(ns, [p["max_volume"] for p in points]),
        "distance_fit": _fit(ns, [p["max_distance"] for p in points]),
        "executions": executions,
        "wall_time": wall_time,
        "execs_per_sec": executions / wall_time if wall_time > 0 else None,
        "elapsed": wall_time,
    }


def _select_cells(only: Optional[str]) -> List[MatrixCell]:
    cells = list(iter_compatible())
    if only:
        cells = [c for c in cells if any(only in part for part in c.key)]
    return cells


def _select_adversaries(only: Optional[str]):
    entries = list(ADVERSARIES)
    if only:
        entries = [
            e
            for e in entries
            if any(only in part for part in (e.name, e.problem, e.victim))
        ]
    return entries


def run_lower_bounds(
    grid: str, only: Optional[str] = None, progress=None
) -> List[Dict[str, object]]:
    """Sweep every (matching) registered adversary; one record each."""
    from repro.adversary.base import sweep_records

    return sweep_records(_select_adversaries(only), grid, progress=progress)


def run_mc_cell(
    cell: MatrixCell,
    grid: str,
    backend,
    seed: Optional[int] = None,
) -> Dict[str, object]:
    """Fixed-count vs adaptive Monte-Carlo estimation of one cell.

    Both estimates stream trials over the cell's *smallest* grid-point
    instance under the same base seed, and both execute on the real
    dispatch path, so ``prefix_consistent`` gates the engine's
    only-truncates determinism contract on every cell.  A trial batch
    that reads no random bit executes once (DESIGN.md §8.2), so a
    deterministic cell's adaptive estimate costs one execution per
    batch.  ``adaptive_mode`` reads ``"live"`` on every record; schema
    v6 still requires the field.
    """
    from repro.montecarlo.engine import run_trials

    fixed_policy, adaptive_policy = _mc_policies()
    param = cell.family.params(grid)[0]
    instance = cell.family.instance(param)
    problem = cell.problem.make()
    base_seed = cell.algorithm.seed if seed is None else seed
    fixed = run_trials(
        problem,
        instance,
        cell.algorithm.make(),
        fixed_policy,
        base_seed=base_seed,
        backend=backend,
    )
    adaptive = run_trials(
        problem,
        instance,
        cell.algorithm.make(),
        adaptive_policy,
        base_seed=base_seed,
        backend=backend,
    )
    verdict_fixed = fixed.rate >= MC_VERDICT_THRESHOLD
    verdict_adaptive = adaptive.rate >= MC_VERDICT_THRESHOLD
    prefix_consistent = (
        adaptive.verdicts == fixed.verdicts[: adaptive.trials]
    )
    return {
        "problem": cell.problem.name,
        "algorithm": cell.algorithm.name,
        "family": cell.family.name,
        "param": repr(param),
        "n": instance.graph.num_nodes,
        "seed": base_seed,
        "randomized": cell.algorithm.randomized,
        "threshold": MC_VERDICT_THRESHOLD,
        "adaptive_mode": "live",
        "policy": adaptive_policy.describe(),
        "fixed": fixed.to_payload(),
        "adaptive": adaptive.to_payload(),
        "verdict_fixed": verdict_fixed,
        "verdict_adaptive": verdict_adaptive,
        "verdicts_agree": verdict_adaptive == verdict_fixed,
        "prefix_consistent": prefix_consistent,
        "trials_saved": fixed.trials - adaptive.trials,
        "ok": (
            verdict_adaptive == verdict_fixed
            and prefix_consistent
            and adaptive.trials <= fixed.trials
        ),
        "wall_time": fixed.elapsed + adaptive.elapsed,
    }


def run_monte_carlo(
    cells: List[MatrixCell],
    grid: str,
    backend,
    seed: Optional[int] = None,
    progress=None,
) -> List[Dict[str, object]]:
    """The artifact's ``monte_carlo`` section: one record per cell."""
    records = []
    for cell in cells:
        record = run_mc_cell(cell, grid, backend, seed=seed)
        records.append(record)
        if progress is not None:
            progress(
                f"  mc {record['algorithm']} @ {record['family']}: "
                f"{record['fixed']['trials']} -> "
                f"{record['adaptive']['trials']} trials, "
                f"rate={record['adaptive']['rate']:.3f} "
                f"({'ok' if record['ok'] else 'FAIL'})"
            )
    return records


# The implicit_scaling section's giant parameters: every entry takes
# its family past n = 10^7 nodes, the regime no materialized factory
# can reach (the artifact's other sections top out around 10^4).
IMPLICIT_GIANT: Dict[str, object] = {
    "leaf-coloring-hard": 23,  # n = 2^24 - 1 = 16,777,215
    "balanced-tree": 23,  # n = 2^24 - 1 = 16,777,215
    "cycle-uniform": 10_000_000,
    "hierarchical-thc-det(2)": 3162,  # n = m(m+1) = 10,001,406
}

# How many stride-sampled node ids the giant-n probe inspects.
IMPLICIT_PROBE_NODES = 512

# Families with a registered algorithm whose volume stays sublinear at
# giant n, swept root-only to fit the scaling curve: family ->
# (algorithm, params, seed, start node).  LeafColoringRandomWalkSolver
# walks root-to-leaf, so its volume curve is the paper's Θ(log n).
IMPLICIT_CURVE = {
    "leaf-coloring-hard": ("leaf-coloring/rw-to-leaf", (17, 20, 23), 7),
}


def _implicit_differential(entry) -> Dict[str, object]:
    """Implicit generator vs materialized factory, node for node."""
    from repro.model.implicit import ImplicitOracle, InstanceSpec
    from repro.model.oracle import StaticOracle

    param = entry.quick[-1]
    implicit = ImplicitOracle(InstanceSpec(entry.name, param))
    reference = StaticOracle(entry.factory(param))
    ok = implicit.n == reference.n
    for node in range(1, reference.n + 1):
        if not ok:
            break
        want = reference.node_info(node)
        ports = max(want.ports, default=0)
        ok = want == implicit.node_info(node) and all(
            implicit.resolve(node, port) == reference.resolve(node, port)
            for port in range(0, ports + 2)
        )
    return {"param": repr(param), "n": reference.n, "ok": ok}


def _implicit_probe(entry, param) -> Dict[str, object]:
    """Self-consistency of stride-sampled nodes at a giant parameter.

    Every sampled node's degree must match its connected-port list,
    ports 0 and max+1 must resolve to nothing, and every edge must be
    answered by a back-edge from the neighbor — the invariants the
    materialized builders guarantee by construction, checked here in
    the regime only the implicit generator can reach.
    """
    from repro.model.implicit import ImplicitOracle, InstanceSpec

    started = time.perf_counter()
    oracle = ImplicitOracle(InstanceSpec(entry.name, param))
    n = oracle.n
    stride = max(1, n // IMPLICIT_PROBE_NODES)
    nodes = list(range(1, n + 1, stride))
    if nodes[-1] != n:
        nodes.append(n)

    def consistent(node: int) -> bool:
        info = oracle.node_info(node)
        ports = max(info.ports, default=0)
        if info.degree != len(info.ports):
            return False
        if oracle.resolve(node, 0) is not None:
            return False
        if oracle.resolve(node, ports + 1) is not None:
            return False
        for port in info.ports:
            neighbor = oracle.resolve(node, port)
            if neighbor is None or not 1 <= neighbor <= n:
                return False
            back = oracle.node_info(neighbor)
            if all(
                oracle.resolve(neighbor, q) != node for q in back.ports
            ):
                return False
        return True

    ok = all(consistent(node) for node in nodes)
    return {
        "n": n,
        "nodes_checked": len(nodes),
        "realized_nodes": oracle.realized_total,
        "ok": ok,
        "elapsed": time.perf_counter() - started,
    }


def _implicit_curve(entry) -> List[Dict[str, object]]:
    """Root-only volume curve across growing n (where registered)."""
    curve = IMPLICIT_CURVE.get(entry.name)
    if curve is None:
        return []
    from repro.model.implicit import InstanceSpec
    from repro.model.runner import run_algorithm
    from repro.registry import ALGORITHMS

    algo_name, params, seed = curve
    algo = ALGORITHMS.get(algo_name)
    points = []
    for param in params:
        spec = InstanceSpec(entry.name, param)
        root = spec.meta.get("root", 1)
        started = time.perf_counter()
        run = run_algorithm(spec, algo.make(), seed=seed, nodes=[root])
        points.append({
            "param": repr(param),
            "n": spec.n,
            "volume": run.max_volume,
            "elapsed": time.perf_counter() - started,
        })
    return points


def run_implicit_scaling(
    only: Optional[str] = None, progress=None
) -> List[Dict[str, object]]:
    """The artifact's ``implicit_scaling`` section: one record per
    implicit-capable family (``FamilyEntry.implicit``)."""
    from repro.registry import FAMILIES

    records: List[Dict[str, object]] = []
    for entry in FAMILIES:
        if not entry.implicit:
            continue
        if only and only not in entry.name:
            continue
        giant = IMPLICIT_GIANT.get(entry.name, entry.quick[-1])
        started = time.perf_counter()
        differential = _implicit_differential(entry)
        probe = _implicit_probe(entry, giant)
        curve = _implicit_curve(entry)
        record = {
            "family": entry.name,
            "param": repr(giant),
            "n": probe["n"],
            "differential": differential,
            "probe": probe,
            "curve": curve,
            "volume_fit": _fit(
                [p["n"] for p in curve], [p["volume"] for p in curve]
            ),
            "ok": differential["ok"] and probe["ok"],
            "wall_time": time.perf_counter() - started,
        }
        records.append(record)
        if progress is not None:
            progress(
                f"  implicit {record['family']}: n={record['n']:,}, "
                f"differential {'ok' if differential['ok'] else 'FAIL'} "
                f"@ n={differential['n']}, probed "
                f"{probe['nodes_checked']} nodes "
                f"({'ok' if record['ok'] else 'FAIL'})"
            )
    return records


def upgrade_artifact(payload: Dict[str, object]) -> Dict[str, object]:
    """Read an older bench artifact forward to the current schema.

    Supported upgrades: v3 → v4 (the ``monte_carlo`` section and its
    summary counters did not exist before PR 5) and v4 → v5 (likewise
    ``implicit_scaling``, PR 7) — an empty section with zero totals is
    the faithful translation in both cases.  The payload is upgraded
    in place and returned; current-version payloads pass through
    untouched, anything newer than this reader is refused.
    """
    if payload.get("schema") != SCHEMA_NAME:
        raise ValueError(
            f"not a {SCHEMA_NAME} artifact: schema={payload.get('schema')!r}"
        )
    version = payload.get("schema_version")
    if not isinstance(version, int) or version < 3:
        raise ValueError(
            f"cannot upgrade schema_version={version!r} (v3+ supported)"
        )
    if version > SCHEMA_VERSION:
        raise ValueError(
            f"artifact schema_version={version} is newer than this "
            f"reader (v{SCHEMA_VERSION})"
        )
    if version < 4:
        payload["monte_carlo"] = []
        summary = payload.setdefault("summary", {})
        summary["monte_carlo"] = {
            "cells": 0,
            "failed": 0,
            "fixed_trials": 0,
            "adaptive_trials": 0,
            "trials_saved": 0,
        }
        payload["schema_version"] = 4
    if version < 5:
        payload["implicit_scaling"] = []
        summary = payload.setdefault("summary", {})
        summary["implicit_scaling"] = {
            "families": 0,
            "failed": 0,
            "max_n": 0,
        }
        payload["schema_version"] = 5
    if version < 6:
        # No service was measured when the artifact was written; the
        # null section is the faithful translation (PR 10).
        payload["serving"] = None
        summary = payload.setdefault("summary", {})
        summary["serving"] = None
        payload["schema_version"] = 6
    return payload


def load_artifact(path) -> Dict[str, object]:
    """Load a ``BENCH_repro.json`` and upgrade it to the current schema."""
    with open(path) as handle:
        return upgrade_artifact(json.load(handle))


def cmd_bench(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.cli import _fail, format_table
    from repro.exec.backends import get_backend

    load_components()
    grid = "full" if args.full else "quick"
    cells = _select_cells(args.only)
    adversaries = _select_adversaries(args.only)
    if not cells and not adversaries:
        return _fail(f"no matrix cells or adversaries match {args.only!r}")
    if args.list_cells:
        print(json.dumps([list(c.key) for c in cells], indent=2))
        return 0
    corpus = None
    corpus_counters = {"hits": 0, "misses": 0}
    progress = print if args.progress else None
    started = time.perf_counter()
    # The ExitStack owns the backend for the matrix phase, so every
    # exit path (including a bad --corpus surfacing below) releases
    # pool resources promptly (a leaked ProcessPoolExecutor races
    # interpreter teardown and spews atexit tracebacks).
    with ExitStack() as stack:
        backend = get_backend(args.backend)
        stack.callback(backend.close)
        if args.corpus:
            from repro.corpus import InstanceCorpus

            corpus = InstanceCorpus(args.corpus)
        records = [
            run_cell(
                cell, grid, backend, seed=args.seed, progress=progress,
                corpus=corpus, corpus_counters=corpus_counters,
            )
            for cell in cells
        ]
        monte_carlo = (
            []
            if args.no_mc
            else run_monte_carlo(
                cells, grid, backend, seed=args.seed, progress=progress
            )
        )
    lower_bounds = run_lower_bounds(grid, only=args.only, progress=progress)
    implicit_scaling = (
        []
        if args.no_implicit
        else run_implicit_scaling(only=args.only, progress=progress)
    )
    serving = None
    if not args.no_serve:
        from repro.cli.serve import serving_record

        serving = serving_record(progress=progress)
    elapsed = time.perf_counter() - started
    failed = [r for r in records if not r["ok"]]
    lb_failed = [r for r in lower_bounds if not r["ok"]]
    mc_failed = [r for r in monte_carlo if not r["ok"]]
    imp_failed = [r for r in implicit_scaling if not r["ok"]]
    serve_failed = serving is not None and not serving["ok"]
    executions = sum(r["executions"] for r in records)
    wall_time = sum(r["wall_time"] for r in records)
    artifact = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": grid,
        "backend": args.backend or "serial",
        "oracle": getattr(backend, "oracle_mode", "compiled"),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cells": records,
        "lower_bounds": lower_bounds,
        "monte_carlo": monte_carlo,
        "implicit_scaling": implicit_scaling,
        "serving": serving,
        "summary": {
            "cells": len(records),
            "points": sum(len(r["points"]) for r in records),
            "failed": len(failed),
            "executions": executions,
            "wall_time": wall_time,
            "execs_per_sec": executions / wall_time if wall_time > 0 else None,
            "elapsed": elapsed,
            "lower_bounds": len(lower_bounds),
            "lower_bounds_failed": len(lb_failed),
            "monte_carlo": {
                "cells": len(monte_carlo),
                "failed": len(mc_failed),
                "fixed_trials": sum(
                    r["fixed"]["trials"] for r in monte_carlo
                ),
                "adaptive_trials": sum(
                    r["adaptive"]["trials"] for r in monte_carlo
                ),
                "trials_saved": sum(r["trials_saved"] for r in monte_carlo),
            },
            "implicit_scaling": {
                "families": len(implicit_scaling),
                "failed": len(imp_failed),
                "max_n": max(
                    (r["n"] for r in implicit_scaling), default=0
                ),
            },
            "corpus": {
                "root": str(corpus.root) if corpus is not None else None,
                "hits": corpus_counters["hits"],
                "misses": corpus_counters["misses"],
            },
            "serving": None if serving is None else {
                "requests": sum(
                    p["requests"] for p in serving["phases"]
                ),
                "warm_rps": serving["phases"][-1]["rps"],
                "p50_ms": serving["phases"][-1]["latency_ms"]["p50"],
                "p99_ms": serving["phases"][-1]["latency_ms"]["p99"],
                "store_hit_rate": serving["phases"][-1]["store_hit_rate"],
                "ok": serving["ok"],
            },
        },
    }
    with open(args.out, "w") as handle:
        json.dump(artifact, handle, indent=1)
        handle.write("\n")
    if records:
        print(format_table(
            ["cell", "n", "max vol", "vol fit", "dist fit", "ok", "s"],
            [[
                f"{r['algorithm']} @ {r['family']}",
                "{}..{}".format(r["points"][0]["n"], r["points"][-1]["n"]),
                r["max_volume"],
                r["volume_fit"] or "-",
                r["distance_fit"] or "-",
                "ok" if r["ok"] else "FAIL",
                f"{r['elapsed']:.2f}",
            ] for r in records],
        ))
        print()
    if monte_carlo:
        print(format_table(
            ["monte carlo", "n", "trials", "rate", "ci", "stop", "ok"],
            [[
                f"{r['algorithm']} @ {r['family']}",
                r["n"],
                f"{r['fixed']['trials']}->{r['adaptive']['trials']}",
                f"{r['adaptive']['rate']:.3f}",
                "[{:.2f}, {:.2f}]".format(
                    r["adaptive"]["ci_low"], r["adaptive"]["ci_high"]
                ),
                r["adaptive"]["stopped"],
                "ok" if r["ok"] else "FAIL",
            ] for r in monte_carlo],
        ))
        print()
    if implicit_scaling:
        print(format_table(
            ["implicit", "n", "diff", "probed", "vol fit", "ok", "s"],
            [[
                r["family"],
                f"{r['n']:,}",
                "ok" if r["differential"]["ok"] else "FAIL",
                r["probe"]["nodes_checked"],
                r["volume_fit"] or "-",
                "ok" if r["ok"] else "FAIL",
                f"{r['wall_time']:.2f}",
            ] for r in implicit_scaling],
        ))
        print()
    if lower_bounds:
        print(format_table(
            ["lower bound", "n", "queries fit", "expected", "ok", "s"],
            [[
                f"{r['adversary']} vs {r['algorithm']}",
                "{}..{}".format(r["points"][0]["n"], r["points"][-1]["n"]),
                r["queries_fit"] or "-",
                "/".join(r["expected_fit"]),
                "ok" if r["ok"] else "FAIL",
                f"{r['wall_time']:.2f}",
            ] for r in lower_bounds],
        ))
        print()
    if corpus is not None:
        print(
            f"corpus {corpus.root}: {corpus_counters['hits']} instance "
            f"loads served, {corpus_counters['misses']} generated fresh"
        )
    serve_summary = artifact["summary"]["serving"]
    if serve_summary is not None:
        p50 = serve_summary["p50_ms"]
        p99 = serve_summary["p99_ms"]
        print(
            f"serving: {serve_summary['warm_rps']:.1f} req/s warm, "
            f"p50 {'-' if p50 is None else f'{p50:.1f}'}ms "
            f"p99 {'-' if p99 is None else f'{p99:.1f}'}ms, "
            f"store hit rate {serve_summary['store_hit_rate']:.2f} "
            f"({'ok' if serve_summary['ok'] else 'FAIL'})"
        )
        print()
    mc_summary = artifact["summary"]["monte_carlo"]
    print(
        f"{len(records)} cells, {artifact['summary']['points']} points, "
        f"{len(failed)} failed, {len(lower_bounds)} lower bounds, "
        f"{len(lb_failed)} lb-failed, {len(monte_carlo)} mc cells "
        f"({mc_summary['fixed_trials']} -> "
        f"{mc_summary['adaptive_trials']} trials, "
        f"{len(mc_failed)} mc-failed), {len(implicit_scaling)} implicit "
        f"families ({len(imp_failed)} implicit-failed), {elapsed:.1f}s, "
        f"{executions} executions "
        f"(mode={grid}, backend={artifact['backend']}, "
        f"oracle={artifact['oracle']}) -> {args.out}"
    )
    for record in failed:
        first_bad = next(p for p in record["points"] if not p["valid"])
        print(
            f"FAILED: {record['algorithm']} @ {record['family']} "
            f"param={first_bad['param']}: {first_bad['violations'][:1]}"
        )
    for record in lb_failed:
        print(
            f"LB FAILED: {record['adversary']} "
            f"(fitted {record['queries_fit']!r}, expected "
            f"{'/'.join(record['expected_fit'])})"
        )
    for record in mc_failed:
        print(
            f"MC FAILED: {record['algorithm']} @ {record['family']} "
            f"(fixed rate {record['fixed']['rate']:.3f}, adaptive rate "
            f"{record['adaptive']['rate']:.3f}, prefix_consistent="
            f"{record['prefix_consistent']})"
        )
    for record in imp_failed:
        print(
            f"IMPLICIT FAILED: {record['family']} "
            f"(differential ok={record['differential']['ok']}, "
            f"probe ok={record['probe']['ok']})"
        )
    if serve_failed:
        for failure in serving["failures"]:
            print(f"SERVING FAILED: {failure}")
    return (
        1
        if failed or lb_failed or mc_failed or imp_failed or serve_failed
        else 0
    )


def add_bench_arguments(sub) -> None:
    p_bench = sub.add_parser(
        "bench",
        help="run the registry smoke matrix, write BENCH_repro.json",
    )
    mode = p_bench.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", action="store_true",
        help="quick grids (default; what CI gates on)",
    )
    mode.add_argument(
        "--full", action="store_true",
        help="full paper-table grids (minutes, not seconds)",
    )
    p_bench.add_argument(
        "--backend",
        help="serial | reference | process[:N] (default serial; "
        "'reference' disables the compiled instance fast path)",
    )
    p_bench.add_argument(
        "--only", help="filter cells by substring of problem/algorithm/family"
    )
    p_bench.add_argument(
        "--seed", type=int, default=None,
        help="override every cell's registered default seed",
    )
    p_bench.add_argument(
        "--no-mc", action="store_true",
        help="skip the Monte-Carlo section (the artifact keeps an "
        "empty list)",
    )
    p_bench.add_argument(
        "--no-implicit", action="store_true",
        help="skip the implicit_scaling section (the artifact keeps "
        "an empty list)",
    )
    p_bench.add_argument(
        "--no-serve", action="store_true",
        help="skip the serving section (the artifact keeps a null "
        "section instead of measuring a live server)",
    )
    p_bench.add_argument(
        "--corpus", metavar="DIR", default=None,
        help="serve cell instances from this content-addressed corpus "
        "where present (summary.corpus records the hit/miss split)",
    )
    p_bench.add_argument("--out", default="BENCH_repro.json")
    p_bench.add_argument(
        "--list-cells", action="store_true",
        help="print the enumerated matrix as JSON and exit",
    )
    p_bench.add_argument("--progress", action="store_true")
    p_bench.set_defaults(func=cmd_bench)
