"""The two solve workloads: ``gather-solve`` and ``probe-sublinear``.

Both run in this one process on the serial backend and repeat a fixed
*pass* until the run's time is used up.  A pass, in a seed-shuffled cell
order:

1. sweeps every cell over its grid through ``run_sweep`` with a fresh
   ``ResultStore`` (the ``repro sweep --store`` path), solving and
   checking each grid point;
2. estimates each Monte-Carlo cell with ``run_trials`` through the same
   store (the ``repro mc --store`` path);
3. replays every sweep and estimate from the store, which must answer
   all of them without executing anything.

Grid points and trial runs executed in step 1–2 are *misses*; the store
replays of step 3 are *hits*.  Every executed point, trial run and
replay is checked against the recorded digests in ``golden.json``.

The workload seed shuffles the cell order and picks each randomized
cell's tape seed from the cell's recorded seed pool; the program sees
only the resulting inputs.  Monte-Carlo estimates always use the
registered seed, so the set of trials (and with it the adaptive stopping
points) is the same for every workload seed and ``trials_per_s`` measures
the program, not the draw.

A run's metrics come from its *best pass*: every operation's fastest
time over the run's passes.  The same operations repeat in every pass
and outside load on a shared host only ever adds time, so the fastest
repetition is the steadiest estimate of what an operation costs; the
driver's medians over runs then do the rest.

Operations are timed in this process's CPU time (:data:`CLOCK`).  The
work is single-threaded, in-process and CPU-bound, so on an idle core
CPU time equals wall time; on a shared host it leaves out the time the
process waited for a core, which wall-clock timings of the same
operations picked up in every pass of some runs and not of others.
Waits on the disk (sqlite's syncs of store writes) are left out too.
Each pass's wall time is still recorded (``pass_wall_s`` in the result
record).
"""

from __future__ import annotations

import ast
import contextlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import DigestBook, digest, latency_summary

GATHER = "gather-solve"
PROBE = "probe-sublinear"
WORKLOADS = (GATHER, PROBE)

# probe-sublinear extends each quick grid with the full-grid points up
# to this size: big enough for a steady pass, small enough that no
# superlinear cell dominates it.
PROBE_MAX_N = 256
# Randomized cells get this many recorded tape seeds to draw from.
SEED_POOL = 4
# gather-solve's Monte-Carlo step: fixed-count trials at the mid point.
GATHER_TRIALS = 4
# The clock operations are timed with (see the module docstring).
CLOCK = time.process_time


def is_full_gather(cell) -> bool:
    return cell.algorithm.name.endswith("/full-gather")


def cell_id(cell) -> str:
    return f"{cell.algorithm.name}@{cell.family.name}"


def point_key(cid: str, param_repr: str, seed: int) -> str:
    return f"point|{cid}|{param_repr}|seed={seed}"


def mc_key(cid: str, param_repr: str, seed: int, policy) -> str:
    return f"mc|{cid}|{param_repr}|base={seed}|{digest(policy.describe())}"


def workload_cells(workload: str):
    from repro.registry import iter_compatible

    return [
        c for c in iter_compatible()
        if is_full_gather(c) == (workload == GATHER)
    ]


def workload_policy(workload: str):
    from repro.montecarlo.engine import QUICK_POLICY, TrialPolicy

    if workload == GATHER:
        return TrialPolicy.fixed(GATHER_TRIALS)
    return QUICK_POLICY


def point_digest(report) -> Dict[str, object]:
    run = report.run
    profiles = run.profiles.values()
    return {
        "valid": bool(report.valid),
        "n": len(run.profiles),
        "max_volume": run.max_volume,
        "mean_volume": run.mean_volume,
        "max_distance": run.max_distance,
        "max_queries": run.max_queries,
        "queries": sum(p.queries for p in profiles),
        "random_bits": run.total_random_bits,
        "truncated": len(run.truncated_nodes),
    }


def mc_digest(result) -> Dict[str, object]:
    return {
        "trials": result.trials,
        "successes": result.successes,
        "stopped": result.stopped,
        "verdicts": "".join("1" if v else "0" for v in result.verdicts),
    }


@dataclass
class CellPlan:
    cell: object
    problem: object
    params: List[object]
    seed: int
    mc_param: Optional[object]
    mc_seed: int


# Operation kinds: a "point" is one solved-and-checked grid point and a
# "trials" one run_trials estimate (both misses); a "sweep" is one cell's
# whole run_sweep call (the unit of executions_per_s, its points are
# timed separately); a "replay" is one store-served sweep or estimate.
MISS_KINDS = ("point", "trials")


@dataclass
class PassStats:
    wall_s: float = 0.0
    # operation key -> (kind, seconds, executions, trials)
    ops: Dict[str, Tuple[str, float, int, int]] = field(default_factory=dict)

    def add(self, key: str, kind: str, seconds: float,
            executions: int = 0, trials: int = 0) -> None:
        self.ops[f"{kind}|{key}"] = (kind, seconds, executions, trials)


class SolveWorkload:
    """Set-up (instances, plan) plus the repeatable measured pass."""

    def __init__(
        self, workload: str, seed: int, golden: Dict[str, object]
    ) -> None:
        from repro.exec.backends import get_backend
        from repro.registry import load_components

        load_components()
        recorded = golden[workload]
        self.policy = workload_policy(workload)
        self.backend = get_backend("serial")
        rng = random.Random(f"{workload}:{seed}")
        by_id = {cell_id(c): c for c in workload_cells(workload)}
        self.instances: Dict[tuple, object] = {}
        self.cells: List[CellPlan] = []
        for entry in recorded["cells"]:
            cell = by_id[entry["cell"]]
            params = [ast.literal_eval(p) for p in entry["params"]]
            seeds = entry["seeds"]
            mc_param = (
                None if entry["mc_param"] is None
                else ast.literal_eval(entry["mc_param"])
            )
            plan = CellPlan(
                cell=cell,
                problem=cell.problem.make(),
                params=params,
                seed=rng.choice(seeds),
                mc_param=mc_param,
                mc_seed=seeds[0],
            )
            for param in params + ([mc_param] if mc_param is not None else []):
                key = (cell.family.name, repr(param))
                if key not in self.instances:
                    self.instances[key] = cell.family.instance(param)
            self.cells.append(plan)
        rng.shuffle(self.cells)

    # ------------------------------------------------------------------
    def _family(self, plan: CellPlan):
        from repro.exec.sweep import InstanceFamily

        name = plan.cell.family.name
        return InstanceFamily(
            name, lambda p: self.instances[(name, repr(p))], plan.params
        )

    def run_pass(self, store_path, book: DigestBook, recorder=None) -> PassStats:
        """One full pass; returns its timings, checks into ``book``."""
        from repro.corpus.results import ResultStore
        from repro.exec import sweep as sweep_layer
        from repro.exec.sweep import SweepSpec
        from repro.model import runner
        from repro.montecarlo import engine

        stats = PassStats()
        keyed = (
            recorder.keyed if recorder is not None
            else lambda key: contextlib.nullcontext()
        )
        started = time.perf_counter()
        store = ResultStore(store_path)
        sweeps = []
        for plan in self.cells:
            cid = cell_id(plan.cell)
            fresh: Dict[str, float] = {}
            calls = [0]
            executions = [0]

            def measure(instance, param, plan=plan, cid=cid, fresh=fresh,
                        calls=calls, executions=executions):
                calls[0] += 1
                key = point_key(cid, repr(param), plan.seed)
                with keyed(key):
                    begun = CLOCK()
                    report = runner.solve_and_check(
                        plan.problem,
                        instance,
                        plan.cell.algorithm.make(),
                        seed=plan.seed,
                        backend=self.backend,
                    )
                    stats.add(key, "point", CLOCK() - begun)
                values = point_digest(report)
                book.check(key, digest(values), ok=values["valid"])
                executions[0] += values["n"]
                fresh[repr(param)] = float(report.run.max_volume)
                return float(report.run.max_volume)

            spec = SweepSpec(
                label=cid, claimed="-", family=self._family(plan),
                measure=measure,
            )
            begun = CLOCK()
            sweep_layer.run_sweep(spec, self.backend, store=store)
            stats.add(cid, "sweep", CLOCK() - begun,
                      executions=executions[0])
            sweeps.append((plan, spec, fresh, calls))

        estimates = []
        for plan in self.cells:
            if plan.mc_param is None:
                continue
            cid = cell_id(plan.cell)
            key = mc_key(cid, repr(plan.mc_param), plan.mc_seed, self.policy)
            instance = self.instances[
                (plan.cell.family.name, repr(plan.mc_param))
            ]
            with keyed(key):
                begun = CLOCK()
                result = engine.run_trials(
                    plan.problem,
                    instance,
                    plan.cell.algorithm.make(),
                    self.policy,
                    base_seed=plan.mc_seed,
                    backend=self.backend,
                    store=store,
                )
                stats.add(key, "trials", CLOCK() - begun,
                          trials=result.trials)
            values = mc_digest(result)
            book.check(key, digest(values))
            estimates.append((plan, key, instance, values))

        for plan, spec, fresh, calls in sweeps:
            cid = cell_id(plan.cell)
            executed = calls[0]
            with keyed(f"replay|{cid}"):
                begun = CLOCK()
                result = sweep_layer.run_sweep(spec, self.backend, store=store)
                stats.add(cid, "replay", CLOCK() - begun)
            restored = {repr(p.param): p.cost for p in result.points}
            book.verify(
                f"replay|{cid}",
                calls[0] == executed and restored == fresh,
                "store replay executed points or differs from the sweep",
            )
        for plan, key, instance, values in estimates:
            with keyed(f"replay|{key}"):
                begun = CLOCK()
                result = engine.run_trials(
                    plan.problem,
                    instance,
                    plan.cell.algorithm.make(),
                    self.policy,
                    base_seed=plan.mc_seed,
                    backend=self.backend,
                    store=store,
                )
                stats.add(key, "replay", CLOCK() - begun)
            book.verify(
                f"replay|{key}",
                mc_digest(result) == values,
                "store replay differs from the estimate",
            )
        stats.wall_s = time.perf_counter() - started
        return stats


def best_pass(passes: List[PassStats]) -> Dict[str, tuple]:
    """Every operation with its fastest time over the run's passes."""
    return {
        key: (kind, min(p.ops[key][1] for p in passes), execs, trials)
        for key, (kind, _, execs, trials) in passes[0].ops.items()
    }


def pass_metrics(passes: List[PassStats]):
    """End-to-end metrics of the run's best pass, plus detail."""
    ops = best_pass(passes).values()

    def total(kind: str, field_index: int) -> float:
        return sum(op[field_index] for op in ops if op[0] == kind)

    miss = [op[1] for op in ops if op[0] in MISS_KINDS]
    hit = [op[1] for op in ops if op[0] == "replay"]
    busy = total("sweep", 1) + total("trials", 1) + total("replay", 1)
    every, hits, misses = (
        latency_summary(miss + hit), latency_summary(hit),
        latency_summary(miss),
    )
    metrics = {
        "executions_per_s": total("sweep", 2) / total("sweep", 1),
        "trials_per_s": total("trials", 3) / total("trials", 1),
        "achieved_rps": (len(miss) + len(hit)) / busy,
        "p50_ms": every["p50_ms"],
        "p99_ms": every["tail_ms"],
        "hit_p50_ms": hits["p50_ms"],
        "miss_p50_ms": misses["p50_ms"],
    }
    detail = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "ops": {
            key: [kind, [p.ops[key][1] for p in passes], execs, trials]
            for key, (kind, _, execs, trials) in passes[0].ops.items()
        },
        "latency": every,
        "hit": hits,
        "miss": misses,
    }
    return metrics, detail


# ----------------------------------------------------------------------
# recording the golden digests
# ----------------------------------------------------------------------
def record(workload: str) -> Dict[str, object]:
    """Plan every cell and digest every item any seed can ask for.

    Randomized cells get the first :data:`SEED_POOL` seeds (from the
    registered one upward) under which every grid point validates, so
    no workload seed can pick an input the algorithm fails on.
    """
    from repro.exec.backends import get_backend
    from repro.model.runner import solve_and_check
    from repro.montecarlo.engine import run_trials
    from repro.registry import load_components

    load_components()
    backend = get_backend("serial")
    policy = workload_policy(workload)
    cells = []
    items: Dict[str, str] = {}
    for cell in workload_cells(workload):
        cid = cell_id(cell)
        problem = cell.problem.make()
        params = list(cell.family.quick)
        if workload == PROBE:
            for param in cell.family.full:
                if param in params:
                    continue
                if cell.family.instance(param).n <= PROBE_MAX_N:
                    params.append(param)
        instances = {repr(p): cell.family.instance(p) for p in params}
        seeds: List[int] = []
        candidate = cell.algorithm.seed
        wanted = SEED_POOL if cell.algorithm.randomized else 1
        while len(seeds) < wanted:
            digests = {}
            for param in params:
                report = solve_and_check(
                    problem, instances[repr(param)], cell.algorithm.make(),
                    seed=candidate, backend=backend,
                )
                values = point_digest(report)
                if not values["valid"]:
                    break
                digests[point_key(cid, repr(param), candidate)] = digest(values)
            else:
                items.update(digests)
                seeds.append(candidate)
            candidate += 1
            if candidate > cell.algorithm.seed + 64:
                raise RuntimeError(f"{cid}: no valid seed pool")
        mc_param = None
        if workload == GATHER or cell.algorithm.randomized:
            mc_param = cell.family.quick[1 if len(cell.family.quick) > 1 else 0]
            result = run_trials(
                problem, cell.family.instance(mc_param),
                cell.algorithm.make(), policy, base_seed=seeds[0],
                backend=backend,
            )
            items[mc_key(cid, repr(mc_param), seeds[0], policy)] = digest(
                mc_digest(result)
            )
        cells.append({
            "cell": cid,
            "params": [repr(p) for p in params],
            "seeds": seeds,
            "mc_param": None if mc_param is None else repr(mc_param),
        })
        print(f"recorded {workload} {cid}: {len(params)} points, "
              f"seeds {seeds}")
    return {"cells": cells, "items": items}
