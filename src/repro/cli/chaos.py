"""``repro chaos`` — deterministic fault-injection verification by name.

Runs one registry cell under a seeded :class:`~repro.faults.plan.FaultPlan`
on a supervised :class:`~repro.exec.backends.ProcessPoolBackend` and
verifies the fault-tolerance contract end to end: the surviving result
must be **bitwise identical** to the fault-free serial run, and
``/dev/shm`` must be exactly as clean as before the run, no matter which
failure paths the plan exercised.  The plan is a pure value, so a
failing seed reproduces the exact same fault schedule on re-run.

``--quick`` runs the canned smoke matrix CI uses: two plan seeds on
whole-instance runs and two on trial batches.  The pool picks each
job's transport: plan seed 2 fails the first node run's shared-memory
publish, so one node run takes its chunk faults on the pickle
transport.  A trial batch runs its first trial in-process and ships the
rest by pickle when that trial read a random bit, as the default
``leaf-coloring/rw-to-leaf`` trials do; a batch whose first trial read
none is answered in-process and takes no chunk fault.

Exit codes: 0 every report OK, 1 any divergence or shm residue,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.registry import RegistryError, load_components


def _plan(args: argparse.Namespace, seed: int):
    from repro.faults.plan import FAULT_KINDS, FaultPlan

    kinds = FAULT_KINDS
    if args.kinds:
        kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    return FaultPlan(
        seed=seed,
        kinds=kinds,
        rate=args.rate,
        max_faults=args.max_faults,
        delay_s=args.delay,
        max_attempt=args.max_attempt,
    )


def _quick_matrix(args: argparse.Namespace):
    """The CI smoke matrix: plan seeds × workloads, as (plan, trials).

    Node runs under plan seeds 1 and 2 (seed 2 fails the shared-memory
    publish, so that run's chunks go by pickle), then two trial batches
    of 12 (the Monte-Carlo shape: trials after the first go by pickle
    when the first read a random bit).
    """
    from repro.faults.plan import FaultPlan

    return [
        (
            FaultPlan(seed=plan_seed, rate=0.5, max_faults=3,
                      delay_s=args.delay),
            trials,
        )
        for plan_seed, trials in ((1, None), (2, None), (3, 12), (4, 12))
    ]


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.cli import _fail, parse_param, resolve_cell
    from repro.faults.chaos import run_chaos

    load_components()
    try:
        problem, algorithm, family = resolve_cell(args.algorithm, args.family)
    except RegistryError as exc:
        return _fail(str(exc))
    param = (
        parse_param(args.param) if args.param is not None else family.quick[0]
    )
    try:
        instance = family.instance(param)
    except Exception as exc:  # bad --param values surface here
        return _fail(f"family {family.name!r} rejected param {param!r}: {exc}")
    seed = algorithm.seed if args.seed is None else args.seed
    try:
        if args.quick:
            jobs = _quick_matrix(args)
        else:
            jobs = [
                (_plan(args, plan_seed), args.trials)
                for plan_seed in range(
                    args.plan_seed, args.plan_seed + args.plans
                )
            ]
    except ValueError as exc:  # bad plan parameters (rate, kinds, ...)
        return _fail(str(exc))
    reports = []
    for plan, trials in jobs:
        report = run_chaos(
            problem.make(),
            instance,
            algorithm.make(),
            plan=plan,
            workers=args.workers,
            seed=seed,
            trials=trials,
            chunk_size=args.chunk_size,
            timeout=args.timeout,
        )
        reports.append(report)
        if not args.json:
            print(report.format_line())
            if report.detail:
                print(f"      {report.detail}", file=sys.stderr)
    failed = [r for r in reports if not r.ok]
    if args.json:
        print(
            json.dumps(
                {
                    "algorithm": algorithm.name,
                    "instance": instance.name,
                    "n": instance.n,
                    "workers": args.workers,
                    "ok": not failed,
                    "reports": [r.to_payload() for r in reports],
                },
                indent=2,
            )
        )
    else:
        verdict = "OK" if not failed else "FAIL"
        print(
            f"chaos: {len(reports) - len(failed)}/{len(reports)} plans "
            f"survived with bitwise-equal results and clean shared "
            f"memory: {verdict}"
        )
    return 1 if failed else 0


def add_chaos_arguments(sub) -> None:
    p_chaos = sub.add_parser(
        "chaos",
        help="verify fault-tolerant execution under a seeded fault plan",
    )
    p_chaos.add_argument("algorithm", help="registered algorithm name")
    p_chaos.add_argument(
        "--family", help="instance family (default: first compatible)"
    )
    p_chaos.add_argument(
        "--param",
        help="grid parameter (default: smallest quick-grid entry)",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=None,
        help="dispatch seed (default: the algorithm's registered seed)",
    )
    p_chaos.add_argument(
        "--workers", type=int, default=2,
        help="process-pool workers for the chaotic run (default 2)",
    )
    p_chaos.add_argument(
        "--chunk-size", type=int, default=2,
        help="chunk size — small values give faults distinct units to "
        "hit even on tiny instances (default 2)",
    )
    p_chaos.add_argument(
        "--trials", type=int, default=None,
        help="run a trial batch of this many solve-and-check trials "
        "instead of a whole-instance run",
    )
    p_chaos.add_argument(
        "--timeout", type=float, default=10.0,
        help="per-chunk supervision timeout in seconds (default 10)",
    )
    p_chaos.add_argument(
        "--plan-seed", type=int, default=0,
        help="first fault-plan seed (default 0)",
    )
    p_chaos.add_argument(
        "--plans", type=int, default=1,
        help="number of consecutive plan seeds to run (default 1)",
    )
    p_chaos.add_argument(
        "--rate", type=float, default=0.25,
        help="per-(unit, attempt) injection probability (default 0.25)",
    )
    p_chaos.add_argument(
        "--max-faults", type=int, default=4,
        help="total fault budget per plan (default 4)",
    )
    p_chaos.add_argument(
        "--max-attempt", type=int, default=2,
        help="last attempt index faults may fire on (default 2)",
    )
    p_chaos.add_argument(
        "--delay", type=float, default=1.5,
        help="delay-chunk sleep in seconds (default 1.5)",
    )
    p_chaos.add_argument(
        "--kinds", default=None,
        help="comma-separated fault-kind subset (default: all kinds)",
    )
    p_chaos.add_argument(
        "--quick", action="store_true",
        help="the CI smoke matrix: two plan seeds on whole-instance "
        "runs (one goes by pickle after a failed publish) and two on "
        "trial batches",
    )
    p_chaos.add_argument("--json", action="store_true")
    p_chaos.set_defaults(func=cmd_chaos)
