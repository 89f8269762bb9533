"""``repro mc`` — streaming Monte-Carlo success estimation by name.

Runs the :mod:`repro.montecarlo` engine on one registry cell (algorithm ×
family × grid parameter): batched solve-and-check trials with online
statistics and optional early stopping, the same
:func:`~repro.montecarlo.engine.run_trials` call the bench artifact's
``monte_carlo`` section and the ``success_rate`` sweep metric make.

Exit codes: 0 success, 1 the estimated rate fell below ``--gate``,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.registry import RegistryError, load_components


def _policy(args: argparse.Namespace):
    from repro.montecarlo.engine import QUICK_POLICY, TrialPolicy

    # --quick selects the shared preset (the exact policy the bench
    # artifact's monte_carlo section gates on); explicit flags override
    # it field by field — the budget flags default to None so a passed
    # value is distinguishable from "use the preset".
    base = QUICK_POLICY if args.quick else TrialPolicy()

    def pick(value, preset):
        return preset if value is None else value

    return TrialPolicy(
        min_trials=pick(args.min_trials, base.min_trials),
        max_trials=pick(args.max_trials, base.max_trials),
        batch_size=pick(args.batch_size, base.batch_size),
        confidence=pick(args.confidence, base.confidence),
        tolerance=pick(args.tolerance, base.tolerance),
        early_stop=not args.no_early_stop,
        method=pick(args.method, base.method),
    )


def cmd_mc(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.cli import (
        _fail,
        _progress_printer,
        implicit_instance,
        parse_param,
        resolve_cell,
    )
    from repro.exec.backends import get_backend
    from repro.montecarlo.engine import run_trials

    load_components()
    # One ExitStack owns the backend for the whole handler: every early
    # _fail return below (bad family/param, store errors, ...) still
    # releases pool resources promptly (a leaked ProcessPoolExecutor
    # races interpreter teardown and spews atexit tracebacks).
    with ExitStack() as stack:
        try:
            problem, algorithm, family = resolve_cell(
                args.algorithm, args.family
            )
            policy = _policy(args)
            backend = get_backend(args.backend)
        except (RegistryError, ValueError) as exc:
            return _fail(str(exc))
        stack.callback(backend.close)
        param = (
            parse_param(args.param)
            if args.param is not None
            else family.quick[-1]
        )
        base_seed = algorithm.seed if args.seed is None else args.seed
        try:
            if args.implicit:
                instance = implicit_instance(family, param)
            else:
                instance = family.instance(param)
        except RegistryError as exc:
            return _fail(str(exc))
        except Exception as exc:  # bad --param values surface here
            return _fail(
                f"family {family.name!r} rejected param {param!r}: {exc}"
            )
        from repro.corpus import ResultStore, ResultStoreError

        try:
            store = ResultStore(args.store) if args.store else None
            if store is not None:
                stack.callback(store.close)
            result = run_trials(
                problem.make(),
                instance,
                algorithm.make(),
                policy,
                base_seed=base_seed,
                backend=backend,
                store=store,
                # stderr, so --progress cannot corrupt --json output.
                progress=_progress_printer if args.progress else None,
            )
        except ResultStoreError as exc:
            return _fail(str(exc))
    low, high = result.interval()
    payload = {
        "algorithm": algorithm.name,
        "problem": problem.name,
        "family": family.name,
        "param": repr(param),
        "instance": instance.name,
        "n": instance.n,
        "implicit": bool(args.implicit),
        "base_seed": base_seed,
        "backend": args.backend or "serial",
        "policy": policy.describe(),
        **result.to_payload(),
    }
    if result.fault_log is not None:
        payload["faults"] = result.fault_log.to_payload()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{algorithm.name} on {instance.name} "
            f"(n={payload['n']}, base_seed={base_seed}, "
            f"backend={payload['backend']}):"
        )
        print(
            f"  rate {result.rate:.3f} "
            f"[{low:.3f}, {high:.3f}] @{policy.confidence:.0%} "
            f"({policy.method}), {result.trials} trials, "
            f"stopped: {result.stopped} ({result.elapsed:.2f}s)"
        )
        vol = result.volume_sketch.summary()
        dist = result.distance_sketch.summary()
        print(
            f"  per-trial max VOL p50/p90/max "
            f"{vol['p50']:g}/{vol['p90']:g}/{vol['max']:g}  "
            f"DIST p50/p90/max "
            f"{dist['p50']:g}/{dist['p90']:g}/{dist['max']:g}"
        )
    if args.gate is not None and result.rate < args.gate:
        print(
            f"repro mc: gate failed: rate {result.rate:.3f} < "
            f"{args.gate:.3f}",
            file=sys.stderr,
        )
        return 1
    return 0


def add_mc_arguments(sub) -> None:
    p_mc = sub.add_parser(
        "mc",
        help="streaming Monte-Carlo success estimation on one registry cell",
    )
    p_mc.add_argument("algorithm", help="registered algorithm name")
    p_mc.add_argument(
        "--family", help="instance family (default: first compatible)"
    )
    p_mc.add_argument(
        "--param",
        help="grid parameter, e.g. 5 or '(3, 0.1)' "
        "(default: largest quick-grid entry)",
    )
    p_mc.add_argument(
        "--seed", type=int, default=None,
        help="base seed; trial i runs under base_seed + i "
        "(default: the algorithm's registered seed)",
    )
    p_mc.add_argument(
        "--implicit", action="store_true",
        help="serve the instance from its implicit generator "
        "(implicit-capable families only)",
    )
    p_mc.add_argument(
        "--backend", help="serial | reference | process[:N]"
    )
    p_mc.add_argument(
        "--min-trials", type=int, default=None,
        help="default 16 (8 under --quick)",
    )
    p_mc.add_argument(
        "--max-trials", type=int, default=None,
        help="default 256 (32 under --quick)",
    )
    p_mc.add_argument(
        "--batch-size", type=int, default=None,
        help="default 16 (8 under --quick)",
    )
    p_mc.add_argument("--confidence", type=float, default=None)
    p_mc.add_argument(
        "--tolerance", type=float, default=None,
        help="stop once the CI half-width is within this "
        "(default 0.05; 0.1 under --quick)",
    )
    p_mc.add_argument(
        "--method", choices=["wilson", "clopper-pearson"], default=None
    )
    p_mc.add_argument(
        "--no-early-stop", action="store_true",
        help="fixed-count semantics: run exactly --max-trials trials",
    )
    p_mc.add_argument(
        "--quick", action="store_true",
        help="the bench-artifact preset: 8..32 trials in batches of 8, "
        "tolerance 0.1; explicit flags still override",
    )
    p_mc.add_argument(
        "--gate", type=float, default=None,
        help="exit 1 if the estimated rate falls below this",
    )
    p_mc.add_argument(
        "--store", metavar="PATH", default=None,
        help="sqlite result store: each trial batch is committed under "
        "the run's spec hash as it completes and replayed (not re-run) "
        "on the next identical invocation, also after an interruption",
    )
    p_mc.add_argument("--progress", action="store_true")
    p_mc.add_argument("--json", action="store_true")
    p_mc.set_defaults(func=cmd_mc)
