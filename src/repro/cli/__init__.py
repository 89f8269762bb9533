"""The ``repro`` command-line interface.

One addressable surface over the component registry:

* ``repro list`` — every registered problem, algorithm, instance family,
  and sweep suite, with capability metadata;
* ``repro run`` — solve-and-check one algorithm on one family instance
  by name (the same :func:`~repro.model.runner.solve_and_check` call the
  API makes, so verdicts are reproducible from the command line);
* ``repro sweep`` — execute named suites, an ad-hoc family x algorithm
  sweep, or a JSON spec file through the sweep orchestrator;
* ``repro mc`` — streaming Monte-Carlo success estimation on one
  registry cell, with confidence intervals and early stopping (see
  :mod:`repro.cli.mc`);
* ``repro bench`` — run the registry-enumerated smoke matrix and write
  the machine-readable ``BENCH_repro.json`` artifact (see
  :mod:`repro.cli.bench`).

Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.registry import (
    ADVERSARIES,
    ALGORITHMS,
    FAMILIES,
    PROBLEMS,
    RegistryError,
    iter_compatible,
    load_components,
)

USAGE_ERROR = 2


def _fail(message: str) -> int:
    print(f"repro: error: {message}", file=sys.stderr)
    return USAGE_ERROR


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A plain fixed-width table (no external dependencies)."""
    cells = [list(headers)] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def parse_param(text: str):
    """Parse a grid parameter: int, tuple, ... — or the raw string."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def resolve_cell(
    algorithm_name: str,
    family_name: Optional[str] = None,
    problem_name: Optional[str] = None,
):
    """Algorithm name (+ optional family/problem) -> registry entries.

    The shared resolution behind ``repro run`` and ``repro mc``: the
    algorithm determines the problem, the family defaults to the first
    compatible one, and every declared capability (family problems,
    per-algorithm family restrictions, an asserted problem name) is
    checked — raising :class:`~repro.registry.RegistryError` with the
    CLI's usage-error messages.
    """
    algorithm = ALGORITHMS.get(algorithm_name)
    problem = PROBLEMS.get(algorithm.problem)
    if problem_name is not None and problem_name != problem.name:
        raise RegistryError(
            f"algorithm {algorithm.name!r} solves {problem.name!r}, "
            f"not {problem_name!r}"
        )
    if family_name is not None:
        family = FAMILIES.get(family_name)
        if problem.name not in family.problems:
            raise RegistryError(
                f"family {family.name!r} does not generate "
                f"{problem.name!r} instances "
                f"(it generates: {', '.join(family.problems)})"
            )
        if (
            algorithm.families is not None
            and family.name not in algorithm.families
        ):
            raise RegistryError(
                f"algorithm {algorithm.name!r} is restricted to families "
                f"{', '.join(algorithm.families)}"
            )
    else:
        compatible = list(iter_compatible(algorithms=[algorithm.name]))
        if not compatible:
            raise RegistryError(
                f"no registered family generates instances of "
                f"{problem.name!r}"
            )
        family = compatible[0].family
    return problem, algorithm, family


def implicit_instance(family, param):
    """The :class:`~repro.model.implicit.InstanceSpec` for ``--implicit``.

    Shared by ``repro run`` and ``repro mc``: checks the family's
    ``implicit`` capability (with an error naming the families that have
    one) and validates the parameter eagerly, so bad ``--param`` values
    fail here instead of deep inside a backend.
    """
    from repro.model.implicit import InstanceSpec

    if not family.implicit:
        names = ", ".join(f.name for f in FAMILIES if f.implicit)
        raise RegistryError(
            f"family {family.name!r} has no implicit generator "
            f"(implicit-capable families: {names})"
        )
    spec = InstanceSpec(family.name, param)
    spec.n  # builds the generator: bad params raise ValueError here
    return spec


# ----------------------------------------------------------------------
# repro list
# ----------------------------------------------------------------------
def _list_payload() -> Dict[str, List[Dict[str, object]]]:
    from repro.suites import SUITES

    load_components()
    return {
        "problems": [
            {
                "name": entry.name,
                "class": entry.cls.__name__,
                "tags": list(entry.tags),
                "description": entry.description,
            }
            for entry in PROBLEMS
        ],
        "algorithms": [
            {
                "name": entry.name,
                "problem": entry.problem,
                "randomized": entry.randomized,
                "seed": entry.seed,
                "families": None
                if entry.families is None
                else list(entry.families),
                "description": entry.description,
            }
            for entry in ALGORITHMS
        ],
        "families": [
            {
                "name": entry.name,
                "problems": list(entry.problems),
                "quick": [repr(p) for p in entry.quick],
                "full": [repr(p) for p in entry.full],
                "n_range": list(entry.n_range),
                "implicit": entry.implicit,
                "description": entry.description,
            }
            for entry in FAMILIES
        ],
        "adversaries": [
            {
                "name": entry.name,
                "problem": entry.problem,
                "bound": entry.bound,
                "victim": entry.victim,
                "quick": [repr(p) for p in entry.quick],
                "full": [repr(p) for p in entry.full],
                "expected_fit": list(entry.expected_fit),
                "description": entry.description,
            }
            for entry in ADVERSARIES
        ],
        "suites": [
            {"name": d.name, "description": d.description}
            for d in SUITES.values()
        ],
    }


def cmd_list(args: argparse.Namespace) -> int:
    payload = _list_payload()
    kinds = (
        ["problems", "algorithms", "families", "adversaries", "suites"]
        if args.kind == "all"
        else [args.kind]
    )
    if args.json:
        print(json.dumps({k: payload[k] for k in kinds}, indent=2))
        return 0
    if "problems" in kinds:
        print(f"PROBLEMS ({len(payload['problems'])})")
        print(format_table(
            ["name", "class", "description"],
            [[p["name"], p["class"], p["description"]]
             for p in payload["problems"]],
        ))
        print()
    if "algorithms" in kinds:
        print(f"ALGORITHMS ({len(payload['algorithms'])})")
        print(format_table(
            ["name", "problem", "randomized", "seed"],
            [[a["name"], a["problem"],
              "yes" if a["randomized"] else "no", a["seed"]]
             for a in payload["algorithms"]],
        ))
        print()
    if "families" in kinds:
        print(f"FAMILIES ({len(payload['families'])})")
        print(format_table(
            ["name", "problems", "quick grid", "n range", "implicit"],
            [[f["name"], ",".join(f["problems"]),
              " ".join(f["quick"]),
              "{}..{}".format(*f["n_range"]),
              "yes" if f["implicit"] else ""]
             for f in payload["families"]],
        ))
        print()
    if "adversaries" in kinds:
        print(f"ADVERSARIES ({len(payload['adversaries'])})")
        print(format_table(
            ["name", "problem", "bound", "victim", "quick grid"],
            [[a["name"], a["problem"], a["bound"], a["victim"],
              " ".join(a["quick"])]
             for a in payload["adversaries"]],
        ))
        print()
    if "suites" in kinds:
        print(f"SUITES ({len(payload['suites'])})")
        print(format_table(
            ["name", "description"],
            [[s["name"], s["description"]] for s in payload["suites"]],
        ))
    return 0


# ----------------------------------------------------------------------
# repro run
# ----------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.exec.backends import get_backend
    from repro.model.runner import solve_and_check

    load_components()
    # One ExitStack owns any backend this handler constructs, so every
    # early-exit error path below still releases pool resources (a
    # leaked ProcessPoolExecutor races interpreter teardown).
    with ExitStack() as stack:
        try:
            problem, algorithm, family = resolve_cell(
                args.algorithm, args.family, args.problem
            )
            backend = get_backend(args.backend)
        except (RegistryError, ValueError) as exc:
            return _fail(str(exc))
        stack.callback(backend.close)
        param = (
            parse_param(args.param)
            if args.param is not None
            else family.quick[-1]
        )
        seed = algorithm.seed if args.seed is None else args.seed
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
        started = time.perf_counter()
        report = solve_and_check(
            problem.make(),
            instance,
            algorithm.make(),
            seed=seed,
            max_volume=args.max_volume,
            max_queries=args.max_queries,
            backend=backend,
        )
        elapsed = time.perf_counter() - started
    payload = {
        "algorithm": algorithm.name,
        "problem": problem.name,
        "family": family.name,
        "param": repr(param),
        "instance": instance.name,
        "n": instance.n,
        "implicit": bool(args.implicit),
        "seed": seed,
        "backend": args.backend or "serial",
        "valid": report.valid,
        "max_volume": report.run.max_volume,
        "mean_volume": report.run.mean_volume,
        "max_distance": report.run.max_distance,
        "max_queries": report.run.max_queries,
        "truncated_nodes": len(report.run.truncated_nodes),
        "violations": [str(v) for v in report.violations[:5]],
        "elapsed": elapsed,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        verdict = "VALID" if report.valid else "INVALID"
        print(
            f"{algorithm.name} on {instance.name} "
            f"(n={payload['n']}, seed={seed}, "
            f"backend={payload['backend']}): {verdict}"
        )
        print(
            f"  max volume {payload['max_volume']}  "
            f"mean volume {payload['mean_volume']:.1f}  "
            f"max distance {payload['max_distance']}  "
            f"max queries {payload['max_queries']}  "
            f"({elapsed:.2f}s)"
        )
        for line in payload["violations"]:
            print(f"  violation: {line}")
    return 0 if report.valid else 1


# ----------------------------------------------------------------------
# repro sweep
# ----------------------------------------------------------------------
def _spec_from_dict(entry: Dict[str, object]):
    """Build a SweepSpec from one spec-file dictionary."""
    from repro.exec.sweep import SweepSpec
    from repro.suites import root_only

    for required in ("family", "algorithm"):
        if required not in entry:
            raise ValueError(f"sweep spec is missing the {required!r} key")
    family_entry = FAMILIES.get(str(entry["family"]))
    algorithm = ALGORITHMS.get(str(entry["algorithm"]))
    grid = str(entry.get("grid", "quick"))
    params = entry.get("params")
    implicit = bool(entry.get("implicit", False))
    if implicit:
        from repro.exec.sweep import InstanceFamily
        from repro.model.implicit import ImplicitFamilyFactory

        if not family_entry.implicit:
            names = ", ".join(f.name for f in FAMILIES if f.implicit)
            raise ValueError(
                f"family {family_entry.name!r} has no implicit generator "
                f"(implicit-capable families: {names})"
            )
        family = InstanceFamily(
            f"{family_entry.name}[implicit]",
            ImplicitFamilyFactory(family_entry.name),
            list(params) if params is not None
            else family_entry.params(grid),
        )
    elif params is not None:
        from repro.exec.sweep import InstanceFamily

        family = InstanceFamily(
            family_entry.name, family_entry.factory, list(params)
        )
    else:
        family = family_entry.instance_family(grid)
    nodes = entry.get("nodes", "all")
    if nodes not in ("all", "root"):
        raise ValueError(f"unknown nodes policy {nodes!r} (all/root)")
    return SweepSpec(
        label=str(entry.get("label", f"{algorithm.name} @ {family.name}")),
        claimed=str(entry.get("claimed", "-")),
        family=family,
        metric=str(entry.get("metric", "volume")),
        algorithm_factory=algorithm.factory,
        nodes=root_only if nodes == "root" else None,
        seed=int(entry.get("seed", algorithm.seed)),
        candidates=entry.get("candidates"),
    )


def _sweep_results_payload(results) -> List[Dict[str, object]]:
    payload = []
    for result in results:
        fitted = result.fitted()
        payload.append({
            "label": result.spec.label,
            "claimed": result.spec.claimed,
            "ns": result.ns,
            "costs": result.costs,
            "fit": fitted.best,
            "multiplier": fitted.multiplier,
            "from_store": result.from_store,
        })
    return payload


def cmd_sweep(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.corpus import ResultStore, ResultStoreError
    from repro.exec.backends import get_backend
    from repro.exec.sweep import run_sweeps
    from repro.suites import run_suite

    load_components()
    progress = print if args.progress else None
    printer = None if args.json else print
    if args.seed is not None and not (args.family and args.algorithm):
        return _fail(
            "--seed only applies to ad-hoc --family/--algorithm sweeps; "
            "named suites and spec-file entries pin their own seeds"
        )
    results = []
    # One ExitStack owns the backend across every early-exit error path
    # below (a string spec like process:2 constructs a pool here; before
    # the stack, a _fail return between construction and the sweep body
    # leaked it).
    with ExitStack() as stack:
        try:
            backend = get_backend(args.backend)
        except ValueError as exc:
            return _fail(str(exc))
        stack.callback(backend.close)
        try:
            store = ResultStore(args.store) if args.store else None
        except ResultStoreError as exc:
            return _fail(str(exc))
        if store is not None:
            stack.callback(store.close)
        try:
            if args.suites:
                for name in args.suites:
                    results.extend(run_suite(
                        name,
                        backend=backend,
                        progress=progress,
                        printer=printer,
                        store=store,
                    ))
            elif args.spec_file:
                with open(args.spec_file) as handle:
                    entries = json.load(handle)
                if not isinstance(entries, list):
                    raise ValueError(
                        "spec file must hold a JSON list of specs"
                    )
                specs = [_spec_from_dict(e) for e in entries]
                results = run_sweeps(
                    specs, backend, progress=progress, store=store
                )
                if printer is not None:
                    for result in results:
                        printer(result.format_row())
            elif args.family and args.algorithm:
                spec = _spec_from_dict({
                    "family": args.family,
                    "algorithm": args.algorithm,
                    "metric": args.metric,
                    "grid": args.grid,
                    "implicit": args.implicit,
                    **({} if args.seed is None else {"seed": args.seed}),
                })
                results = run_sweeps(
                    [spec], backend, progress=progress, store=store
                )
                if printer is not None:
                    for result in results:
                        printer(result.format_row())
            else:
                return _fail(
                    "nothing to sweep: give suite names, --spec-file, or "
                    "--family with --algorithm (see `repro list` for names)"
                )
        except (
            RegistryError, ValueError, OSError, ResultStoreError,
        ) as exc:
            return _fail(str(exc))
    if args.json:
        print(json.dumps(_sweep_results_payload(results), indent=2))
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    from repro.cli.adversary import add_adversary_arguments
    from repro.cli.bench import add_bench_arguments
    from repro.cli.chaos import add_chaos_arguments
    from repro.cli.corpus import add_corpus_arguments
    from repro.cli.mc import add_mc_arguments
    from repro.cli.serve import add_serve_arguments

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Registry-driven CLI for the Rosenbaum-Suomela volume-"
            "complexity reproduction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser(
        "list", help="enumerate registered components and suites"
    )
    p_list.add_argument(
        "--kind",
        choices=[
            "problems",
            "algorithms",
            "families",
            "adversaries",
            "suites",
            "all",
        ],
        default="all",
    )
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser(
        "run", help="solve-and-check one algorithm on one instance by name"
    )
    p_run.add_argument("algorithm", help="registered algorithm name")
    p_run.add_argument("--problem", help="assert which problem is solved")
    p_run.add_argument(
        "--family", help="instance family (default: first compatible)"
    )
    p_run.add_argument(
        "--param",
        help="grid parameter, e.g. 5 or '(3, 2)' "
        "(default: largest quick-grid entry)",
    )
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument(
        "--implicit", action="store_true",
        help="serve the instance from its implicit generator "
        "(implicit-capable families only; nodes realized on demand)",
    )
    p_run.add_argument(
        "--backend", help="serial | batch | process[:N] (default serial)"
    )
    p_run.add_argument("--max-volume", type=int, default=None)
    p_run.add_argument("--max-queries", type=int, default=None)
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run named suites, a spec file, or an ad-hoc sweep"
    )
    p_sweep.add_argument(
        "suites", nargs="*", help="suite names (see `repro list`)"
    )
    p_sweep.add_argument("--spec-file", help="JSON file with a list of specs")
    p_sweep.add_argument("--family")
    p_sweep.add_argument("--algorithm")
    p_sweep.add_argument(
        "--metric", choices=["volume", "distance", "queries"],
        default="volume",
    )
    p_sweep.add_argument("--grid", choices=["quick", "full"], default="quick")
    p_sweep.add_argument(
        "--implicit", action="store_true",
        help="serve ad-hoc sweep instances from the family's implicit "
        "generator (InstanceSpec per grid point, nodes on demand)",
    )
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--backend")
    p_sweep.add_argument(
        "--store", metavar="PATH", default=None,
        help="sqlite result store: every executed point is committed as "
        "it completes, and points already recorded for the same spec "
        "hash are served from it instead of re-executing (an "
        "interrupted sweep resumes where it died)",
    )
    p_sweep.add_argument("--progress", action="store_true")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    add_mc_arguments(sub)
    add_adversary_arguments(sub)
    add_chaos_arguments(sub)
    add_bench_arguments(sub)
    add_corpus_arguments(sub)
    add_serve_arguments(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
