"""``repro adversary`` — run the lower-bound games from the command line.

* ``repro adversary run NAME`` — play one registered adversary at one
  budget point, verify the transcript/re-run conformance on the finished
  instance, and optionally save the canonical transcript JSON (the
  golden-file format under ``tests/adversary/golden/``);
* ``repro adversary sweep [NAME ...]`` — run budget grids for some (or
  all) registered adversaries, fit the measured query/bit curves, and
  gate them against each entry's expected Ω-class — the same records
  ``repro bench`` embeds as the artifact's ``lower_bounds`` section.

Exit codes: 0 success, 1 a lower bound failed to hold (or a fit
regressed), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
from typing import List

from repro.registry import ADVERSARIES, RegistryError, load_components


def _record_rows(record) -> List[List[str]]:
    rows = []
    for point in record["points"]:
        rows.append([
            record["adversary"],
            str(point["budget"]),
            str(point["n"]),
            str(point["queries"]),
            "-" if point["bits"] is None else str(point["bits"]),
            "yes" if point["upheld"] else "NO",
        ])
    return rows


def cmd_adversary_run(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.cli import _fail
    from repro.exec.backends import get_backend

    load_components()
    # The ExitStack owns the conformance re-run's backend, so a string
    # spec like process:2 is closed on every exit path (including the
    # _fail returns above a bare `backend.close()` would miss).
    with ExitStack() as stack:
        try:
            entry = ADVERSARIES.get(args.name)
            adversary = entry.make(args.algorithm)
            backend = get_backend(args.backend)
            stack.callback(backend.close)
            run = adversary.timed_run(
                entry.quick[-1] if args.budget is None else args.budget
            )
        except (RegistryError, ValueError) as exc:
            return _fail(str(exc))
        verified = adversary.verify(run, backend=backend)
    if args.transcript:
        with open(args.transcript, "w") as handle:
            handle.write(run.transcript.to_json())
    payload = {
        "adversary": entry.name,
        "problem": entry.problem,
        "bound": entry.bound,
        "algorithm": run.algorithm,
        **run.point(),
        "transcript_events": len(run.transcript),
        "verified": verified,
        "detail": {
            k: v
            for k, v in run.detail.items()
            if isinstance(v, (int, float, str, bool, type(None)))
        },
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        verdict = (
            "LOWER BOUND UPHELD" if run.upheld else "LOWER BOUND FAILED"
        )
        print(
            f"{entry.name} vs {run.algorithm} "
            f"(budget={payload['budget']}): {verdict}"
        )
        print(
            f"  bound: {entry.bound}"
        )
        print(
            f"  n={run.n}  queries={run.queries}"
            + ("" if run.bits is None else f"  bits={run.bits}")
            + f"  defeated={run.defeated}"
        )
        print(
            f"  transcript: {len(run.transcript)} events, replay+re-run "
            f"conformance {'ok' if verified else 'FAILED'} "
            f"({run.elapsed:.2f}s)"
        )
        if args.transcript:
            print(f"  transcript saved to {args.transcript}")
    return 0 if run.upheld and verified else 1


def cmd_adversary_sweep(args: argparse.Namespace) -> int:
    from repro.adversary.base import sweep_records
    from repro.cli import _fail, _progress_printer, format_table

    load_components()
    try:
        entries = (
            [ADVERSARIES.get(name) for name in args.names]
            if args.names
            else list(ADVERSARIES)
        )
    except RegistryError as exc:
        return _fail(str(exc))
    # stderr, so --progress cannot corrupt --json output.
    progress = _progress_printer if args.progress else None
    records = sweep_records(entries, args.grid, progress=progress)
    if args.json:
        print(json.dumps(records, indent=2))
        return 1 if any(not r["ok"] for r in records) else 0
    rows = []
    for record in records:
        rows.extend(_record_rows(record))
    print(format_table(
        ["adversary", "budget", "n", "queries", "bits", "upheld"], rows
    ))
    print()
    for record in records:
        fits = record["queries_fit"] or "-"
        if record["bits_fit"]:
            fits += f" (bits: {record['bits_fit']})"
        print(
            f"{record['adversary']:<28} {record['bound']:<44} "
            f"fitted {fits:<16} expected "
            f"{'/'.join(record['expected_fit'])}"
            f"  -> {'ok' if record['ok'] else 'FAIL'}"
        )
    return 1 if any(not r["ok"] for r in records) else 0


def add_adversary_arguments(sub) -> None:
    p_adv = sub.add_parser(
        "adversary",
        help="run the interactive lower-bound adversaries",
    )
    adv_sub = p_adv.add_subparsers(dest="adversary_command", required=True)

    p_run = adv_sub.add_parser(
        "run", help="play one adversary at one budget point and verify it"
    )
    p_run.add_argument("name", help="registered adversary name")
    p_run.add_argument(
        "--budget", type=int, default=None,
        help="budget-grid point (default: largest quick-grid entry)",
    )
    p_run.add_argument(
        "--algorithm", default=None,
        help="victim algorithm (default: the adversary's registered victim)",
    )
    p_run.add_argument(
        "--backend",
        help="backend for the conformance re-run "
        "(serial | reference | process[:N])",
    )
    p_run.add_argument(
        "--transcript", metavar="PATH",
        help="save the canonical transcript JSON (golden-file format)",
    )
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=cmd_adversary_run)

    p_sweep = adv_sub.add_parser(
        "sweep", help="sweep budget grids and gate the Ω-fits"
    )
    p_sweep.add_argument(
        "names", nargs="*",
        help="adversary names (default: all registered)",
    )
    p_sweep.add_argument(
        "--grid", choices=["quick", "full"], default="quick"
    )
    p_sweep.add_argument("--progress", action="store_true")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=cmd_adversary_sweep)
