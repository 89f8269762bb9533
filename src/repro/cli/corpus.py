"""``repro corpus`` — manage the content-addressed instance corpus.

Five verbs over one corpus directory (see :mod:`repro.corpus`):

* ``generate`` — build a registered family's grid via the registry and
  store every instance under its content address;
* ``list`` — the manifest (and, with ``--store``, the sqlite result
  store's row counts);
* ``verify`` — re-hash every entry file against the manifest, exit 1
  on any mismatch, missing file, mis-filed key, or stray file;
* ``export`` / ``import`` — a deterministic ``.tar.gz`` round trip:
  export refuses an unverifiable corpus, import re-hashes every entry
  before accepting anything.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
from typing import List

from repro.registry import FAMILIES, RegistryError, load_components


def cmd_corpus(args: argparse.Namespace) -> int:
    from repro.cli import _fail
    from repro.corpus import CorpusError, InstanceCorpus

    corpus = InstanceCorpus(args.root)
    try:
        handler = {
            "generate": _corpus_generate,
            "list": _corpus_list,
            "verify": _corpus_verify,
            "export": _corpus_export,
            "import": _corpus_import,
        }[args.action]
        return handler(corpus, args)
    except (CorpusError, RegistryError, OSError, ValueError) as exc:
        return _fail(str(exc))


def _corpus_generate(corpus, args: argparse.Namespace) -> int:
    from repro.cli import parse_param

    load_components()
    if args.families:
        names = list(args.families)
    else:
        names = [entry.name for entry in FAMILIES]
    params = (
        None
        if not args.params
        else [parse_param(text) for text in args.params]
    )
    if params is not None and len(names) != 1:
        raise ValueError(
            "--param applies to exactly one family; name it explicitly"
        )
    progress = print if args.progress else None
    stored = skipped = 0
    for name in names:
        for _, created in corpus.generate(
            name,
            grid=args.grid,
            params=params,
            seed=args.seed,
            progress=progress,
        ):
            if created:
                stored += 1
            else:
                skipped += 1
    print(
        f"corpus {corpus.root}: {stored} entr"
        f"{'y' if stored == 1 else 'ies'} stored, {skipped} already "
        "present"
    )
    return 0


def _corpus_list(corpus, args: argparse.Namespace) -> int:
    from repro.cli import format_table

    entries = corpus.list_entries()
    payload = {
        "root": str(corpus.root),
        "entries": [
            {
                "key": e.key,
                "family": e.family,
                "param": e.param_repr,
                "seed": e.seed,
                "n": e.n,
                "name": e.name,
                "content_hash": e.content_hash,
                "created_at": e.created_at,
            }
            for e in entries
        ],
    }
    if args.store:
        from contextlib import closing

        from repro.corpus import ResultStore

        with closing(ResultStore(args.store)) as store:
            payload["store"] = store.summary()
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"CORPUS {corpus.root} ({len(entries)} entries)")
    if entries:
        print(format_table(
            ["key", "family", "param", "seed", "n", "content hash"],
            [[e.key, e.family, e.param_repr, e.seed, e.n,
              e.content_hash[:16] + "..."] for e in entries],
        ))
    if "store" in payload:
        counts = payload["store"]
        print(
            f"STORE {args.store}: {counts['sweeps']} sweeps / "
            f"{counts['sweep_points']} points, {counts['trial_runs']} "
            f"trial runs / {counts['trials']} trials"
        )
    return 0


def _corpus_verify(corpus, args: argparse.Namespace) -> int:
    problems: List[str] = corpus.verify()
    count = len(corpus.list_entries())
    if args.json:
        print(json.dumps({
            "root": str(corpus.root),
            "entries": count,
            "ok": not problems,
            "problems": problems,
        }, indent=2))
    else:
        for line in problems:
            print(f"corpus verify: {line}")
        verdict = "OK" if not problems else f"{len(problems)} problem(s)"
        print(f"corpus {corpus.root}: {count} entries, {verdict}")
    return 0 if not problems else 1


def _corpus_export(corpus, args: argparse.Namespace) -> int:
    count = corpus.export(args.archive)
    print(f"exported {count} entries to {args.archive}")
    return 0


def _corpus_import(corpus, args: argparse.Namespace) -> int:
    imported, skipped = corpus.import_archive(args.archive)
    print(
        f"imported {imported} entr{'y' if imported == 1 else 'ies'} "
        f"into {corpus.root}, {skipped} already present"
    )
    return 0


def add_corpus_arguments(sub) -> None:
    p_corpus = sub.add_parser(
        "corpus",
        help="generate, inspect, verify, and exchange instance corpora",
    )
    p_corpus.add_argument(
        "action",
        choices=["generate", "list", "verify", "export", "import"],
    )
    p_corpus.add_argument(
        "--root", default="corpus",
        help="corpus directory (default ./corpus)",
    )
    p_corpus.add_argument(
        "--family", dest="families", action="append", default=[],
        metavar="NAME",
        help="family to generate (repeatable; default: every registered "
        "family)",
    )
    p_corpus.add_argument(
        "--grid", choices=["quick", "full"], default="quick",
        help="parameter grid to generate (default quick)",
    )
    p_corpus.add_argument(
        "--param", dest="params", action="append", default=[],
        metavar="PARAM",
        help="explicit grid parameter (repeatable; needs exactly one "
        "--family)",
    )
    p_corpus.add_argument(
        "--seed", type=int, default=0,
        help="generation seed recorded in each entry's address "
        "(default 0)",
    )
    p_corpus.add_argument(
        "--archive", default="corpus.tar.gz",
        help="archive path for export/import (default corpus.tar.gz)",
    )
    p_corpus.add_argument(
        "--store", metavar="PATH", default=None,
        help="with `list`: also summarize this sqlite result store",
    )
    p_corpus.add_argument("--progress", action="store_true")
    p_corpus.add_argument("--json", action="store_true")
    p_corpus.set_defaults(func=cmd_corpus)


__all__ = ["add_corpus_arguments", "cmd_corpus"]
