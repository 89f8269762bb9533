"""Per-layer metrics from a traced run's spans.

The solve workloads report per *pass* (the traced run repeats a fixed
pass, so per-pass figures compare across runs with different pass
counts); ``graphs.generate_*`` is set-up work and reported once.  For
``serve-mixed`` the figures are per open-loop round, with the server
hosted in-process.

Self-time accounting: on the thread that did the work, the self times
of all spans plus the unattributed remainder add up to the measured
wall time exactly.  For the solve workloads that thread is the main
thread and the remainder is the root span's own self time (bench code
and unwrapped program code); for ``serve-mixed`` it is the servers'
worker threads and the remainder is their idle time, unwrapped work and
the server restarts between rounds.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import tracing
from tracing import _END, _EXTRA, _ID, _NAME, _PARENT, _START, _TID

ZERO_SERVE = (
    "serve.queue_wait_ms", "serve.batch_size_mean", "serve.server_ms",
    "serve.client_overhead_ms", "serve.store_hit_ratio", "serve.coalesced",
    "serve.rejected", "serve.deadline_timeouts", "load.late_p99_ms",
    "load.backlog_end",
)


def _children(spans: List[list]) -> Dict[int, List[list]]:
    kids: Dict[int, List[list]] = defaultdict(list)
    for s in spans:
        kids[s[_PARENT]].append(s)
    return kids


def accounting(spans: List[list], root: list, serve: bool) -> Dict[str, float]:
    """Wall time = attributed self time + unattributed remainder."""
    wall = (root[_END] - root[_START]) / 1e9
    if not serve:
        own = tracing.self_times(spans)
        unattributed = own[root[_ID]] / 1e9
        attributed = sum(own.values()) / 1e9 - unattributed
        return {"wall_s": wall, "attributed_s": attributed,
                "unattributed_s": unattributed, "thread": "main"}
    # Each round's server has its own worker thread; together they did
    # the work, one after the other.
    workers = [s for s in spans if s[_TID] != root[_TID]]
    ids = {s[_ID] for s in workers}
    attributed = sum(
        s[_END] - s[_START] for s in workers if s[_PARENT] not in ids
    ) / 1e9
    return {"wall_s": wall, "attributed_s": attributed,
            "unattributed_s": wall - attributed, "thread": "server worker"}


def per_layer(recorder, root, passes: int, extra: Dict[str, float],
              serve: bool) -> Tuple[Dict[str, float], Dict, Dict]:
    spans = recorder.spans
    start, end = root[_START], root[_END]
    window = [s for s in spans if s[_START] >= start and s[_END] <= end]
    table = tracing.layer_table(window)
    setup = tracing.layer_table(
        [s for s in spans if s[_NAME] == "graphs.generate"]
    )
    per = float(max(1, passes))

    def row(name: str, source=table) -> Dict[str, float]:
        return source.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    kids = _children(window)
    chain = tracing.ancestors(window)
    batches = trials_executed = builds_in_batches = 0
    adaptive = stopped_early = 0
    for s in window:
        if s[_NAME] == "exec.trial_batch":
            parent = next((p for p in chain(s)), None)
            if parent == "montecarlo.run_trials":
                batches += 1
                trials_executed += (s[_EXTRA] or {}).get("trials", 0)
        elif s[_NAME] == "model.oracle_build":
            if "exec.trial_batch" in chain(s):
                builds_in_batches += 1
        elif s[_NAME] == "montecarlo.run_trials":
            ran = any(k[_NAME] == "exec.trial_batch" for k in kids[s[_ID]])
            info = s[_EXTRA] or {}
            if ran and info.get("early_stop"):
                adaptive += 1
                stopped_early += info["trials"] < info["max_trials"]
    distinct = solves = 0
    for s in window:
        if s[_NAME] != "algorithms.solve":
            continue
        components = {
            (k[_EXTRA] or {}).get("component")
            for k in kids[s[_ID]] if k[_NAME] == "model.gather"
        }
        gathers = sum(1 for k in kids[s[_ID]] if k[_NAME] == "model.gather")
        distinct += len(components) if gathers else 0
        solves += gathers
    run = row("exec.run")
    acct = accounting(window, root, serve)
    metrics = {
        "graphs.generate_s": row("graphs.generate", setup)["total_s"],
        "graphs.generate_calls": row("graphs.generate", setup)["calls"],
        "model.gather_s": row("model.gather")["total_s"] / per,
        "model.gather_calls": row("model.gather")["calls"] / per,
        "model.gather_nodes": row("model.gather").get("nodes", 0) / per,
        "model.probe_exec_s": row("model.probe_exec")["total_s"] / per,
        "model.probe_execs": row("model.probe_exec")["calls"] / per,
        "model.oracle_build_s": row("model.oracle_build")["total_s"] / per,
        "model.oracle_builds": row("model.oracle_build")["calls"] / per,
        "model.oracle_builds_per_batch": (
            builds_in_batches / batches if batches else 0.0
        ),
        "model.queries": run.get("queries", 0) / per,
        "model.volume": run.get("volume", 0) / per,
        "model.random_bits": run.get("random_bits", 0) / per,
        "algorithms.reconstruct_s":
            row("algorithms.reconstruct")["total_s"] / per,
        "algorithms.reconstruct_calls":
            row("algorithms.reconstruct")["calls"] / per,
        "algorithms.solve_self_s": row("algorithms.solve")["self_s"] / per,
        "algorithms.solve_unique_ratio": distinct / solves if solves else 0.0,
        "lcl.validate_s": row("lcl.validate")["total_s"] / per,
        "lcl.validate_calls": row("lcl.validate")["calls"] / per,
        "exec.dispatch_self_s": (
            row("exec.run")["self_s"] + row("exec.trial_batch")["self_s"]
        ) / per,
        "exec.sweep_self_s": row("exec.sweep")["self_s"] / per,
        "montecarlo.run_trials_self_s":
            row("montecarlo.run_trials")["self_s"] / per,
        "montecarlo.batches": batches / per,
        "montecarlo.trials_executed": trials_executed / per,
        "montecarlo.early_stop_ratio": (
            stopped_early / adaptive if adaptive else 0.0
        ),
        "corpus.record_s": row("corpus.record")["total_s"] / per,
        "corpus.records": row("corpus.record").get("records", 0) / per,
        "corpus.get_response_s": row("corpus.get_response")["total_s"] / per,
        "corpus.record_response_s":
            row("corpus.record_response")["total_s"] / per,
        "trace.wall_s": acct["wall_s"] / per,
        "trace.unattributed_s": acct["unattributed_s"] / per,
    }
    for name in ZERO_SERVE:
        metrics[name] = 0.0
    if serve:
        busy = acct["attributed_s"]
        cost = tracing.span_cost_ns() * len(window) / 1e9
        metrics["trace.overhead_ratio"] = (busy / (busy - cost)
                                           if busy > cost else 1.0)
    metrics.update(extra)
    acct.update(per=per, unit="round" if serve else "pass")
    return metrics, table, acct


def format_table(table: Dict[str, Dict[str, float]], acct) -> str:
    """Where the time went: one line per span name, by self time."""
    per = acct["per"]
    lines = [
        f"{'span':28s} {'calls':>10s} {'total s':>10s} {'self s':>10s} "
        f"{'self %':>7s}   (per {acct['unit']})"
    ]
    wall = acct["wall_s"] or 1.0
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:28s} {row['calls'] / per:10.1f} "
            f"{row['total_s'] / per:10.4f} {row['self_s'] / per:10.4f} "
            f"{100.0 * row['self_s'] / wall:6.1f}%"
        )
    lines.append(
        f"{acct['thread']} thread: wall {acct['wall_s'] / per:.4f}s = "
        f"attributed {acct['attributed_s'] / per:.4f}s + unattributed "
        f"{acct['unattributed_s'] / per:.4f}s"
    )
    return "\n".join(lines)
