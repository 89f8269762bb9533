"""Span recording from outside the program: wrappers around layer calls.

The traced run installs wrappers on the public functions of each layer
(the table in :data:`LAYER_CALLS`); ``src/`` itself is never edited.  A
wrapper records one span per call — name, start, end, parent span, the
thread, and the key of the cell/param/trial or request the bench was
working on — and, for a few calls, counts read off the call's result
(gathered nodes, cost-profile totals, trial batches).  Spans live in
memory until the run ends; :func:`chrome_trace` writes them as Chrome
trace-event JSON (Perfetto opens it) and :func:`layer_table` folds them
into count / total / self time per span name.

Self time is a span's duration minus the time its child spans cover.
Spans nest strictly within one thread, so the self times of a root span
and all its descendants add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# Span fields, as stored: [id, name, thread id, start ns, end ns,
# parent id, key, extra dict or None].
_ID, _NAME, _TID, _START, _END, _PARENT, _KEY, _EXTRA = range(8)


class SpanRecorder:
    """Thread-aware in-memory span store."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self.thread_names: Dict[int, str] = {}

    # -- per-thread state ---------------------------------------------
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            thread = threading.current_thread()
            self.thread_names[thread.ident] = thread.name
        return stack

    def current_key(self) -> Optional[str]:
        return getattr(self._local, "key", None)

    @contextmanager
    def keyed(self, key: Optional[str]):
        """Attribute spans opened inside the block to ``key``."""
        previous = getattr(self._local, "key", None)
        self._local.key = key
        try:
            yield
        finally:
            self._local.key = previous

    # -- spans ----------------------------------------------------------
    def open(self, name: str, key: Optional[str] = None) -> list:
        stack = self._stack()
        with self._lock:
            self._next += 1
            span_id = self._next
        span = [
            span_id,
            name,
            threading.get_ident(),
            time.perf_counter_ns(),
            0,
            stack[-1][_ID] if stack else 0,
            key if key is not None else self.current_key(),
            None,
        ]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[_END] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, key: Optional[str] = None):
        record = self.open(name, key)
        try:
            yield record
        finally:
            self.close(record)


def add(span: list, name: str, amount) -> None:
    """Accumulate a count on a span (``extra[name] += amount``)."""
    extra = span[_EXTRA]
    if extra is None:
        extra = span[_EXTRA] = {}
    extra[name] = extra.get(name, 0) + amount


# ----------------------------------------------------------------------
# result hooks: counts read off a wrapped call's arguments and result
# ----------------------------------------------------------------------
def _gather_hook(span, args, kwargs, result) -> None:
    ball = result[0]
    # Components are disjoint, so (kernel, smallest member) names one.
    span[_EXTRA] = {
        "nodes": len(ball.info),
        "component": (id(args[0]), min(ball.info)),
    }


def _run_hook(span, args, kwargs, result) -> None:
    profiles = getattr(result, "profiles", None) or {}
    queries = volume = bits = 0
    for profile in profiles.values():
        queries += profile.queries
        volume += profile.volume
        bits += profile.random_bits
    add(span, "queries", queries)
    add(span, "volume", volume)
    add(span, "random_bits", bits)


def _trial_batch_hook(span, args, kwargs, result) -> None:
    add(span, "trials", len(result))


def _run_trials_hook(span, args, kwargs, result) -> None:
    policy = getattr(result, "policy", None)
    add(span, "trials", getattr(result, "trials", 0))
    add(span, "early_stop", int(bool(getattr(policy, "early_stop", False))))
    add(span, "max_trials", getattr(policy, "max_trials", 0))


def _record_trials_hook(span, args, kwargs, result) -> None:
    records = args[2] if len(args) > 2 else kwargs.get("records", ())
    add(span, "records", len(records))


def _record_point_hook(span, args, kwargs, result) -> None:
    add(span, "records", 1)


def _job_key(args, kwargs) -> Optional[str]:
    job = args[1] if len(args) > 1 else None
    return getattr(job, "key", None)


# (module, attribute path, span name, result hook, key-from-args).  A
# missing module or attribute is skipped and reported, so the traced run
# keeps working while later changes reshape the program's internals.
LAYER_CALLS: Tuple[tuple, ...] = (
    ("repro.registry", "FamilyEntry.instance", "graphs.generate", None, None),
    ("repro.model.batched", "CsrGatherKernel.ball", "model.gather",
     _gather_hook, None),
    ("repro.exec.backends", "execute_at", "model.probe_exec", None, None),
    ("repro.exec.backends", "as_oracle", "model.oracle_build", None, None),
    ("repro.model.runner", "solve_and_check", "model.solve_and_check",
     None, None),
    ("repro.algorithms.generic", "ball_to_instance",
     "algorithms.reconstruct", None, None),
    ("repro.algorithms.generic", "FullGatherAlgorithm.run_node_batch",
     "algorithms.solve", None, None),
    ("repro.algorithms.generic", "FullGatherAlgorithm.run",
     "algorithms.solve", None, None),
    ("repro.exec.backends", "SerialBackend.run", "exec.run", _run_hook, None),
    ("repro.exec.backends", "ExecutionBackend.run_trial_batch",
     "exec.trial_batch", _trial_batch_hook, None),
    ("repro.exec.backends", "SerialBackend.run_trial_batch",
     "exec.trial_batch", _trial_batch_hook, None),
    ("repro.exec.backends", "BatchBackend.run_trial_batch",
     "exec.trial_batch", _trial_batch_hook, None),
    ("repro.exec.sweep", "run_sweep", "exec.sweep", None, None),
    ("repro.montecarlo.engine", "run_trials", "montecarlo.run_trials",
     _run_trials_hook, None),
    ("repro.corpus.results", "ResultStore.record_trials", "corpus.record",
     _record_trials_hook, None),
    ("repro.corpus.results", "ResultStore.record_sweep_point",
     "corpus.record", _record_point_hook, None),
    ("repro.corpus.results", "ResultStore.record_sweep_meta",
     "corpus.record_meta", None, None),
    ("repro.corpus.results", "ResultStore.record_trial_run",
     "corpus.record_meta", None, None),
    ("repro.corpus.results", "ResultStore.sweep_points", "corpus.read",
     None, None),
    ("repro.corpus.results", "ResultStore.sweep_describe", "corpus.read",
     None, None),
    ("repro.corpus.results", "ResultStore.trial_records", "corpus.read",
     None, None),
    ("repro.corpus.results", "ResultStore.get_response",
     "corpus.get_response", None, None),
    ("repro.corpus.results", "ResultStore.record_response",
     "corpus.record_response", None, None),
    ("repro.serve.scheduler", "BatchScheduler._run_job", "serve.job",
     None, _job_key),
)


def _validate_targets() -> List[Tuple[type, str]]:
    """Every problem class that defines its own ``validate``."""
    try:
        from repro.lcl.base import LCLProblem
        from repro.registry import PROBLEMS, load_components
    except ImportError:
        return []
    load_components()
    classes = {LCLProblem}
    for entry in PROBLEMS:
        classes.update(
            c for c in entry.cls.__mro__ if "validate" in vars(c)
        )
    return [
        (cls, "validate")
        for cls in sorted(classes, key=lambda c: c.__qualname__)
        if "validate" in vars(cls)
    ]


def _wrap(recorder: SpanRecorder, fn: Callable, name: str, hook, keyfn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, keyfn(args, kwargs) if keyfn else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if hook is not None:
            hook(span, args, kwargs, result)
        return result

    return wrapper


class Installed:
    """Handle for installed wrappers; ``remove()`` restores originals."""

    def __init__(self) -> None:
        self.patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(recorder: SpanRecorder) -> Installed:
    """Wrap every layer call that exists in this version of the program."""
    installed = Installed()
    targets = []
    for module_name, path, name, hook, keyfn in LAYER_CALLS:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            if attr not in vars(owner):
                raise AttributeError(attr)
        except (ImportError, AttributeError):
            installed.missing.append(f"{module_name}.{path}")
            continue
        targets.append((owner, attr, name, hook, keyfn))
    for cls, attr in _validate_targets():
        targets.append((cls, attr, "lcl.validate", None, None))
    for owner, attr, name, hook, keyfn in targets:
        original = vars(owner)[attr]
        installed.patches.append((owner, attr, original))
        setattr(owner, attr, _wrap(recorder, original, name, hook, keyfn))
    return installed


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: List[list]) -> Dict[int, int]:
    """span id -> self time in ns (duration minus child coverage)."""
    own = {s[_ID]: s[_END] - s[_START] for s in spans}
    for s in spans:
        parent = s[_PARENT]
        if parent in own:
            own[parent] -= s[_END] - s[_START]
    return own


def layer_table(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds, summed counts.

    ``calls`` and ``total_s`` count only the outermost span of each name
    on a path, so a wrapped method that calls its own wrapped base is not
    counted twice; self time is exact either way.
    """
    by_id = {s[_ID]: s for s in spans}
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for s in spans:
        row = table[s[_NAME]]
        row["self_s"] += own[s[_ID]] / 1e9
        parent = by_id.get(s[_PARENT])
        if parent is None or parent[_NAME] != s[_NAME]:
            row["calls"] += 1
            row["total_s"] += (s[_END] - s[_START]) / 1e9
        for name, value in (s[_EXTRA] or {}).items():
            if isinstance(value, (int, float)):
                row[name] = row.get(name, 0) + value
    return dict(table)


def ancestors(spans: List[list]) -> Callable[[list], List[str]]:
    """A function returning a span's ancestor names, nearest first."""
    by_id = {s[_ID]: s for s in spans}

    def chain(span: list) -> List[str]:
        names = []
        node = by_id.get(span[_PARENT])
        while node is not None:
            names.append(node[_NAME])
            node = by_id.get(node[_PARENT])
        return names

    return chain


def chrome_trace(recorder: SpanRecorder, origin_ns: int) -> Dict[str, object]:
    """Chrome trace-event JSON: one complete ("X") event per span."""
    events = []
    for tid, name in sorted(recorder.thread_names.items()):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": name},
        })
    for s in sorted(recorder.spans, key=lambda s: s[_START]):
        args = {"id": s[_ID], "parent": s[_PARENT]}
        if s[_KEY] is not None:
            args["key"] = s[_KEY]
        for name, value in (s[_EXTRA] or {}).items():
            args[name] = value if isinstance(value, (int, float, str)) \
                else repr(value)
        events.append({
            "name": s[_NAME],
            "cat": s[_NAME].split(".", 1)[0],
            "ph": "X",
            "pid": 1,
            "tid": s[_TID],
            "ts": (s[_START] - origin_ns) / 1000.0,
            "dur": (s[_END] - s[_START]) / 1000.0,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_cost_ns(samples: int = 20000) -> float:
    """Calibrated cost of one recorded span around a trivial call, in ns."""
    recorder = SpanRecorder()

    def noop():
        return None

    wrapped = _wrap(recorder, noop, "calibrate", None, None)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter_ns()
        for _ in range(samples):
            noop()
        bare = time.perf_counter_ns() - started
        recorder.spans.clear()
        started = time.perf_counter_ns()
        for _ in range(samples):
            wrapped()
        traced = time.perf_counter_ns() - started
        best = min(best, (traced - bare) / samples)
    return max(best, 0.0)
