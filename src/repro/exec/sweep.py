"""Declarative sweep orchestration for whole-instance experiments.

Every benchmark in this repo has the same shape: *for each size in a
grid, build an instance from a family, run an algorithm from some start
nodes, record one scalar cost, then fit the growth class*.  This module
turns that shape into data:

* :class:`InstanceFamily` — a named, parameterized instance generator
  with per-parameter memoization (several sweeps over the same family
  share the built instances);
* :class:`SweepSpec` — one sweep: family × algorithm × metric (+ start
  nodes, seed, budgets), or an arbitrary ``measure`` callable for
  experiments that are not a single ``run_algorithm`` call;
* :func:`run_sweep` / :func:`run_sweeps` — execute specs on any
  :class:`~repro.exec.backends.ExecutionBackend`, optionally served from
  and recorded to a :class:`~repro.corpus.results.ResultStore` (keyed by
  a stable spec hash), with progress reporting;
* :class:`SweepResult` — the measured points plus the fitted growth
  class, formatted with the same claimed-vs-measured row the benchmark
  tables print.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.complexity_fit import (
    FitResult,
    SweepMeasurement,
    format_sweep_row,
)
from repro.exec.backends import ExecutionBackend, get_backend


class InstanceFamily:
    """A named instance generator over a parameter grid, memoized.

    ``factory(param)`` builds the instance for one grid point.  Builds
    are cached so that the four sweeps of a Table-1 row reuse one set of
    instances instead of regenerating them per metric.
    """

    def __init__(self, name: str, factory: Callable, params: Sequence) -> None:
        self.name = name
        self.factory = factory
        self.params = list(params)
        self._cache: Dict[object, object] = {}

    def instance(self, param):
        key = self._key(param)
        if key not in self._cache:
            self._cache[key] = self.factory(param)
        return self._cache[key]

    def instances(self) -> List[object]:
        return [self.instance(p) for p in self.params]

    def clear(self) -> None:
        self._cache.clear()

    @staticmethod
    def _key(param) -> object:
        return tuple(param) if isinstance(param, list) else param


@dataclass
class SweepSpec:
    """One declarative sweep: what to measure over an instance family.

    Either give ``algorithm_factory`` + ``metric`` (the common case: one
    :func:`~repro.model.runner.run_algorithm` call per grid point) or a
    custom ``measure(instance, param)`` callable for composite
    experiments (CONGEST rounds, two-party bits, ...).

    ``nodes`` optionally selects the start nodes per grid point as
    ``nodes(instance, param)``; ``None`` means every node.

    The ``success_rate`` metric runs the streaming Monte-Carlo engine
    per grid point instead of a single whole-instance run: it needs a
    ``problem_factory`` (to check validity) and a ``trial_policy``
    (a :class:`~repro.montecarlo.engine.TrialPolicy` controlling trial
    budgets and early stopping); each point's cost is the estimated
    success probability, with trial counts / CI bounds / stopping
    reason recorded in :attr:`SweepPoint.detail`.
    """

    label: str
    claimed: str
    family: InstanceFamily
    metric: str = "volume"
    algorithm_factory: Optional[Callable] = None
    nodes: Optional[Callable] = None
    seed: int = 0
    max_volume: Optional[int] = None
    max_queries: Optional[int] = None
    measure: Optional[Callable] = None
    candidates: Optional[Sequence[str]] = None
    cache_extra: str = ""
    problem_factory: Optional[Callable] = None
    trial_policy: Optional[object] = None

    _METRICS = ("volume", "distance", "queries", "success_rate")

    def __post_init__(self) -> None:
        if self.measure is None:
            if self.algorithm_factory is None:
                raise ValueError(
                    f"spec {self.label!r} needs an algorithm_factory or a "
                    "measure callable"
                )
            if self.metric not in self._METRICS:
                raise ValueError(
                    f"unknown metric {self.metric!r} "
                    f"(expected one of {self._METRICS})"
                )
        if self.measure is not None:
            if self.trial_policy is not None:
                raise ValueError(
                    f"spec {self.label!r}: trial_policy does not apply to "
                    "a custom measure callable"
                )
        elif self.metric == "success_rate":
            if self.problem_factory is None or self.trial_policy is None:
                raise ValueError(
                    f"spec {self.label!r}: the success_rate metric needs "
                    "a problem_factory and a trial_policy"
                )
            if self.nodes is not None:
                # Validity is checked over the outputs of *every* node
                # (Definition 2.4); a start-node selector would be
                # silently ignored by the trial engine.
                raise ValueError(
                    f"spec {self.label!r}: the success_rate metric runs "
                    "from every node; a nodes selector does not apply"
                )
        elif self.trial_policy is not None:
            raise ValueError(
                f"spec {self.label!r}: trial_policy only applies to the "
                "success_rate metric"
            )

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """A stable descriptor of everything that affects the results."""
        algo_name = None
        if self.algorithm_factory is not None:
            algo_name = self.algorithm_factory().name
        return {
            "label": self.label,
            "claimed": self.claimed,
            "family": self.family.name,
            "family_factory": _callable_id(self.family.factory),
            "params": [repr(p) for p in self.family.params],
            "metric": self.metric if self.measure is None else "custom",
            "algorithm": algo_name,
            "nodes": _callable_id(self.nodes),
            "measure": _callable_id(self.measure),
            "seed": self.seed,
            "max_volume": self.max_volume,
            "max_queries": self.max_queries,
            "cache_extra": self.cache_extra,
            "problem": _callable_id(self.problem_factory),
            "trial_policy": (
                None
                if self.trial_policy is None
                else self.trial_policy.describe()
            ),
        }

    def cache_key(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # ------------------------------------------------------------------
    def measure_point(self, instance, param, backend: ExecutionBackend) -> float:
        return self.measure_point_detailed(instance, param, backend)[0]

    def measure_point_detailed(
        self, instance, param, backend: ExecutionBackend
    ) -> "Tuple[float, Optional[Dict[str, object]]]":
        """One grid point's cost plus an optional detail record.

        Only the ``success_rate`` metric produces a detail (trial count,
        CI bounds, stopping reason); the single-run metrics return
        ``None``.
        """
        if self.measure is not None:
            return float(self.measure(instance, param)), None
        if self.metric == "success_rate":
            from repro.montecarlo.engine import run_trials

            result = run_trials(
                self.problem_factory(),
                instance,
                self.algorithm_factory(),
                self.trial_policy,
                base_seed=self.seed,
                backend=backend,
                max_volume=self.max_volume,
                max_queries=self.max_queries,
            )
            low, high = result.interval()
            return float(result.rate), {
                "trials": result.trials,
                "successes": result.successes,
                "ci_low": low,
                "ci_high": high,
                "stopped": result.stopped,
            }
        nodes = None if self.nodes is None else self.nodes(instance, param)
        result = backend.run(
            instance,
            self.algorithm_factory(),
            nodes,
            seed=self.seed,
            max_volume=self.max_volume,
            max_queries=self.max_queries,
        )
        return float(getattr(result, f"max_{self.metric}")), None


def _callable_id(fn: Optional[Callable]) -> Optional[str]:
    """Fingerprint a callable by name *and* bytecode.

    Editing the body of a ``measure``/``nodes``/factory callable must
    invalidate stored sweep results; a bare qualname would keep serving
    stale numbers after a code change.  Plain ``repr`` is unusable (it
    embeds object addresses), so hash the code object's bytecode and its
    non-code constants instead.
    """
    if fn is None:
        return None
    name = getattr(fn, "__qualname__", fn.__class__.__qualname__)
    code = getattr(fn, "__code__", None)
    if code is None:
        call = getattr(type(fn), "__call__", None)
        code = getattr(call, "__code__", None)
    if code is None:
        return name
    consts = tuple(
        c for c in code.co_consts if not hasattr(c, "co_code")
    )
    digest = hashlib.sha256(
        code.co_code + repr(consts).encode()
    ).hexdigest()[:12]
    return f"{name}#{digest}"


@dataclass
class SweepPoint:
    """One measured grid point.

    ``detail`` carries metric-specific extras (for ``success_rate``:
    trial count, CI bounds, stopping reason); ``None`` for plain
    single-run metrics.
    """

    param: object
    n: int
    cost: float
    elapsed: float = 0.0
    detail: Optional[Dict[str, object]] = None


@dataclass
class SweepResult:
    """All points of one sweep plus fit/reporting helpers.

    ``from_store`` means the result store served every point: nothing
    was executed this run.
    """

    spec: SweepSpec
    points: List[SweepPoint] = field(default_factory=list)
    from_store: bool = False

    @property
    def ns(self) -> List[int]:
        return [p.n for p in self.points]

    @property
    def costs(self) -> List[float]:
        return [p.cost for p in self.points]

    def measurement(self) -> SweepMeasurement:
        return SweepMeasurement(
            label=self.spec.label,
            ns=self.ns,
            costs=self.costs,
            claimed=self.spec.claimed,
        )

    def fitted(self) -> FitResult:
        return self.measurement().fitted(self.spec.candidates)

    def format_row(self) -> str:
        return format_sweep_row(self.measurement(), self.fitted())


def _json_key(key) -> str:
    """The string ``json.dumps`` would coerce a dict key to."""
    if isinstance(key, str):
        return key
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(
        f"dict key {key!r} ({type(key).__name__}) cannot be persisted "
        "in a JSON payload"
    )


def _jsonify(obj):
    """Normalize a payload to its JSON-decoded form — loudly.

    A plain ``json.loads(json.dumps(...))`` round trip coerces
    non-string dict keys silently (``1`` -> ``"1"``, ``True`` ->
    ``"true"``); if two keys coerce to the same string, one value is
    silently dropped and the stored payload can never compare equal to
    a freshly built one again — a permanent store miss with no error.
    This normalizer applies the identical coercion but *raises* on a
    collision or an uncoercible key, and both the persist side and the
    compare side go through it, so persisted and fresh payloads agree
    by construction.
    """
    if isinstance(obj, dict):
        out: Dict[str, object] = {}
        for key, value in obj.items():
            norm = _json_key(key)
            if norm in out:
                raise ValueError(
                    f"dict keys collide when persisted as JSON: key "
                    f"{key!r} coerces to {norm!r}, which is already "
                    "present; use distinct string keys"
                )
            out[norm] = _jsonify(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [_jsonify(value) for value in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    # Anything exotic must survive a real round trip or fail now.
    return json.loads(json.dumps(obj))


def run_sweep(
    spec: SweepSpec,
    backend=None,
    progress: Optional[Callable[[str], None]] = None,
    store=None,
) -> SweepResult:
    """Execute one sweep, serving stored points from ``store``.

    ``store`` (a :class:`~repro.corpus.results.ResultStore`) records
    every executed point as it completes, and points already stored for
    this spec hash are restored instead of re-measured — a killed
    campaign continues where it died, and a re-run against a populated
    store executes nothing (:attr:`SweepResult.from_store`).  Every
    point is a deterministic run, so a restored point is bitwise what
    re-measuring would produce.
    """
    backend = get_backend(backend)
    stored: Dict[int, Dict[str, object]] = {}
    if store is not None:
        spec_key = spec.cache_key()
        described = _jsonify(spec.describe())
        stored_describe = store.sweep_describe(spec_key)
        if stored_describe is not None and stored_describe != described:
            # A 16-hex hash collision (or a mangled row): neither serve
            # the foreign points nor mix ours under the same key.
            store = None
        else:
            store.record_sweep_meta(
                spec_key, spec.label, described, len(spec.family.params)
            )
            stored = store.sweep_points(spec_key)
    result = SweepResult(spec=spec)
    total = len(spec.family.params)
    served = 0
    for index, param in enumerate(spec.family.params, start=1):
        row = stored.get(index - 1)
        if row is not None:
            result.points.append(
                SweepPoint(
                    param=param,
                    n=row["n"],
                    cost=row["cost"],
                    elapsed=row["elapsed"],
                    detail=row["detail"],
                )
            )
            served += 1
            if progress is not None:
                progress(
                    f"[{spec.label}] {index}/{total}: stored point "
                    f"restored (n={row['n']})"
                )
            continue
        instance = spec.family.instance(param)
        started = time.perf_counter()
        cost, detail = spec.measure_point_detailed(instance, param, backend)
        elapsed = time.perf_counter() - started
        # Normalize the detail dict the way the store will, so a fresh
        # result and its store-restored twin are identical (an int-keyed
        # detail would otherwise come back str-keyed).
        detail = None if detail is None else _jsonify(detail)
        # .n, not .graph.num_nodes: implicit InstanceSpec points have no
        # graph — their size is a closed-form property of the spec.
        n = instance.n
        point = SweepPoint(
            param=param, n=n, cost=cost, elapsed=elapsed, detail=detail
        )
        result.points.append(point)
        if store is not None:
            # Per point, not per sweep: a killed campaign keeps every
            # completed point.
            _record_point_to_store(store, spec_key, index - 1, point)
        if progress is not None:
            progress(
                f"[{spec.label}] {index}/{total}: n={n} "
                f"{spec.metric if spec.measure is None else 'cost'}={cost:g} "
                f"({elapsed:.2f}s)"
            )
    result.from_store = served == total and total > 0
    return result


def _record_point_to_store(store, spec_key: str, index: int, point) -> None:
    store.record_sweep_point(
        spec_key,
        index,
        param_repr=repr(point.param),
        n=point.n,
        cost=point.cost,
        detail=point.detail,
        elapsed=point.elapsed,
    )


def run_sweeps(
    specs: Iterable[SweepSpec],
    backend=None,
    progress: Optional[Callable[[str], None]] = None,
    store=None,
) -> List[SweepResult]:
    """Execute a batch of sweeps on one backend, in order.

    The closing progress line reports store-served sweeps *separately*
    from executed ones: a served result costs no measurements, so
    "N sweeps executed" stays usable as a progress signal on a warm
    store.

    ``store`` (a :class:`~repro.corpus.results.ResultStore`) persists
    every executed point across runs and serves stored points back;
    see :func:`run_sweep`.
    """
    # A backend constructed *here* (from a spec string) is owned here:
    # a process pool nobody else can reach must not outlive the batch.
    # Caller-provided backend objects (and the shared default) are the
    # caller's to close.
    owned_backend = backend is not None and not isinstance(
        backend, ExecutionBackend
    )
    backend = get_backend(backend)
    try:
        results = [
            run_sweep(s, backend, progress=progress, store=store)
            for s in specs
        ]
    finally:
        if owned_backend:
            backend.close()
    if progress is not None:
        served = sum(1 for r in results if r.from_store)
        progress(
            f"sweeps: {len(results) - served} executed, {served} store "
            f"hit{'' if served == 1 else 's'}"
        )
    return results
