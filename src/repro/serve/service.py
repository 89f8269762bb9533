"""The ``repro serve`` HTTP service: the registry behind six endpoints.

* ``POST /solve`` — solve-and-check one registry cell (the same
  :func:`~repro.model.runner.solve_and_check` call ``repro run`` makes);
* ``POST /mc`` — streaming Monte-Carlo estimate with
  :class:`~repro.montecarlo.engine.TrialPolicy` knobs;
* ``POST /adversary`` — play one lower-bound budget point and verify
  its transcript;
* ``GET /registry`` · ``GET /healthz`` · ``GET /stats``.

Request handling is split across two lanes.  The event loop does only
cheap work: parse, resolve the request against the registry (filling
every default — seed, param, policy — so the *resolved descriptor* is
complete), hash the descriptor into the request key, answer a stored
key from the response store, and admit the job otherwise.  All
computation happens on the scheduler's worker thread
(:mod:`repro.serve.scheduler`), which owns the shared execution
backend.

Response bodies are pure functions of the resolved descriptor: no
timestamps, no durations, no server identity.  Per-request provenance
rides in headers instead — ``X-Repro-Key`` (the descriptor hash),
``X-Repro-Store: hit|miss`` (whether the body came from the store), and
``X-Repro-Elapsed`` (wall seconds, on fresh executions) — so a repeat of
any request is *bitwise identical* to its first response, which is the
contract the conformance suite enforces and DESIGN.md §13.4 argues.

Failure surface, in order of checking: unknown path → 404, wrong method
→ 405, malformed body / unknown names / bad params → 400, admission
queue full → 429 with ``Retry-After``, shutdown race → 503, deadline
expiry → 504 (the computation itself is shielded: it finishes on the
worker, lands in the store, and the pool stays healthy), anything else
→ 500 with the error message.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from hashlib import sha256
from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.registry import (
    ADVERSARIES,
    RegistryError,
    load_components,
)
from repro.serve.http import (
    HttpProtocolError,
    Request,
    Response,
    canonical_json,
    error_response,
    json_response,
    read_request,
)
from repro.serve.scheduler import (
    Backpressure,
    BatchScheduler,
    SchedulerClosed,
    ServeStats,
)


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to bind and schedule."""

    host: str = "127.0.0.1"
    port: int = 8437
    backend: str = "serial"
    store: Optional[str] = None
    queue_limit: int = 64
    default_deadline: float = 30.0
    max_deadline: float = 300.0
    retry_after: float = 1.0


def request_key(descriptor: Dict[str, object]) -> str:
    """The 16-hex-digit request key: sha256 of the canonical descriptor.

    The descriptor is *resolved* — every default filled in — so two
    spellings of the same work (``seed`` omitted vs. the registered
    default passed explicitly) hash to the same key and hit the same
    cache row.
    """
    return sha256(canonical_json(descriptor)).hexdigest()[:16]


def _tuplify(value):
    """JSON arrays as grid params: lists become tuples, recursively."""
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def _coerce_param(raw, family):
    """A request's ``param`` field -> the family's grid parameter."""
    from repro.cli import parse_param

    if raw is None:
        return family.quick[-1]
    if isinstance(raw, str):
        return parse_param(raw)
    return _tuplify(raw)


def _require(payload: dict, key: str) -> object:
    value = payload.get(key)
    if value is None:
        raise RegistryError(f"request is missing the {key!r} field")
    return value


def _policy_from(payload: dict):
    """A resolved TrialPolicy from a request's ``policy`` object."""
    from repro.montecarlo.engine import QUICK_POLICY, TrialPolicy

    spec = payload.get("policy") or {}
    if not isinstance(spec, dict):
        raise RegistryError("the 'policy' field must be a JSON object")
    base = QUICK_POLICY if spec.get("quick", True) else TrialPolicy()
    known = {
        "quick", "min_trials", "max_trials", "batch_size",
        "confidence", "tolerance", "early_stop", "method",
    }
    unknown = set(spec) - known
    if unknown:
        raise RegistryError(
            f"unknown policy fields: {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})"
        )
    try:
        return TrialPolicy(
            min_trials=int(spec.get("min_trials", base.min_trials)),
            max_trials=int(spec.get("max_trials", base.max_trials)),
            batch_size=int(spec.get("batch_size", base.batch_size)),
            confidence=float(spec.get("confidence", base.confidence)),
            tolerance=float(spec.get("tolerance", base.tolerance)),
            early_stop=bool(spec.get("early_stop", base.early_stop)),
            method=str(spec.get("method", base.method)),
        )
    except (TypeError, ValueError) as exc:
        raise RegistryError(f"bad policy: {exc}") from exc


class ReproService:
    """The service: an asyncio server plus one :class:`BatchScheduler`."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        from repro.corpus import ResultStore
        from repro.exec.backends import get_backend

        self.config = config or ServeConfig()
        load_components()
        self.stats = ServeStats()
        self.store = (
            ResultStore(self.config.store) if self.config.store else None
        )
        self.scheduler = BatchScheduler(
            backend=get_backend(self.config.backend),
            store=self.store,
            queue_limit=self.config.queue_limit,
            stats=self.stats,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._registry_body: Optional[bytes] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and serve; returns the actual (host, port) bound."""
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.close()
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpProtocolError as exc:
                    response = error_response(str(exc), exc.status)
                    self.stats.count("responses", exc.status)
                    writer.write(response.encode(keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                response = await self._dispatch(request)
                self.stats.count("responses", response.status)
                writer.write(response.encode(keep_alive=request.keep_alive))
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: Request) -> Response:
        self.stats.count("requests", request.path)
        if request.path == "/healthz":
            if request.method != "GET":
                return error_response("use GET", 405)
            return json_response({"status": "ok"})
        if request.path == "/registry":
            if request.method != "GET":
                return error_response("use GET", 405)
            return Response(body=self._registry())
        if request.path == "/stats":
            if request.method != "GET":
                return error_response("use GET", 405)
            return json_response(
                self.stats.snapshot(
                    self.scheduler.queue_depth, self.config.queue_limit
                )
            )
        handlers = {
            "/solve": self._resolve_solve,
            "/mc": self._resolve_mc,
            "/adversary": self._resolve_adversary,
        }
        resolver = handlers.get(request.path)
        if resolver is None:
            return error_response(f"no such endpoint {request.path!r}", 404)
        if request.method != "POST":
            return error_response("use POST", 405)
        try:
            payload = request.json()
        except HttpProtocolError as exc:
            return error_response(str(exc), exc.status)
        if not isinstance(payload, dict):
            return error_response("request body must be a JSON object", 400)
        try:
            descriptor, fn = resolver(payload)
        except (RegistryError, ValueError) as exc:
            return error_response(str(exc), 400)
        return await self._submit(request.path, payload, descriptor, fn)

    async def _submit(
        self, endpoint: str, payload: dict, descriptor: dict, fn
    ) -> Response:
        key = request_key(descriptor)
        deadline = payload.get("deadline")
        try:
            deadline = (
                self.config.default_deadline
                if deadline is None
                else min(float(deadline), self.config.max_deadline)
            )
        except (TypeError, ValueError):
            return error_response(
                f"bad deadline {deadline!r} (want seconds)", 400
            )
        try:
            future = self.scheduler.submit(key, endpoint, fn)
        except Backpressure as exc:
            return error_response(
                str(exc), 429,
                headers={"Retry-After": f"{self.config.retry_after:g}"},
            )
        except SchedulerClosed as exc:
            return error_response(str(exc), 503)
        started = perf_counter()
        try:
            # A store hit is settled already.  Otherwise the wait is
            # shielded: on deadline expiry the job still finishes on the
            # worker (coalesced peers and the store write survive); only
            # this response gives up.
            result = (
                future.result()
                if future.done()
                else await asyncio.wait_for(
                    asyncio.shield(future), timeout=deadline
                )
            )
        except asyncio.TimeoutError:
            self.stats.bump("deadline_timeouts")
            return error_response(
                f"deadline of {deadline:g}s expired", 504,
                headers={"X-Repro-Key": key},
            )
        except (RegistryError, ValueError) as exc:
            return error_response(str(exc), 400)
        except SchedulerClosed as exc:
            return error_response(str(exc), 503)
        except Exception as exc:  # noqa: BLE001 - the failure surface
            return error_response(f"{type(exc).__name__}: {exc}", 500)
        headers = {
            "X-Repro-Key": key,
            "X-Repro-Store": "hit" if result.from_store else "miss",
        }
        if result.coalesced:
            headers["X-Repro-Coalesced"] = "1"
        if not result.from_store:
            headers["X-Repro-Elapsed"] = f"{perf_counter() - started:.6f}"
        return Response(body=result.body, headers=headers)

    # ------------------------------------------------------------------
    # GET bodies
    # ------------------------------------------------------------------
    def _registry(self) -> bytes:
        # The registry is immutable for the life of the process.
        if self._registry_body is None:
            from repro.cli import _list_payload

            self._registry_body = canonical_json(_list_payload())
        return self._registry_body

    # ------------------------------------------------------------------
    # resolvers: request payload -> (descriptor, worker fn)
    # ------------------------------------------------------------------
    def _resolve_cell(self, payload: dict):
        from repro.cli import implicit_instance, resolve_cell

        problem, algorithm, family = resolve_cell(
            str(_require(payload, "algorithm")),
            None
            if payload.get("family") is None
            else str(payload["family"]),
            None
            if payload.get("problem") is None
            else str(payload["problem"]),
        )
        param = _coerce_param(payload.get("param"), family)
        implicit = bool(payload.get("implicit", False))
        if implicit:
            # Validates the family capability and the param eagerly, on
            # the event loop, so bad requests 400 before admission.
            implicit_instance(family, param)
        return problem, algorithm, family, param, implicit

    def _make_instance(self, family, param, implicit):
        from repro.cli import implicit_instance

        if implicit:
            return implicit_instance(family, param)
        try:
            return family.instance(param)
        except Exception as exc:
            # The family's own rejection (wrong type, out of range)
            # surfaces here on the worker; normalize it so the waiting
            # request maps it to 400, not 500.
            raise RegistryError(
                f"family {family.name!r} rejected param {param!r}: {exc}"
            ) from exc

    def _resolve_solve(self, payload: dict):
        from repro.model.runner import solve_and_check

        problem, algorithm, family, param, implicit = self._resolve_cell(
            payload
        )
        seed = (
            algorithm.seed
            if payload.get("seed") is None
            else int(payload["seed"])
        )
        max_volume = payload.get("max_volume")
        max_queries = payload.get("max_queries")
        descriptor = {
            "endpoint": "solve",
            "algorithm": algorithm.name,
            "problem": problem.name,
            "family": family.name,
            "param": repr(param),
            "implicit": implicit,
            "seed": seed,
            "max_volume": max_volume,
            "max_queries": max_queries,
        }
        backend = self.scheduler.backend

        def fn() -> Tuple[dict, int]:
            instance = self._make_instance(family, param, implicit)
            report = solve_and_check(
                problem.make(),
                instance,
                algorithm.make(),
                seed=seed,
                max_volume=max_volume,
                max_queries=max_queries,
                backend=backend,
            )
            body = dict(descriptor)
            body.update(
                instance=instance.name,
                n=instance.n,
                valid=report.valid,
                result={
                    "max_volume": report.run.max_volume,
                    "mean_volume": report.run.mean_volume,
                    "max_distance": report.run.max_distance,
                    "max_queries": report.run.max_queries,
                    "truncated_nodes": len(report.run.truncated_nodes),
                },
                violations=[str(v) for v in report.violations[:5]],
            )
            return body, 1

        return descriptor, fn

    def _resolve_mc(self, payload: dict):
        from repro.montecarlo.engine import run_trials

        problem, algorithm, family, param, implicit = self._resolve_cell(
            payload
        )
        policy = _policy_from(payload)
        base_seed = (
            algorithm.seed
            if payload.get("seed") is None
            else int(payload["seed"])
        )
        descriptor = {
            "endpoint": "mc",
            "algorithm": algorithm.name,
            "problem": problem.name,
            "family": family.name,
            "param": repr(param),
            "implicit": implicit,
            "base_seed": base_seed,
            "policy": policy.describe(),
        }
        backend = self.scheduler.backend
        store = self.store

        def fn() -> Tuple[dict, int]:
            instance = self._make_instance(family, param, implicit)
            result = run_trials(
                problem.make(),
                instance,
                algorithm.make(),
                policy,
                base_seed=base_seed,
                backend=backend,
                store=store,
            )
            estimate = result.to_payload()
            # Wall time is provenance, not result; it rides in the
            # X-Repro-Elapsed header so the body stays deterministic.
            estimate.pop("elapsed", None)
            body = dict(descriptor)
            body.update(instance=instance.name, n=instance.n, **estimate)
            return body, result.trials

        return descriptor, fn

    def _resolve_adversary(self, payload: dict):
        entry = ADVERSARIES.get(str(_require(payload, "adversary")))
        victim = payload.get("algorithm")
        victim = None if victim is None else str(victim)
        budget = (
            entry.quick[-1]
            if payload.get("budget") is None
            else int(payload["budget"])
        )
        verify = bool(payload.get("verify", True))
        if victim is not None:
            from repro.registry import ALGORITHMS

            ALGORITHMS.get(victim)  # unknown victim -> 400 here
        adversary_probe = entry.make(victim)
        descriptor = {
            "endpoint": "adversary",
            "adversary": entry.name,
            "problem": entry.problem,
            "bound": entry.bound,
            "algorithm": adversary_probe.victim,
            "budget": budget,
            "verify": verify,
        }
        backend = self.scheduler.backend

        def fn() -> Tuple[dict, int]:
            adversary = entry.make(victim)
            run = adversary.timed_run(budget)
            point = run.point()
            point.pop("elapsed", None)
            body = dict(descriptor)
            body.update(
                **point,
                transcript_events=len(run.transcript),
                verified=adversary.verify(run, backend=backend)
                if verify
                else None,
                detail={
                    k: v
                    for k, v in run.detail.items()
                    if isinstance(v, (int, float, str, bool, type(None)))
                },
            )
            return body, 1

        return descriptor, fn


class ServerThread:
    """A live service on a background thread — tests and the bench.

    ``start()`` blocks until the socket is bound and returns
    ``(host, port)``; ``stop()`` tears the whole stack down (server,
    scheduler, backend).  The thread owns its own event loop, so the
    caller may be synchronous code (pytest, ``repro bench``) or a
    different loop entirely (``repro load`` driving it over HTTP).
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig(port=0)
        self.service: Optional[ReproService] = None
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise RuntimeError(
                f"service failed to start: {self._error}"
            ) from self._error
        if self.address is None:
            raise RuntimeError("service failed to start within 30s")
        return self.address

    def stop(self) -> None:
        self._stop.set()
        if self._loop is not None:
            self._loop.call_soon_threadsafe(lambda: None)  # wake the loop
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            self.service = ReproService(self.config)
            self.address = await self.service.start()
        except BaseException as exc:  # noqa: BLE001 - surfaced in start()
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            while not self._stop.is_set():
                await asyncio.sleep(0.05)
        finally:
            await self.service.stop()


async def _serve_forever(config: ServeConfig, printer=print) -> None:
    service = ReproService(config)
    host, port = await service.start()
    if printer is not None:
        printer(
            f"repro serve: listening on http://{host}:{port} "
            f"(backend={config.backend}, queue={config.queue_limit}, "
            f"store={config.store or '-'})"
        )
    try:
        await asyncio.Event().wait()  # until cancelled
    finally:
        await service.stop()


def run_server(config: ServeConfig, printer=print) -> int:
    """Blocking entry point for ``repro serve`` (Ctrl-C to stop)."""
    try:
        asyncio.run(_serve_forever(config, printer))
    except KeyboardInterrupt:
        if printer is not None:
            printer("repro serve: shutting down")
    return 0


__all__ = [
    "ReproService",
    "ServeConfig",
    "ServerThread",
    "request_key",
    "run_server",
]
