"""A deterministic load generator for ``repro serve``.

``repro load`` turns "heavy traffic" into a measured artifact.  The
request mix is drawn *from the registry matrix* under one RNG seed, so
two runs against equivalent servers issue byte-identical request
streams; the harness then drives two measured phases plus optional
error probes:

1. **cold** — ``requests`` unique descriptors (seeds drawn per request),
   shuffled, through the chosen loop mode;
2. **repeat** — the same descriptors reshuffled under a second seed
   derivation.  Against a store-backed server every one must come back
   ``X-Repro-Store: hit`` and *bitwise identical* to its phase-1 body,
   with the server's execution counter unmoved — the acceptance gate for
   read-through caching;
3. **probes** — deliberate 504s (microscopic per-request deadlines) and
   a best-effort 429 burst (more concurrent fresh requests than the
   admission queue holds).  These are the only non-2xx statuses a
   healthy run may produce; anything else fails the harness.

Loop modes: *closed* (``concurrency`` workers over persistent
connections, next request on response — measures service latency) and
*open* (Poisson-free fixed-rate arrival schedule; latency counted from
the scheduled arrival, so admission queueing is part of the number).

Latency quantiles are nearest-rank on the measured sample — no
interpolation, so a quantile is always a latency that actually
happened.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class LoadRequest:
    """One request in the mix: an endpoint and a JSON body."""

    path: str
    payload: Dict[str, object]

    def body(self) -> bytes:
        return json.dumps(self.payload, sort_keys=True).encode()


@dataclass
class LoadConfig:
    """Knobs for one harness run (defaults match ``repro load --quick``)."""

    host: str = "127.0.0.1"
    port: int = 8437
    requests: int = 32
    concurrency: int = 4
    mode: str = "closed"  # closed | open
    rate: float = 50.0  # open-loop arrivals per second
    seed: int = 1543
    adversary_share: float = 0.1
    mc_share: float = 0.2
    deadline_probes: int = 2
    burst_probes: int = 0
    request_timeout: float = 120.0
    p99_gate_ms: Optional[float] = None
    min_rps: Optional[float] = None
    require_cache: bool = False


# ----------------------------------------------------------------------
# the request mix
# ----------------------------------------------------------------------
def build_mix(config: LoadConfig) -> List[LoadRequest]:
    """``config.requests`` descriptors drawn from the registry matrix.

    Solve and MC requests take each cell's *smallest* quick-grid
    parameter (the latency-budget end of the matrix) and a per-request
    seed drawn from the mix RNG, so descriptors are unique across the
    phase and identical across runs of the same config.
    """
    from repro.registry import ADVERSARIES, iter_compatible, load_components

    load_components()
    cells = list(iter_compatible())
    if not cells:
        raise ValueError("registry has no compatible cells to draw from")
    adversaries = list(ADVERSARIES)
    rng = random.Random(config.seed)
    mix: List[LoadRequest] = []
    for _ in range(config.requests):
        roll = rng.random()
        if adversaries and roll < config.adversary_share:
            entry = rng.choice(adversaries)
            mix.append(LoadRequest("/adversary", {
                "adversary": entry.name,
                "budget": min(entry.quick),
                "verify": True,
            }))
        elif roll < config.adversary_share + config.mc_share:
            cell = rng.choice(cells)
            mix.append(LoadRequest("/mc", {
                "algorithm": cell.algorithm.name,
                "family": cell.family.name,
                "param": repr(min_param(cell.family)),
                "seed": rng.randrange(1 << 30),
                "policy": {
                    "quick": True,
                    "min_trials": 4,
                    "max_trials": 8,
                    "batch_size": 4,
                },
            }))
        else:
            cell = rng.choice(cells)
            mix.append(LoadRequest("/solve", {
                "algorithm": cell.algorithm.name,
                "family": cell.family.name,
                "param": repr(min_param(cell.family)),
                "seed": rng.randrange(1 << 30),
            }))
    return mix


def min_param(family):
    """The family's cheapest quick-grid parameter (smallest instance)."""
    return family.quick[0]


def percentile(sorted_values: List[float], p: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


# ----------------------------------------------------------------------
# a minimal async HTTP/1.1 client (stdlib only, keep-alive)
# ----------------------------------------------------------------------
class _Client:
    """One persistent connection to the service."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, Dict[str, str], bytes]:
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"\r\n"
        ).encode("ascii")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readuntil(b"\n")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ConnectionError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = (await self._reader.readuntil(b"\n")).rstrip(b"\r\n")
            if not line:
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        payload = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, payload


@dataclass
class _Sample:
    index: int
    status: int
    headers: Dict[str, str]
    body: bytes
    latency: float


@dataclass
class PhaseReport:
    """Measured numbers for one load phase."""

    name: str
    requests: int
    duration: float
    statuses: Dict[int, int]
    latencies: List[float] = field(default_factory=list)
    store_hits: int = 0
    coalesced: int = 0

    @property
    def rps(self) -> float:
        return self.requests / self.duration if self.duration > 0 else 0.0

    def latency_ms(self) -> Dict[str, Optional[float]]:
        ordered = sorted(self.latencies)
        scale = 1000.0
        return {
            "p50": _scaled(percentile(ordered, 50), scale),
            "p95": _scaled(percentile(ordered, 95), scale),
            "p99": _scaled(percentile(ordered, 99), scale),
            "max": _scaled(ordered[-1] if ordered else None, scale),
            "mean": _scaled(
                sum(ordered) / len(ordered) if ordered else None, scale
            ),
        }

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "requests": self.requests,
            "duration": self.duration,
            "rps": self.rps,
            "latency_ms": self.latency_ms(),
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "store_hits": self.store_hits,
            "store_hit_rate": (
                self.store_hits / self.requests if self.requests else 0.0
            ),
            "coalesced": self.coalesced,
        }


def _scaled(value: Optional[float], scale: float) -> Optional[float]:
    return None if value is None else value * scale


@dataclass
class LoadReport:
    """The harness verdict: phases, probes, gates."""

    phases: List[PhaseReport]
    probes: Dict[str, object]
    repeat_identical: bool
    repeat_mismatches: int
    repeat_executions: int
    failures: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_payload(self) -> Dict[str, object]:
        return {
            "phases": [phase.to_payload() for phase in self.phases],
            "probes": self.probes,
            "repeat_identical": self.repeat_identical,
            "repeat_mismatches": self.repeat_mismatches,
            "repeat_executions": self.repeat_executions,
            "ok": self.ok,
            "failures": list(self.failures),
        }


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------
async def _run_phase(
    config: LoadConfig, name: str, mix: List[LoadRequest]
) -> Tuple[PhaseReport, List[_Sample]]:
    samples: List[_Sample] = []
    started = perf_counter()
    if config.mode == "open":
        await _open_loop(config, mix, samples)
    else:
        await _closed_loop(config, mix, samples)
    duration = perf_counter() - started
    statuses: Dict[int, int] = {}
    hits = 0
    coalesced = 0
    for sample in samples:
        statuses[sample.status] = statuses.get(sample.status, 0) + 1
        if sample.headers.get("x-repro-store") == "hit":
            hits += 1
        if sample.headers.get("x-repro-coalesced"):
            coalesced += 1
    report = PhaseReport(
        name=name,
        requests=len(samples),
        duration=duration,
        statuses=statuses,
        latencies=[s.latency for s in samples],
        store_hits=hits,
        coalesced=coalesced,
    )
    return report, samples


async def _closed_loop(
    config: LoadConfig, mix: List[LoadRequest], samples: List[_Sample]
) -> None:
    queue: "asyncio.Queue[Tuple[int, LoadRequest]]" = asyncio.Queue()
    for item in enumerate(mix):
        queue.put_nowait(item)

    async def worker() -> None:
        client = _Client(config.host, config.port)
        try:
            while True:
                try:
                    index, request = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                begun = perf_counter()
                status, headers, body = await asyncio.wait_for(
                    client.request("POST", request.path, request.body()),
                    timeout=config.request_timeout,
                )
                samples.append(_Sample(
                    index, status, headers, body, perf_counter() - begun
                ))
        finally:
            await client.close()

    workers = min(config.concurrency, len(mix)) or 1
    await asyncio.gather(*(worker() for _ in range(workers)))


async def _open_loop(
    config: LoadConfig, mix: List[LoadRequest], samples: List[_Sample]
) -> None:
    pool: "asyncio.Queue[_Client]" = asyncio.Queue()
    clients = [
        _Client(config.host, config.port)
        for _ in range(max(1, config.concurrency))
    ]
    for client in clients:
        pool.put_nowait(client)
    epoch = perf_counter()

    async def fire(index: int, request: LoadRequest) -> None:
        arrival = epoch + index / config.rate
        delay = arrival - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        client = await pool.get()
        try:
            status, headers, body = await asyncio.wait_for(
                client.request("POST", request.path, request.body()),
                timeout=config.request_timeout,
            )
        finally:
            pool.put_nowait(client)
        # Open-loop latency counts from the *scheduled* arrival, so
        # waiting for a free connection (server saturation) is included.
        samples.append(_Sample(
            index, status, headers, body, perf_counter() - arrival
        ))

    try:
        await asyncio.gather(
            *(fire(i, request) for i, request in enumerate(mix))
        )
    finally:
        for client in clients:
            await client.close()


async def _fetch_stats(config: LoadConfig) -> Dict[str, object]:
    client = _Client(config.host, config.port)
    try:
        status, _, body = await client.request("GET", "/stats")
        if status != 200:
            raise ConnectionError(f"GET /stats returned {status}")
        return json.loads(body)
    finally:
        await client.close()


async def _probe_deadlines(
    config: LoadConfig, rng: random.Random
) -> Dict[str, int]:
    """Fire requests with microscopic deadlines; expect clean 504s."""
    from repro.registry import iter_compatible

    cells = list(iter_compatible())
    counts = {"sent": 0, "got_504": 0, "got_200": 0, "other": 0}
    client = _Client(config.host, config.port)
    try:
        for _ in range(config.deadline_probes):
            cell = rng.choice(cells)
            request = LoadRequest("/solve", {
                "algorithm": cell.algorithm.name,
                "family": cell.family.name,
                "param": repr(min_param(cell.family)),
                "seed": rng.randrange(1 << 30),
                "deadline": 1e-4,
            })
            status, _, _ = await client.request(
                "POST", request.path, request.body()
            )
            counts["sent"] += 1
            if status == 504:
                counts["got_504"] += 1
            elif status == 200:
                counts["got_200"] += 1
            else:
                counts["other"] += 1
    finally:
        await client.close()
    return counts


async def _probe_burst(
    config: LoadConfig, rng: random.Random
) -> Dict[str, int]:
    """Saturate admission with fresh concurrent requests; count 429s.

    Best-effort by design: whether a given request is rejected depends
    on how fast the worker drains, so the probe reports what happened
    rather than requiring a fixed split — the invariant under test is
    that *only* 200 and 429 come back.
    """
    from repro.registry import iter_compatible

    cells = list(iter_compatible())
    requests = []
    for _ in range(config.burst_probes):
        cell = rng.choice(cells)
        requests.append(LoadRequest("/solve", {
            "algorithm": cell.algorithm.name,
            "family": cell.family.name,
            "param": repr(min_param(cell.family)),
            "seed": rng.randrange(1 << 30),
        }))
    counts = {"sent": 0, "got_429": 0, "got_200": 0, "other": 0}

    async def fire(request: LoadRequest) -> None:
        client = _Client(config.host, config.port)
        try:
            status, _, _ = await asyncio.wait_for(
                client.request("POST", request.path, request.body()),
                timeout=config.request_timeout,
            )
            counts["sent"] += 1
            if status == 429:
                counts["got_429"] += 1
            elif status == 200:
                counts["got_200"] += 1
            else:
                counts["other"] += 1
        finally:
            await client.close()

    await asyncio.gather(*(fire(request) for request in requests))
    return counts


async def _run_load(config: LoadConfig) -> LoadReport:
    mix = build_mix(config)
    shuffle_rng = random.Random(config.seed + 1)
    cold_order = list(mix)
    shuffle_rng.shuffle(cold_order)
    repeat_order = list(mix)
    shuffle_rng.shuffle(repeat_order)

    cold, cold_samples = await _run_phase(config, "cold", cold_order)
    mid = await _fetch_stats(config)
    repeat, repeat_samples = await _run_phase(config, "repeat", repeat_order)
    after = await _fetch_stats(config)

    # Bitwise identity: key -> body across phases (keys ride in headers).
    bodies: Dict[str, bytes] = {}
    for sample in cold_samples:
        key = sample.headers.get("x-repro-key")
        if key and sample.status == 200:
            bodies[key] = sample.body
    mismatches = 0
    for sample in repeat_samples:
        key = sample.headers.get("x-repro-key")
        if key and sample.status == 200 and key in bodies:
            if sample.body != bodies[key]:
                mismatches += 1

    repeat_executions = int(after.get("executions", 0)) - int(
        mid.get("executions", 0)
    )

    probe_rng = random.Random(config.seed + 2)
    probes: Dict[str, object] = {}
    if config.deadline_probes > 0:
        probes["deadline"] = await _probe_deadlines(config, probe_rng)
    if config.burst_probes > 0:
        probes["burst"] = await _probe_burst(config, probe_rng)

    failures: List[str] = []
    for phase in (cold, repeat):
        unexpected = {
            status: count
            for status, count in phase.statuses.items()
            if status != 200
        }
        if unexpected:
            failures.append(
                f"{phase.name} phase produced non-200 responses: "
                f"{unexpected}"
            )
    if mismatches:
        failures.append(
            f"{mismatches} repeat responses differed bitwise from their "
            f"first responses"
        )
    deadline_counts = probes.get("deadline")
    if deadline_counts and deadline_counts["other"]:
        failures.append(
            f"deadline probes produced statuses other than 200/504: "
            f"{deadline_counts}"
        )
    burst_counts = probes.get("burst")
    if burst_counts and burst_counts["other"]:
        failures.append(
            f"burst probes produced statuses other than 200/429: "
            f"{burst_counts}"
        )
    if config.require_cache:
        if repeat.store_hits != repeat.requests:
            failures.append(
                f"repeat phase expected {repeat.requests} store hits, "
                f"got {repeat.store_hits}"
            )
        if repeat_executions != 0:
            failures.append(
                f"repeat phase performed {repeat_executions} new "
                f"executions (expected 0)"
            )
    if config.p99_gate_ms is not None:
        p99 = repeat.latency_ms()["p99"]
        if p99 is None or p99 > config.p99_gate_ms:
            failures.append(
                f"repeat-phase p99 {p99}ms exceeds the "
                f"{config.p99_gate_ms}ms gate"
            )
    if config.min_rps is not None and repeat.rps < config.min_rps:
        failures.append(
            f"repeat-phase throughput {repeat.rps:.1f} req/s is below "
            f"the {config.min_rps} req/s floor"
        )

    return LoadReport(
        phases=[cold, repeat],
        probes=probes,
        repeat_identical=mismatches == 0,
        repeat_mismatches=mismatches,
        repeat_executions=repeat_executions,
        failures=failures,
    )


def run_load(config: LoadConfig) -> LoadReport:
    """Run the whole harness (blocking); the `repro load` entry point."""
    if config.mode not in ("closed", "open"):
        raise ValueError(
            f"unknown load mode {config.mode!r} (closed/open)"
        )
    if config.requests < 1:
        raise ValueError("requests must be >= 1")
    if config.mode == "open" and config.rate <= 0:
        raise ValueError("open-loop rate must be > 0")
    return asyncio.run(_run_load(config))


__all__ = [
    "LoadConfig",
    "LoadReport",
    "LoadRequest",
    "PhaseReport",
    "build_mix",
    "min_param",
    "percentile",
    "run_load",
]
