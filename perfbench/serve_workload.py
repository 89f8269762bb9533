"""The ``serve-mixed`` workload: one ``repro serve`` process, open loop.

Set-up starts ``repro serve --store <fresh file>`` with default settings
(a separate process; the traced run hosts it in-process through
``ServerThread`` instead so the span wrappers apply), waits for
``/healthz`` and stores the *pre-stored set* by requesting each of its
entries once.  The measured phase is an open loop at :data:`RATE`
requests per second over :data:`CONNECTIONS` keep-alive connections,
from this process: every request has a scheduled send time, latency is
timed from that time (so waiting behind a slow request counts), and the
generator's own lateness is recorded.

Half the requests replay entries of the pre-stored set (store hits) and
half are fresh (executed, then written behind the response); a seeded
shuffle interleaves them.  Requests come from
``repro.serve.load.build_mix``'s solve/mc/adversary shares, recorded
once in ``golden.json`` together with the digest of every response
body, so the run checks each answer byte for byte.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from common import (
    ROOT,
    SRC,
    DigestBook,
    bytes_digest,
    digest,
    latency_summary,
    median,
    peak_rss_mb_pid,
    percentile,
)

WORKLOAD = "serve-mixed"
# Offered load: well below the saturation of the measured mix on two
# cores (about a quarter of the server's one worker thread), so queueing
# behind the few slow fresh requests stays short.
RATE = 12.0
CONNECTIONS = 2
HOST = "127.0.0.1"
# A run plays one schedule this many times, each on a fresh server, and
# takes each request's fastest latency over the rounds; with three
# rounds the latency tail still spread by a third between runs.
ROUNDS = 6
# The fresh pool holds exactly the misses of one round of this length;
# longer rounds are refused, not silently shortened.
POOL_SECONDS = 10
PRESTORED = 48
POOL_SEED = 1543
# A run whose generator ran later than this, or that ends with more
# requests outstanding than this, measured the generator, not the
# server: it is reported invalid instead of as latency numbers.
LATE_LIMIT_MS = 50.0
# Fresh requests slower than this alone (Monte-Carlo estimates on the
# larger full-gather cells, up to 0.8 s) stay out of the fresh pool; they
# remain in the pre-stored set, as hits.  Two or three of them per round
# would hold the server's one worker long enough to make the latency
# tail a matter of which requests happened to queue behind them.
FRESH_MAX_S = 0.15
BACKLOG_LIMIT = int(RATE)
REQUEST_TIMEOUT = 60.0


def request_id(path: str, payload: Dict[str, object]) -> str:
    return digest([path, payload])


def encode(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


# ----------------------------------------------------------------------
# a small keep-alive HTTP/1.1 client
# ----------------------------------------------------------------------
class Client:
    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, Dict[str, str], bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                HOST, self.port
            )
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.writer.write(head + body)
        await self.writer.drain()
        status = int((await self.reader.readuntil(b"\n")).split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = (await self.reader.readuntil(b"\n")).rstrip(b"\r\n")
            if not line:
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        payload = await self.reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = self.reader = None


async def get_json(port: int, path: str) -> Dict[str, object]:
    client = Client(port)
    try:
        status, _, body = await client.request("GET", path)
    finally:
        await client.close()
    if status != 200:
        raise ConnectionError(f"GET {path} returned {status}")
    return json.loads(body)


async def closed_loop(port: int, requests, connections: int = CONNECTIONS):
    """Send each (path, payload) once, ``connections`` at a time."""
    queue: "asyncio.Queue[Tuple[int, tuple]]" = asyncio.Queue()
    for item in enumerate(requests):
        queue.put_nowait(item)
    results: List[Optional[tuple]] = [None] * len(requests)

    async def worker():
        client = Client(port)
        try:
            while not queue.empty():
                index, (path, payload) = queue.get_nowait()
                results[index] = await asyncio.wait_for(
                    client.request("POST", path, encode(payload)),
                    REQUEST_TIMEOUT,
                )
        finally:
            await client.close()

    await asyncio.gather(*(worker() for _ in range(connections)))
    return results


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------
def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port, in its own process."""

    def __init__(self, store_path, log_path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONUNBUFFERED"] = "1"
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", HOST,
             "--port", "0", "--store", str(store_path)],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
            # A run started in the background inherits an ignored SIGINT;
            # the server needs it back to shut down on stop().
            preexec_fn=_default_sigint,
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server failed to start: {line!r}")
        self.port = int(line.split("listening on http://", 1)[1]
                        .split()[0].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> Optional[float]:
        return peak_rss_mb_pid(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.proc.stdout.close()
        self._log.close()


class InProcessServer:
    """The same service on a background thread of this process."""

    def __init__(self, store_path, log_path=None) -> None:
        from repro.serve.service import ServeConfig, ServerThread

        self._thread = ServerThread(ServeConfig(port=0, store=str(store_path)))
        _, self.port = self._thread.start()

    def peak_rss_mb(self) -> Optional[float]:
        return peak_rss_mb_pid(os.getpid())

    def stop(self) -> None:
        self._thread.stop()


async def wait_healthy(port: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            await get_json(port, "/healthz")
            return
        except (ConnectionError, OSError):
            if time.monotonic() > deadline:
                raise
            await asyncio.sleep(0.02)


def check_response(book: DigestBook, path, payload, response,
                   kind: str) -> bool:
    """Judge one response: status 200, store use, verdict, digest.

    ``kind`` is what the schedule planned: a ``"hit"`` must be answered
    from the store and a ``"miss"`` must be executed, so the latency
    split by kind times what its label says.
    """
    key = request_id(path, payload)
    status, headers, body = response
    if status != 200:
        return book.verify(key, False, f"status {status}")
    store = headers.get("x-repro-store")
    if store != kind:
        return book.verify(
            key, False, f"X-Repro-Store {store}, planned {kind}"
        )
    parsed = json.loads(body)
    return book.check(
        key, bytes_digest(body), ok=parsed.get("valid", True) is not False
    )


# ----------------------------------------------------------------------
# set-up, schedule and the open loop
# ----------------------------------------------------------------------
@dataclass
class Setup:
    server: object
    prestore: List[tuple]
    fresh: List[tuple]


def start(golden, scratch, book: DigestBook, in_process: bool) -> Setup:
    """Server start to ``/healthz`` 200, then the pre-stored set."""
    recorded = golden[WORKLOAD]
    prestore = [tuple(item) for item in recorded["prestore"]]
    fresh = [tuple(item) for item in recorded["fresh"]]
    factory = InProcessServer if in_process else ServerProcess
    label = f"serve-{time.time_ns()}"
    server = factory(scratch.file(f"{label}.sqlite"),
                     scratch.file(f"{label}.log"))
    try:
        asyncio.run(wait_healthy(server.port))
        responses = asyncio.run(closed_loop(server.port, prestore))
    except BaseException:
        server.stop()
        raise
    for (path, payload), response in zip(prestore, responses):
        check_response(book, path, payload, response, "miss")
    return Setup(server, prestore, fresh)


def schedule(setup: Setup, seed: int, seconds: float):
    """Seeded, exactly half hits: [(offset s, kind, path, payload)].

    Slots come in pairs of one hit and one miss, in seeded order within
    the pair; hits are seeded draws from the pre-stored set.  Misses keep
    the recorded pool order, which spreads the few slow fresh requests
    (Monte-Carlo estimates on full-gather cells) evenly over the run, so
    the latency tail measures the server, not where a seed happened to
    bunch them.
    """
    rng = random.Random(f"{WORKLOAD}:{seed}")
    pairs = max(1, int(round(RATE * seconds / 2)))
    if pairs > len(setup.fresh):
        raise ValueError(
            f"a {seconds:g} s round needs {pairs} fresh requests; the "
            f"recorded pool holds {len(setup.fresh)} (at most "
            f"{POOL_SECONDS * ROUNDS} s a run)"
        )
    slots = []
    for miss in setup.fresh[:pairs]:
        pair = [("hit",) + tuple(rng.choice(setup.prestore)),
                ("miss",) + tuple(miss)]
        rng.shuffle(pair)
        slots.extend(pair)
    return [(i / RATE,) + slot for i, slot in enumerate(slots)]


@dataclass
class Sample:
    kind: str
    path: str
    payload: Dict[str, object]
    status: int = 0
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    latency: float = 0.0
    late: float = 0.0


async def open_loop(port: int, plan):
    """Fire ``plan`` on schedule; returns samples, window, backlog."""
    pool: "asyncio.Queue[Client]" = asyncio.Queue()
    clients = [Client(port) for _ in range(CONNECTIONS)]
    for client in clients:
        pool.put_nowait(client)
    samples = [Sample(kind, path, payload) for _, kind, path, payload in plan]
    done = [0]
    epoch = time.perf_counter() + 0.05

    async def fire(sample: Sample, offset: float) -> None:
        due = epoch + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sample.late = time.perf_counter() - due
        client = await pool.get()
        try:
            sample.status, sample.headers, sample.body = await asyncio.wait_for(
                client.request("POST", sample.path, encode(sample.payload)),
                REQUEST_TIMEOUT,
            )
        except (asyncio.TimeoutError, ConnectionError, OSError):
            sample.status = 0
            await client.close()
        finally:
            pool.put_nowait(client)
        sample.latency = time.perf_counter() - due
        done[0] += 1

    async def watch_backlog() -> int:
        last_due = epoch + plan[-1][0]
        await asyncio.sleep(max(0.0, last_due - time.perf_counter()))
        return len(plan) - done[0]

    try:
        watcher = asyncio.ensure_future(watch_backlog())
        await asyncio.gather(
            *(fire(s, offset) for s, (offset, *_rest) in zip(samples, plan))
        )
        backlog = await watcher
    finally:
        for client in clients:
            await client.close()
    window = max(s.latency + offset for s, (offset, *_r) in zip(samples, plan))
    return samples, window, backlog


def _delta(after: Dict, before: Dict, *path) -> float:
    a, b = after, before
    for part in path:
        a = a.get(part, {}) if isinstance(a, dict) else {}
        b = b.get(part, {}) if isinstance(b, dict) else {}
    a = a if isinstance(a, (int, float)) else 0
    b = b if isinstance(b, (int, float)) else 0
    return a - b


def _round(server, plan, book: DigestBook) -> Dict[str, object]:
    """One open-loop pass of ``plan`` against ``server``, every answer checked."""
    port = server.port

    async def run():
        before = await get_json(port, "/stats")
        result = await open_loop(port, plan)
        after = await get_json(port, "/stats")
        return before, result, after

    before, (samples, window, backlog), after = asyncio.run(run())
    ok = store_hits = 0
    # Per slot: server seconds, executions and trials of a good fresh
    # response (None / 0 for hits and failures).
    server_s: List[Optional[float]] = []
    executions: List[int] = []
    trials: List[int] = []
    overhead_ms = []
    for sample in samples:
        good = check_response(
            book, sample.path, sample.payload,
            (sample.status, sample.headers, sample.body), sample.kind,
        )
        ok += sample.status == 200
        store_hits += sample.headers.get("x-repro-store") == "hit"
        elapsed = sample.headers.get("x-repro-elapsed")
        if not (good and sample.kind == "miss" and elapsed is not None):
            server_s.append(None)
            executions.append(0)
            trials.append(0)
            continue
        body = json.loads(sample.body)
        n = int(body.get("n") or 0)
        count = int(body.get("trials", 0)) if sample.path == "/mc" else 0
        executions.append(n * count if sample.path == "/mc" else
                          n if sample.path == "/solve" else 0)
        trials.append(count)
        server_s.append(float(elapsed))
        overhead_ms.append((sample.latency - server_s[-1]) * 1000.0)
    return {
        # A failed or refused request misses every latency limit: it
        # enters the sample at the request timeout.
        "latency": [
            s.latency if s.status == 200 else REQUEST_TIMEOUT
            for s in samples
        ],
        "late_ms": [s.late * 1000.0 for s in samples],
        "window_s": window,
        "backlog_end": backlog,
        "ok": ok,
        "store_hits": store_hits,
        "server_s": server_s,
        "executions": executions,
        "trials": trials,
        "overhead_ms": overhead_ms,
        "jobs": _delta(after, before, "batches", "jobs"),
        "batches": _delta(after, before, "batches", "count"),
        "queue_wait_s": _delta(after, before, "queue_wait_total"),
        "coalesced": _delta(after, before, "coalesced"),
        "rejected": _delta(after, before, "queue", "rejected"),
        "deadline_timeouts": _delta(after, before, "deadline_timeouts"),
        "peak_rss_mb": server.peak_rss_mb(),
    }


def measure(setup: Setup, seed: int, seconds: float, book: DigestBook,
            restart: Callable[[], Setup],
            during=contextlib.nullcontext) -> Dict[str, object]:
    """:data:`ROUNDS` rounds of one schedule, each on a fresh server.

    Every round replays the same seeded schedule against a server with a
    fresh store (``restart()`` builds it; the previous one is stopped),
    so each slot's request is a miss or a hit in every round.  A slot's
    latency is its fastest over the rounds: load from outside only ever
    adds time, and the fastest repetition is the steadiest estimate.
    ``during`` wraps each round's open loop (the traced run installs its
    span wrappers there).

    The open loop fixes how many requests a second arrive, so
    ``executions_per_s`` and ``trials_per_s`` are taken over the server's
    own time on the fresh requests (each slot's fastest
    ``X-Repro-Elapsed``), not over the schedule's window.
    """
    plan = schedule(setup, seed, seconds / ROUNDS)
    rounds = []
    for index in range(ROUNDS):
        if index:
            setup.server.stop()
            setup.server = restart().server
        with during():
            rounds.append(_round(setup.server, plan, book))
    fastest = [min(r["latency"][i] for r in rounds) for i in range(len(plan))]
    kinds = [slot[1] for slot in plan]
    late_p99 = max(percentile(r["late_ms"], 99.0) for r in rounds)
    backlog = max(r["backlog_end"] for r in rounds)
    # Slots answered well in every round: their fastest server time, and
    # the (deterministic) executions and trials behind it.
    busy_s = executions = trials = 0
    server_ms = []
    for i in range(len(plan)):
        times = [r["server_s"][i] for r in rounds]
        if any(t is None for t in times):
            continue
        busy_s += min(times)
        server_ms.extend(t * 1000.0 for t in times)
        executions += rounds[0]["executions"][i]
        trials += rounds[0]["trials"][i]
    overhead_ms = [x for r in rounds for x in r["overhead_ms"]]
    jobs = sum(r["jobs"] for r in rounds)
    batches = sum(r["batches"] for r in rounds)

    def per_round(name: str) -> float:
        return sum(r[name] for r in rounds) / len(rounds)

    return {
        "rounds": len(rounds),
        "requests_per_round": len(plan),
        "samples": [
            [kind, [r["latency"][i] * 1000.0 for r in rounds]]
            for i, kind in enumerate(kinds)
        ],
        "window_s": [r["window_s"] for r in rounds],
        "latency": latency_summary(fastest),
        "hit": latency_summary(
            [x for x, kind in zip(fastest, kinds) if kind == "hit"]
        ),
        "miss": latency_summary(
            [x for x, kind in zip(fastest, kinds) if kind == "miss"]
        ),
        # Set by the schedule: it reads the offered rate unless requests
        # fail or the server falls behind it.
        "achieved_rps": median(r["ok"] / r["window_s"] for r in rounds),
        "offered_rps": RATE,
        "server_busy_s": busy_s,
        "executions_per_s": executions / busy_s if busy_s else 0.0,
        "trials_per_s": trials / busy_s if busy_s else 0.0,
        "peak_rss_mb": max(r["peak_rss_mb"] or 0.0 for r in rounds),
        "late_p99_ms": late_p99,
        "backlog_end": backlog,
        "valid": late_p99 <= LATE_LIMIT_MS and backlog <= BACKLOG_LIMIT,
        "layers": {
            "serve.queue_wait_ms": (
                sum(r["queue_wait_s"] for r in rounds) * 1000.0 / jobs
                if jobs else 0.0
            ),
            "serve.batch_size_mean": jobs / batches if batches else 0.0,
            "serve.server_ms": median(server_ms) if server_ms else 0.0,
            "serve.client_overhead_ms": (
                median(overhead_ms) if overhead_ms else 0.0
            ),
            "serve.store_hit_ratio": (
                sum(r["store_hits"] for r in rounds)
                / (len(plan) * len(rounds))
            ),
            "serve.coalesced": per_round("coalesced"),
            "serve.rejected": per_round("rejected"),
            "serve.deadline_timeouts": per_round("deadline_timeouts"),
            "load.late_p99_ms": late_p99,
            "load.backlog_end": backlog,
        },
    }


# ----------------------------------------------------------------------
# recording the pool and its golden digests
# ----------------------------------------------------------------------
def record(scratch) -> Dict[str, object]:
    """Draw the request pool from ``build_mix`` and digest every answer.

    Requests are deduplicated (adversary requests carry no seed, so only
    a few distinct ones exist); any request whose answer is not a valid
    200 is dropped, so no workload seed can pick a failing input, and
    so is any fresh request slower than :data:`FRESH_MAX_S`.  The
    fresh requests are dealt by recorded service time into one group per
    second of a run, heaviest first and at a golden-ratio stride, so the
    slow ones sit far apart and every second of the schedule offers a
    like share of slow and fast work.
    """
    from repro.serve.load import LoadConfig, build_mix

    wanted = PRESTORED + int(RATE * POOL_SECONDS / 2)
    seen, pool = set(), []
    for request in build_mix(LoadConfig(seed=POOL_SEED, requests=wanted * 2)):
        key = request_id(request.path, request.payload)
        if key not in seen:
            seen.add(key)
            pool.append((request.path, request.payload))
    server = InProcessServer(scratch.file("record.sqlite"))
    try:
        responses = asyncio.run(closed_loop(server.port, pool, 1))
    finally:
        server.stop()
    kept, bodies, cost = [], {}, {}
    for (path, payload), (status, headers, body) in zip(pool, responses):
        if status == 200 and json.loads(body).get("valid", True) is not False:
            key = request_id(path, payload)
            kept.append([path, payload])
            bodies[key] = bytes_digest(body)
            cost[key] = float(headers.get("x-repro-elapsed", 0.0))
    rng = random.Random(POOL_SEED)
    rng.shuffle(kept)
    prestore = kept[:PRESTORED]
    pool = [
        item for item in kept[PRESTORED:]
        if cost[request_id(*item)] <= FRESH_MAX_S
    ][:wanted - PRESTORED]
    pool.sort(key=lambda item: -cost[request_id(*item)])
    if len(pool) < wanted - PRESTORED:
        raise RuntimeError("request pool too small after dropping failures")
    stride = next(
        k for k in range(round(POOL_SECONDS * 0.618), POOL_SECONDS)
        if math.gcd(k, POOL_SECONDS) == 1
    )
    groups: List[list] = [[] for _ in range(POOL_SECONDS)]
    for index, item in enumerate(pool):
        groups[index * stride % POOL_SECONDS].append(item)
    fresh = []
    for group in groups:
        rng.shuffle(group)
        fresh.extend(group)
    keep = {request_id(p, q) for p, q in prestore + fresh}
    print(f"recorded {WORKLOAD}: {len(prestore)} pre-stored, "
          f"{len(fresh)} fresh requests")
    return {
        "prestore": prestore,
        "fresh": fresh,
        "bodies": {k: v for k, v in bodies.items() if k in keep},
    }
