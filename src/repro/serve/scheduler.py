"""The scheduler behind every compute endpoint.

A submitted job passes three checks on the event loop, in this order:

1. **single-flight** — a request whose key is already being computed
   joins the in-flight future instead of enqueueing a duplicate;
2. **store read** — a key with a recorded response in the
   :class:`~repro.corpus.results.ResultStore` is answered at once, on
   the loop, with the stored bytes: bitwise identical to the first
   execution, zero new work, and never queued behind a running job;
3. **admission control** — a full queue rejects *before* admission
   (:class:`Backpressure` → 429 upstream); an admitted job is never
   dropped, it only ever completes or fails with its own error.

Admitted jobs wait on one bounded asyncio queue.  A single scheduler
task hands each one, as soon as the previous one is done, to one
dedicated worker thread that owns the shared execution backend.  Every
job's payload is a pure function of its resolved request descriptor
(DESIGN.md §13.4), so the arrival order is unobservable in the
responses — a property the conformance suite pins with hypothesis.

The store write is *behind* the response: the worker resolves the
waiting future first and persists the body afterwards, so a cold-cache
burst pays no sqlite latency on the response path.  A repeat that
arrives in between misses the loop-side read, so the worker reads the
store again before it executes a job; the worker is serial, so that
read comes after the previous job's persist.
"""

from __future__ import annotations

import asyncio
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Callable, Dict, Optional, Tuple

from repro.serve.http import canonical_json


class Backpressure(RuntimeError):
    """The admission queue is full; the service replies 429."""


class SchedulerClosed(RuntimeError):
    """Submit after close: the service is shutting down (503)."""


@dataclass
class JobResult:
    """What one settled job hands back to the connection handler."""

    body: bytes
    from_store: bool = False
    coalesced: bool = False


@dataclass
class _Job:
    key: str
    fn: Callable[[], Tuple[dict, int]]
    future: "asyncio.Future[JobResult]"
    endpoint: str
    admitted_at: float = 0.0


@dataclass
class ServeStats:
    """Thread-safe service counters (worker thread + event loop).

    ``snapshot()`` is what ``GET /stats`` serves; the load harness
    diffs two snapshots to attribute work to a run.
    """

    started_at: float = field(default_factory=monotonic)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    requests: Counter = field(default_factory=Counter)
    responses: Counter = field(default_factory=Counter)
    executions: int = 0
    jobs_executed: int = 0
    store_hits: int = 0
    store_misses: int = 0
    corpus_hits: int = 0
    corpus_misses: int = 0
    coalesced: int = 0
    rejected: int = 0
    deadline_timeouts: int = 0
    faults_recovered: int = 0
    queue_wait_total: float = 0.0
    queue_wait_jobs: int = 0

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def count(self, counter: str, key) -> None:
        with self._lock:
            getattr(self, counter)[key] += 1

    def waited(self, seconds: float) -> None:
        """One admitted job left the queue after ``seconds``."""
        with self._lock:
            self.queue_wait_total += seconds
            self.queue_wait_jobs += 1

    def snapshot(self, queue_depth: int, queue_limit: int) -> Dict[str, object]:
        with self._lock:
            return {
                "uptime": monotonic() - self.started_at,
                "requests": dict(self.requests),
                "responses": {str(k): v for k, v in self.responses.items()},
                "queue": {
                    "depth": queue_depth,
                    "limit": queue_limit,
                    "rejected": self.rejected,
                },
                "store": {
                    "hits": self.store_hits,
                    "misses": self.store_misses,
                },
                "corpus": {
                    "hits": self.corpus_hits,
                    "misses": self.corpus_misses,
                },
                "executions": self.executions,
                "jobs_executed": self.jobs_executed,
                "coalesced": self.coalesced,
                "deadline_timeouts": self.deadline_timeouts,
                "faults_recovered": self.faults_recovered,
                "queue_wait_total": self.queue_wait_total,
                "queue_wait_jobs": self.queue_wait_jobs,
            }


class BatchScheduler:
    """Run admitted jobs one at a time on one worker thread.

    One worker on purpose: the shared backend is not thread-safe (a
    serial one keeps the oracle of the instance it ran last).
    Parallelism belongs *inside* a job — a ``process:N`` backend fans a
    single solve's nodes out across worker processes — not across jobs.
    """

    def __init__(
        self,
        *,
        backend,
        store=None,
        queue_limit: int = 64,
        stats: Optional[ServeStats] = None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.backend = backend
        self.store = store
        self.queue_limit = queue_limit
        self.stats = stats if stats is not None else ServeStats()
        self._queue: "asyncio.Queue[_Job]" = asyncio.Queue(
            maxsize=queue_limit
        )
        self._inflight: Dict[str, "asyncio.Future[JobResult]"] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._task: Optional[asyncio.Task] = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._task = self._loop.create_task(self._run())

    async def close(self) -> None:
        """Drain nothing, fail pending jobs loudly, stop the worker."""
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        while not self._queue.empty():
            job = self._queue.get_nowait()
            if not job.future.done():
                job.future.set_exception(
                    SchedulerClosed("service shut down before execution")
                )
        self._inflight.clear()
        self._executor.shutdown(wait=True)
        self.backend.close()

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(
        self, key: str, endpoint: str, fn: Callable[[], Tuple[dict, int]]
    ) -> "asyncio.Future[JobResult]":
        """Admit one job; returns the future its response settles on.

        Raises :class:`Backpressure` when the admission queue is full
        (nothing was admitted, nothing will run) and
        :class:`SchedulerClosed` after shutdown began.  An identical
        in-flight key returns the *same* underlying future wrapped so
        every waiter sees ``coalesced=True`` except the original.  A
        stored key returns an already-settled future; so does a store
        read that raised, settled with its error.
        """
        if self._closed:
            raise SchedulerClosed("service is shutting down")
        existing = self._inflight.get(key)
        if existing is not None:
            self.stats.bump("coalesced")
            return self._piggyback(existing)
        assert self._loop is not None, "scheduler not started"
        future: "asyncio.Future[JobResult]" = self._loop.create_future()
        if self.store is not None:
            try:
                stored = self.store.get_response(key)
            except Exception as exc:
                # Settled, not raised: the caller maps it like a job's.
                future.set_exception(exc)
                return future
            if stored is not None:
                self.stats.bump("store_hits")
                future.set_result(JobResult(body=stored, from_store=True))
                return future
        job = _Job(
            key=key,
            fn=fn,
            future=future,
            endpoint=endpoint,
            admitted_at=perf_counter(),
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.stats.bump("rejected")
            raise Backpressure(
                f"admission queue full ({self.queue_limit} pending)"
            ) from None
        self._inflight[key] = future
        future.add_done_callback(lambda _f, k=key: self._forget(k))
        return future

    def _forget(self, key: str) -> None:
        self._inflight.pop(key, None)

    def _piggyback(
        self, future: "asyncio.Future[JobResult]"
    ) -> "asyncio.Future[JobResult]":
        """A dependent future marking its result as coalesced."""
        assert self._loop is not None
        waiter: "asyncio.Future[JobResult]" = self._loop.create_future()

        def _copy(done: "asyncio.Future[JobResult]") -> None:
            if waiter.done():
                return
            exc = done.exception() if not done.cancelled() else None
            if done.cancelled():
                waiter.cancel()
            elif exc is not None:
                waiter.set_exception(exc)
            else:
                result = done.result()
                waiter.set_result(
                    JobResult(
                        body=result.body,
                        from_store=result.from_store,
                        coalesced=True,
                    )
                )

        future.add_done_callback(_copy)
        return waiter

    # ------------------------------------------------------------------
    # the worker lane
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        assert self._loop is not None
        while True:
            job = await self._queue.get()
            self.stats.waited(perf_counter() - job.admitted_at)
            await self._loop.run_in_executor(self._executor, self._work, job)

    def _work(self, job: _Job) -> None:
        """Worker thread: settle one job, no exceptions out."""
        assert self._loop is not None
        try:
            result = self._run_job(job)
        except BaseException as exc:  # noqa: BLE001 - settled, not lost
            self._loop.call_soon_threadsafe(
                self._settle_error, job.future, exc
            )
            return
        self._loop.call_soon_threadsafe(self._settle, job.future, result)
        if not result.from_store and self.store is not None:
            # Write-behind: the response future is already settling on
            # the loop; the persist happens after.
            try:
                self.store.record_response(
                    job.key, result.body, endpoint=job.endpoint
                )
            except Exception:
                # A failed persist degrades the cache, never the
                # response that already settled.
                pass

    def _run_job(self, job: _Job) -> JobResult:
        # The loop read this key before admission; this second read
        # catches a body persisted since, in the write-behind window.
        if self.store is not None:
            stored = self.store.get_response(job.key)
            if stored is not None:
                self.stats.bump("store_hits")
                return JobResult(body=stored, from_store=True)
            self.stats.bump("store_misses")
        payload, executions = job.fn()
        self.stats.bump("jobs_executed")
        if executions:
            self.stats.bump("executions", executions)
        return JobResult(body=canonical_json(payload), from_store=False)

    @staticmethod
    def _settle(future: "asyncio.Future[JobResult]", result: JobResult) -> None:
        if not future.done():
            future.set_result(result)

    @staticmethod
    def _settle_error(future: "asyncio.Future[JobResult]", exc) -> None:
        if not future.done():
            future.set_exception(exc)


__all__ = [
    "Backpressure",
    "BatchScheduler",
    "JobResult",
    "SchedulerClosed",
    "ServeStats",
]
