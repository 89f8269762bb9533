"""The scheduler: one worker, single-flight, store reads on the loop, 429."""

import asyncio
import json
import random
import sys
import threading
import time
from collections import Counter

import pytest

from repro.serve.http import canonical_json
from repro.serve.scheduler import (
    Backpressure,
    BatchScheduler,
    SchedulerClosed,
)


class DummyBackend:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


def run(coro_fn, **kwargs):
    """Drive one scenario against a live scheduler, then tear it down."""
    backend = kwargs.pop("backend", None) or DummyBackend()

    async def go():
        scheduler = BatchScheduler(backend=backend, **kwargs)
        scheduler.start()
        try:
            return await coro_fn(scheduler)
        finally:
            await scheduler.close()

    return asyncio.run(go())


def job(payload, executions=1):
    return lambda: (payload, executions)


class TestExecution:
    def test_result_is_canonical_json_of_the_payload(self):
        async def scenario(scheduler):
            return await scheduler.submit("k1", "/solve", job({"b": 1, "a": 2}))

        result = run(scenario)
        assert result.body == canonical_json({"a": 2, "b": 1})
        assert result.from_store is False
        assert result.coalesced is False

    def test_execution_counters_accumulate(self):
        async def scenario(scheduler):
            await scheduler.submit("k1", "/mc", job({"v": 1}, executions=7))
            await scheduler.submit("k2", "/mc", job({"v": 2}, executions=3))
            return scheduler.stats

        stats = run(scenario)
        assert stats.jobs_executed == 2
        assert stats.executions == 10
        assert stats.queue_wait_jobs == 2

    def test_fn_error_settles_the_future_and_the_lane_survives(self):
        async def scenario(scheduler):
            def explode():
                raise ValueError("boom")

            with pytest.raises(ValueError, match="boom"):
                await scheduler.submit("bad", "/solve", explode)
            result = await scheduler.submit("ok", "/solve", job({"v": 1}))
            return json.loads(result.body)

        assert run(scenario) == {"v": 1}

    def test_constructor_validates_knobs(self):
        backend = DummyBackend()
        with pytest.raises(ValueError, match="queue_limit"):
            BatchScheduler(backend=backend, queue_limit=0)


class TestSingleFlight:
    def test_identical_inflight_key_coalesces(self):
        calls = []

        def fn():
            calls.append(1)
            time.sleep(0.05)
            return {"v": 42}, 1

        async def scenario(scheduler):
            first = scheduler.submit("same", "/solve", fn)
            second = scheduler.submit("same", "/solve", fn)
            return await asyncio.gather(first, second)

        first, second = run(scenario)
        assert len(calls) == 1
        assert first.body == second.body
        assert first.coalesced is False
        assert second.coalesced is True

    def test_completed_key_runs_fresh_again(self):
        calls = []

        def fn():
            calls.append(1)
            return {"v": len(calls)}, 1

        async def scenario(scheduler):
            await scheduler.submit("same", "/solve", fn)
            return await scheduler.submit("same", "/solve", fn)

        result = run(scenario)
        assert len(calls) == 2
        assert result.coalesced is False


class TestStore:
    def test_read_through_serves_stored_bytes_without_executing(
        self, tmp_result_store
    ):
        stored = b'{"answer":1}\n'
        tmp_result_store.record_response("key", stored, endpoint="/solve")

        def never():
            raise AssertionError("stored key must not execute")

        async def scenario(scheduler):
            return await scheduler.submit("key", "/solve", never)

        result = run(scenario, store=tmp_result_store)
        assert result.from_store is True
        assert result.body == stored

    def test_write_behind_persists_after_the_response(
        self, tmp_result_store
    ):
        async def scenario(scheduler):
            result = await scheduler.submit(
                "key", "/solve", job({"v": 9})
            )
            for _ in range(100):  # the persist trails the response
                if tmp_result_store.get_response("key") is not None:
                    break
                await asyncio.sleep(0.01)
            return result

        result = run(scenario, store=tmp_result_store)
        assert tmp_result_store.get_response("key") == result.body

    def test_persist_failure_degrades_cache_not_response(
        self, tmp_result_store
    ):
        def broken_record(*args, **kwargs):
            raise RuntimeError("disk full")

        tmp_result_store.record_response = broken_record

        async def scenario(scheduler):
            return await scheduler.submit("key", "/solve", job({"v": 1}))

        result = run(scenario, store=tmp_result_store)
        assert json.loads(result.body) == {"v": 1}


class TestStoreOnTheLoop:
    def test_stored_key_resolves_before_the_running_job(
        self, tmp_result_store
    ):
        # The stored key is answered on the loop, so it never queues
        # behind the job the worker is running.
        stored = b'{"v":0}\n'
        tmp_result_store.record_response("stored", stored, endpoint="/solve")
        order = []

        def slow():
            time.sleep(0.3)
            return {"v": 1}, 1

        async def scenario(scheduler):
            running = scheduler.submit("slow", "/solve", slow)
            await asyncio.sleep(0.05)  # the worker is now busy on "slow"
            hit = scheduler.submit("stored", "/solve", job({"v": 2}))
            for name, future in (("slow", running), ("stored", hit)):
                future.add_done_callback(lambda _f, n=name: order.append(n))
            return await asyncio.gather(running, hit)

        _, hit = run(scenario, store=tmp_result_store)
        assert order == ["stored", "slow"]
        assert hit.from_store is True
        assert hit.body == stored

    def test_repeat_in_the_write_behind_window_is_served_by_the_worker(
        self, tmp_result_store
    ):
        # Hold the persist open: the first response settles, a repeat
        # misses the loop-side read and is admitted, and the worker's
        # own read, which follows the persist, must answer it.
        gate = threading.Event()
        record = tmp_result_store.record_response

        def held_record(*args, **kwargs):
            gate.wait(timeout=30)
            record(*args, **kwargs)

        tmp_result_store.record_response = held_record
        calls = []

        def fn():
            calls.append(1)
            return {"v": len(calls)}, 1

        async def scenario(scheduler):
            try:
                first = await scheduler.submit("key", "/solve", fn)
                repeat = scheduler.submit("key", "/solve", fn)
                missed_loop_read = not repeat.done()
            finally:
                gate.set()
            return first, await repeat, missed_loop_read

        first, repeat, missed_loop_read = run(
            scenario, store=tmp_result_store
        )
        assert missed_loop_read
        assert len(calls) == 1
        assert repeat.from_store is True
        assert repeat.coalesced is False
        assert repeat.body == first.body

    def test_store_read_error_settles_the_future(self, tmp_result_store):
        def broken_read(key):
            raise RuntimeError("store unreadable")

        tmp_result_store.get_response = broken_read

        async def scenario(scheduler):
            future = scheduler.submit("key", "/solve", job({"v": 1}))
            with pytest.raises(RuntimeError, match="store unreadable"):
                await future
            return scheduler.stats.jobs_executed

        assert run(scenario, store=tmp_result_store) == 0

    def test_interleaved_stored_fresh_and_repeat_keys(
        self, tmp_result_store
    ):
        # Concurrent clients with thread switches every microsecond
        # interleave the loop's store reads, single-flight and the
        # worker's settle-then-persist in as many orders as a short run
        # reaches, and a slow disk lets some repeats land in the
        # write-behind window.  Every fresh key must execute once, and
        # every answer must carry its key's first body.
        stored = {f"s{i}": canonical_json({"stored": i}) for i in range(8)}
        for key, body in stored.items():
            tmp_result_store.record_response(key, body, endpoint="/solve")
        record = tmp_result_store.record_response
        pauses = random.Random(6)

        def slow_record(*args, **kwargs):
            time.sleep(pauses.choice((0, 0.0005, 0.002)))
            record(*args, **kwargs)

        tmp_result_store.record_response = slow_record
        fresh = [f"f{i}" for i in range(24)]
        calls = Counter()

        def make(key):
            def fn():
                calls[key] += 1
                return {"key": key}, 1

            return fn

        rng = random.Random(5)
        orders = []
        for _ in range(4):
            order = [k for k in list(stored) + fresh for _ in range(2)]
            rng.shuffle(order)
            orders.append(order)

        async def scenario(scheduler):
            async def client(order):
                answers = []
                for key in order:
                    result = await scheduler.submit(key, "/solve", make(key))
                    answers.append((key, result.body))
                return answers

            answers = await asyncio.wait_for(
                asyncio.gather(*(client(order) for order in orders)),
                timeout=60,
            )
            return [pair for c in answers for pair in c], scheduler.stats

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            answers, stats = run(scenario, store=tmp_result_store)
        finally:
            sys.setswitchinterval(previous)
        assert len(answers) == sum(map(len, orders))
        first = dict(stored)
        for key, body in answers:
            assert body == first.setdefault(key, body), key
        assert calls == Counter(fresh)
        # Each submit is counted once: coalesced, a store hit (on the
        # loop or the worker), or a miss that executed.
        assert stats.store_misses == stats.jobs_executed == len(fresh)
        assert stats.store_hits + stats.store_misses + stats.coalesced == (
            len(answers)
        )


class TestAdmission:
    def test_full_queue_rejects_before_admission(self):
        def slow():
            time.sleep(0.2)
            return {"v": 1}, 1

        async def scenario(scheduler):
            first = scheduler.submit("k1", "/solve", slow)
            await asyncio.sleep(0.05)  # the worker is now busy on k1
            second = scheduler.submit("k2", "/solve", job({"v": 2}))
            with pytest.raises(Backpressure):
                scheduler.submit("k3", "/solve", job({"v": 3}))
            results = await asyncio.gather(first, second)
            return results, scheduler.stats.rejected

        results, rejected = run(scenario, queue_limit=1)
        # The rejection dropped nothing that was admitted.
        assert [json.loads(r.body) for r in results] == [{"v": 1}, {"v": 2}]
        assert rejected == 1

    def test_close_fails_queued_jobs_and_closes_backend(self):
        backend = DummyBackend()

        def slow():
            time.sleep(0.2)
            return {"v": 1}, 1

        async def go():
            scheduler = BatchScheduler(backend=backend, queue_limit=4)
            scheduler.start()
            running = scheduler.submit("k1", "/solve", slow)
            await asyncio.sleep(0.05)
            queued = scheduler.submit("k2", "/solve", job({"v": 2}))
            await scheduler.close()
            # The in-flight job finished (the executor drains before
            # shutdown, and the settle callback lands on the next loop
            # tick); the queued one failed loudly.
            assert json.loads((await running).body) == {"v": 1}
            with pytest.raises(SchedulerClosed):
                await queued
            with pytest.raises(SchedulerClosed):
                scheduler.submit("k3", "/solve", job({"v": 3}))

        asyncio.run(go())
        assert backend.closed is True
