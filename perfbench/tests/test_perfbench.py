"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They cover the self-time arithmetic on a synthetic span tree, open-loop
lateness accounting against a stub server, a short smoke run of every
workload, traced-vs-untraced digest equality, and the refusal to run
without the program's source.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import serve_workload  # noqa: E402
import tracing  # noqa: E402
from common import DigestBook, bytes_digest, smoothed_percentile  # noqa: E402


def _span(span_id, name, start, end, parent=0, tid=1, extra=None):
    return [span_id, name, tid, start, end, parent, None, extra]


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_self_times_add_up_to_the_root():
    spans = [
        _span(1, "root", 0, 100),
        _span(2, "a", 10, 50, parent=1),
        _span(3, "b", 15, 25, parent=2),
        _span(4, "b", 30, 45, parent=2),
        _span(5, "c", 60, 90, parent=1),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 30, 2: 15, 3: 10, 4: 15, 5: 30}
    assert sum(own.values()) == 100


def test_layer_table_counts_outermost_calls_only():
    # A wrapped method calling its own wrapped base: one call, exact self.
    spans = [
        _span(1, "root", 0, 100),
        _span(2, "exec.trial_batch", 10, 90, parent=1, extra={"trials": 8}),
        _span(3, "exec.trial_batch", 20, 80, parent=2, extra={"trials": 8}),
        _span(4, "model.solve", 30, 70, parent=3),
    ]
    table = tracing.layer_table(spans)
    batch = table["exec.trial_batch"]
    assert batch["calls"] == 1
    assert batch["total_s"] == pytest.approx(80e-9)
    assert batch["self_s"] == pytest.approx(40e-9)
    assert table["model.solve"]["self_s"] == pytest.approx(40e-9)
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(100e-9)


def test_accounting_splits_wall_into_attributed_and_remainder():
    spans = [
        _span(1, "bench.workload", 0, 1000),
        _span(2, "exec.sweep", 100, 600, parent=1),
        _span(3, "model.solve_and_check", 200, 500, parent=2),
    ]
    acct = layers.accounting(spans, spans[0], serve=False)
    assert acct["unattributed_s"] == pytest.approx(500e-9)
    assert acct["attributed_s"] + acct["unattributed_s"] == pytest.approx(
        acct["wall_s"]
    )


def test_smoothed_percentile_averages_neighbouring_ranks():
    values = [float(v) for v in range(20, 0, -1)]
    # p50 averages ranks 8..12; p75 ranks 13..17, short of the maximum.
    assert smoothed_percentile(values, 50.0) == pytest.approx(10.0)
    assert smoothed_percentile(values, 75.0) == pytest.approx(15.0)
    assert smoothed_percentile([7.0], 99.0) == 7.0


def test_recorder_nests_spans_per_thread():
    recorder = tracing.SpanRecorder()
    with recorder.keyed("cell|param"):
        with recorder.span("outer") as outer:
            with recorder.span("inner") as inner:
                pass
    assert inner[tracing._PARENT] == outer[tracing._ID]
    assert inner[tracing._KEY] == "cell|param"
    trace = tracing.chrome_trace(recorder, outer[tracing._START])
    names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
    assert names == ["outer", "inner"]


# ----------------------------------------------------------------------
# open-loop lateness against a stub server
# ----------------------------------------------------------------------
async def _stub_server(delay: float):
    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                await reader.readexactly(length)
                await asyncio.sleep(delay)
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                    b"X-Repro-Store: miss\r\n\r\n{}"
                )
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def _drive(delay: float, rate: float, count: int):
    plan = [(i / rate, "miss", "/solve", {"i": i}) for i in range(count)]

    async def main():
        server = await _stub_server(delay)
        port = server.sockets[0].getsockname()[1]
        try:
            return await serve_workload.open_loop(port, plan)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def test_open_loop_below_capacity_has_no_backlog():
    samples, window, backlog = _drive(delay=0.02, rate=20.0, count=12)
    assert all(s.status == 200 for s in samples)
    assert all(s.latency >= 0.02 for s in samples)
    assert max(s.late for s in samples) < 0.02
    assert backlog <= 1
    assert window == pytest.approx(11 / 20.0 + 0.02, abs=0.05)


def test_open_loop_counts_queueing_from_the_scheduled_time():
    # Two connections at 50 ms each serve 40 req/s; offering 100 req/s
    # queues requests, and latency must include that wait.
    samples, window, backlog = _drive(delay=0.05, rate=100.0, count=20)
    latencies = [s.latency for s in samples]
    assert latencies[-1] > 0.25  # ~ (20/40 - 19/100) s of queueing
    assert latencies[-1] > latencies[1] + 0.2
    assert backlog >= 5
    # The generator itself stayed on time; the server fell behind.
    assert max(s.late for s in samples) < 0.02


# ----------------------------------------------------------------------
# serving checks that need no server
# ----------------------------------------------------------------------
def test_a_planned_hit_must_come_from_the_store():
    key = serve_workload.request_id("/solve", {"i": 1})
    book = DigestBook({key: bytes_digest(b"{}")})

    def judge(store, kind):
        response = (200, {"x-repro-store": store}, b"{}")
        return serve_workload.check_response(
            book, "/solve", {"i": 1}, response, kind
        )

    assert judge("hit", "hit") and judge("miss", "miss")
    # A hit the server executed, or a fresh request it answered from a
    # store, fails even though the body is right.
    assert not judge("miss", "hit")
    assert not judge("hit", "miss")
    assert (book.attempted, book.failed) == (4, 2)


def test_schedule_refuses_rounds_longer_than_the_pool():
    fresh = [("/solve", {"i": i}) for i in range(3)]
    setup = serve_workload.Setup(None, [("/solve", {"i": -1})], fresh)
    plan = serve_workload.schedule(setup, seed=1, seconds=0.5)
    assert [slot[1] for slot in plan].count("miss") == 3
    assert [slot[1] for slot in plan].count("hit") == 3
    with pytest.raises(ValueError):
        serve_workload.schedule(setup, seed=1, seconds=1.0)


# ----------------------------------------------------------------------
# end-to-end runs of the benchmark command
# ----------------------------------------------------------------------
def _run(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )
    return done


def _result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def _artifact(workload, seed, trace):
    path = ROOT / ".perfbench_out" / (
        f"result-{workload}-seed{seed}-trace{trace}.json"
    )
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "workload", ["gather-solve", "probe-sublinear", "serve-mixed"]
)
def test_short_smoke_run(workload):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", "0")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = _result(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(result["metrics"]) == names
    # A short serving schedule may hold no fresh /mc request (0 trials/s).
    assert all(m["value"] >= 0 for m in result["metrics"].values())
    assert result["metrics"]["setup_s"]["value"] > 0
    assert result["metrics"]["p50_ms"]["value"] > 0


@pytest.mark.parametrize("workload", ["gather-solve", "serve-mixed"])
def test_traced_digest_equals_untraced(workload):
    common = ("--workload", workload, "--seed", "5", "--seconds", "0.5")
    untraced = _run(*common, "--trace", "0")
    traced = _run(*common, "--trace", "1")
    assert untraced.returncode == 0 and traced.returncode == 0, (
        traced.stdout[-3000:] + traced.stderr[-3000:]
    )
    names = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(_result(traced)["metrics"]) == names
    plain = _artifact(workload, 5, 0)
    spans = _artifact(workload, 5, 1)
    assert plain["run_digest"] == spans["run_digest"]
    acct = spans["accounting"]
    assert acct["attributed_s"] + acct["unattributed_s"] == pytest.approx(
        acct["wall_s"]
    )
    assert (ROOT / spans["trace_path"]).is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "gather-solve", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
