"""Service behavior: routing, failure surface, 429/504, store, coalescing.

The module-scoped ``server`` fixture (conftest) is store-less, so every
compute request executes fresh; tests that need a store or a tiny
admission queue spin their own configured :class:`ServerThread`.
"""

import json
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve.service import ServeConfig, ServerThread

from _client import Client

SOLVE = {"algorithm": "cycle/2-coloring", "family": "cycle", "param": "8"}
# A fixed 250-trial Monte-Carlo job, ~0.1 s of work, so it is still
# running when a short deadline expires.  Its trials read random bits,
# so each one executes; a deterministic cell's batch would execute once.
SLOW_MC = {
    "algorithm": "leaf-coloring/rw-to-leaf",
    "family": "leaf-coloring",
    "param": "3",
    "policy": {
        "quick": False, "min_trials": 250, "max_trials": 250,
        "early_stop": False,
    },
}
# A solve-and-check that also takes tens of milliseconds (~20 ms since
# the cycle batch): several of the interpreter's 5 ms switch intervals,
# so the event loop runs a short deadline's timer before the worker
# thread finishes.  At n = 128 (~3 ms) the worker could finish first.
SLOW_SOLVE = {**SOLVE, "param": "1024"}


def fresh(payload, seed):
    """A unique descriptor: same work, never-seen request key."""
    return {**payload, "seed": seed}


class TestGetEndpoints:
    def test_healthz(self, server):
        status, _, body = server.get("/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_healthz_tolerates_query_string(self, server):
        status, _, _ = server.get("/healthz?probe=1")
        assert status == 200

    def test_registry_lists_components(self, server):
        status, _, body = server.get("/registry")
        assert status == 200
        payload = json.loads(body)
        assert any(
            a["name"] == "cycle/2-coloring" for a in payload["algorithms"]
        )
        assert {f["name"] for f in payload["families"]} >= {
            "cycle", "balanced-tree",
        }

    def test_stats_shape(self, server):
        status, _, body = server.get("/stats")
        assert status == 200
        stats = json.loads(body)
        assert {"requests", "responses", "queue", "store", "executions",
                "coalesced", "queue_wait_total",
                "queue_wait_jobs"} <= set(stats)
        assert stats["queue"]["limit"] == 64


class TestFailureSurface:
    def test_unknown_path_404(self, server):
        status, _, body = server.get("/nope")
        assert status == 404
        assert json.loads(body)["status"] == 404

    def test_wrong_method_on_get_endpoint_405(self, server):
        assert server.post("/healthz", {})[0] == 405
        assert server.post("/stats", {})[0] == 405

    def test_wrong_method_on_post_endpoint_405(self, server):
        assert server.get("/solve")[0] == 405

    def test_non_json_body_400(self, server):
        status, _, body = server.request("POST", "/solve", payload=None)
        # an empty body parses as {} and then fails resolution
        assert status == 400
        assert "algorithm" in json.loads(body)["error"]

    def test_body_must_be_object_400(self, server):
        conn_status, _, body = server.request("POST", "/solve", payload=[1])
        assert conn_status == 400
        assert "JSON object" in json.loads(body)["error"]

    def test_unknown_algorithm_400(self, server):
        status, _, body = server.post("/solve", {"algorithm": "no/such"})
        assert status == 400

    def test_unknown_adversary_400(self, server):
        status, _, _ = server.post("/adversary", {"adversary": "nope"})
        assert status == 400

    def test_unknown_adversary_victim_400(self, server):
        status, _, _ = server.post("/adversary", {
            "adversary": "prop49/balanced-tree", "algorithm": "no/such",
        })
        assert status == 400

    def test_bad_param_400(self, server):
        status, _, body = server.post(
            "/solve", {**SOLVE, "param": "'junk'"}
        )
        assert status == 400
        assert "rejected param" in json.loads(body)["error"]

    def test_unknown_policy_field_400(self, server):
        status, _, body = server.post("/mc", {
            **SOLVE, "policy": {"trials": 5},
        })
        assert status == 400
        assert "unknown policy fields" in json.loads(body)["error"]

    def test_bad_deadline_400(self, server):
        status, _, body = server.post(
            "/solve", {**SOLVE, "deadline": "soon"}
        )
        assert status == 400
        assert "deadline" in json.loads(body)["error"]

    def test_malformed_http_gets_400_and_close(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(b"BOGUS\r\n\r\n")
            raw = sock.recv(65536)
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in raw


class TestSolveResponses:
    def test_solve_round_trip_with_provenance_headers(self, server):
        status, headers, payload = server.post_json("/solve", SOLVE)
        assert status == 200
        assert payload["valid"] is True
        assert payload["n"] == 8
        assert payload["endpoint"] == "solve"
        assert len(headers["x-repro-key"]) == 16
        assert headers["x-repro-store"] == "miss"
        assert float(headers["x-repro-elapsed"]) > 0

    def test_repeat_is_bitwise_identical_without_a_store(self, server):
        # Responses are pure functions of the resolved descriptor, so
        # even a re-execution must produce the exact same bytes.
        first = server.post("/solve", SOLVE)
        second = server.post("/solve", SOLVE)
        assert first[0] == second[0] == 200
        assert first[2] == second[2]
        assert first[1]["x-repro-key"] == second[1]["x-repro-key"]

    def test_equivalent_spellings_share_a_key(self, server):
        # Filling a default explicitly must not change the request key.
        _, sparse, _ = server.post("/solve", SOLVE)
        _, explicit, _ = server.post(
            "/solve", {**SOLVE, "problem": "cycle-2-coloring"}
        )
        assert sparse["x-repro-key"] == explicit["x-repro-key"]

    def test_keep_alive_serves_many_requests_per_connection(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            for _ in range(3):
                sock.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                raw = b""
                while b"\r\n\r\n" not in raw:
                    raw += sock.recv(65536)
                head, _, rest = raw.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200 ")
                length = int(
                    [ln for ln in head.split(b"\r\n")
                     if ln.lower().startswith(b"content-length")][0]
                    .split(b":")[1]
                )
                while len(rest) < length:
                    rest += sock.recv(65536)


class TestDeadlines:
    def test_microscopic_deadline_times_out_cleanly(self, server):
        status, headers, body = server.post(
            "/mc", fresh(SLOW_MC, seed=990001) | {"deadline": 1e-4}
        )
        assert status == 504
        assert "deadline" in json.loads(body)["error"]
        assert len(headers["x-repro-key"]) == 16

    def test_pool_is_healthy_after_a_timeout(self, server):
        server.post("/mc", fresh(SLOW_MC, seed=990002) | {"deadline": 1e-4})
        assert server.get("/healthz")[0] == 200
        status, _, payload = server.post_json(
            "/solve", fresh(SOLVE, seed=990003)
        )
        assert status == 200 and payload["valid"] is True


class TestCoalescing:
    def test_concurrent_identical_requests_single_flight(self, server):
        # A slow fixed-count MC job keeps the key in flight long enough
        # for the second request to piggyback deterministically.
        payload = {
            **SLOW_MC,
            "seed": 990010,
            "policy": {
                "quick": False, "min_trials": 300, "max_trials": 300,
                "early_stop": False,
            },
        }
        before = json.loads(server.get("/stats")[2])
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(server.post, "/mc", payload) for _ in range(2)
            ]
            results = [f.result() for f in futures]
        after = json.loads(server.get("/stats")[2])
        assert [r[0] for r in results] == [200, 200]
        assert results[0][2] == results[1][2]  # bitwise identical
        coalesced = [
            r for r in results if r[1].get("x-repro-coalesced") == "1"
        ]
        assert len(coalesced) == 1
        assert after["coalesced"] - before["coalesced"] == 1
        # One execution burst for two requests: 300 trials, not 600.
        assert after["executions"] - before["executions"] == 300


class TestBackpressure:
    def test_saturation_rejects_without_dropping_admitted(self, tmp_path):
        config = ServeConfig(port=0, queue_limit=1)
        with ServerThread(config) as thread:
            client = Client(thread.address)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(
                        client.post, "/mc", {**SLOW_MC, "seed": 990100 + i}
                    )
                    for i in range(8)
                ]
                results = [f.result() for f in futures]
            statuses = sorted(r[0] for r in results)
            # Only 200 and 429 may come back; with eight simultaneous
            # ~0.1 s jobs against a one-slot queue, at least
            # one must have been rejected.
            assert set(statuses) <= {200, 429}
            assert 429 in statuses
            rejected = [r for r in results if r[0] == 429]
            for _, headers, body in rejected:
                assert headers["retry-after"]
                assert "queue full" in json.loads(body)["error"]
            # Every admitted request completed with a real result.
            for status, _, body in results:
                if status == 200:
                    assert json.loads(body)["trials"] == 250
            stats = json.loads(client.get("/stats")[2])
            assert stats["queue"]["rejected"] == len(rejected)


class TestStoreBacked:
    @pytest.fixture()
    def stored_server(self, tmp_path):
        config = ServeConfig(port=0, store=str(tmp_path / "serve.sqlite"))
        with ServerThread(config) as thread:
            yield Client(thread.address)

    def test_repeat_served_from_store_bitwise_with_zero_executions(
        self, stored_server
    ):
        first = stored_server.post("/solve", SOLVE)
        assert first[0] == 200
        assert first[1]["x-repro-store"] == "miss"
        mid = json.loads(stored_server.get("/stats")[2])
        second = stored_server.post("/solve", SOLVE)
        after = json.loads(stored_server.get("/stats")[2])
        assert second[0] == 200
        assert second[1]["x-repro-store"] == "hit"
        assert second[2] == first[2]  # the exact stored bytes
        assert "x-repro-elapsed" not in second[1]
        # The stored repeat executed nothing.
        assert after["executions"] == mid["executions"]
        assert after["store"]["hits"] == mid["store"]["hits"] + 1

    def test_timed_out_response_still_lands_in_the_store(
        self, stored_server
    ):
        # The 504 abandons the response, not the computation: the job
        # finishes on the worker and its body is persisted, so the
        # retry is a pure store hit.
        payload = fresh(SLOW_SOLVE, seed=990200)
        status, headers, _ = stored_server.post(
            "/solve", payload | {"deadline": 1e-4}
        )
        assert status == 504
        key = headers["x-repro-key"]
        # The write-behind trails the (abandoned) response; poll until
        # the store row lands, then the retry must be a pure hit.
        for _ in range(100):
            retry_status, retry_headers, body = stored_server.post(
                "/solve", payload
            )
            assert retry_status == 200
            assert retry_headers["x-repro-key"] == key
            if retry_headers["x-repro-store"] == "hit":
                break
            time.sleep(0.02)
        assert retry_headers["x-repro-store"] == "hit"
        assert json.loads(body)["valid"] is True

    def test_store_read_error_is_a_500_and_the_server_survives(
        self, tmp_path
    ):
        config = ServeConfig(port=0, store=str(tmp_path / "serve.sqlite"))
        with ServerThread(config) as thread:
            client = Client(thread.address)
            store = thread.service.store
            read = store.get_response

            def broken_once(key):
                del store.get_response  # the next read works again
                raise RuntimeError("store unreadable")

            store.get_response = broken_once
            status, _, body = client.post("/solve", SOLVE)
            assert status == 500
            assert json.loads(body)["error"] == (
                "RuntimeError: store unreadable"
            )
            assert store.get_response == read
            status, headers, payload = client.post_json("/solve", SOLVE)
            assert status == 200 and payload["valid"] is True
            assert headers["x-repro-store"] == "miss"
