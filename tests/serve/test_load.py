"""The deterministic load harness and its ``repro load`` CLI face."""

import json
import socket

import pytest

from repro.serve.load import (
    LoadConfig,
    PhaseReport,
    build_mix,
    min_param,
    percentile,
    run_load,
)
from repro.serve.service import ServeConfig, ServerThread


class TestBuildMix:
    def test_same_config_is_byte_identical(self):
        first = build_mix(LoadConfig(requests=40))
        second = build_mix(LoadConfig(requests=40))
        assert [r.body() for r in first] == [r.body() for r in second]

    def test_different_seeds_diverge(self):
        left = build_mix(LoadConfig(requests=40, seed=1))
        right = build_mix(LoadConfig(requests=40, seed=2))
        assert [r.body() for r in left] != [r.body() for r in right]

    def test_mix_length_and_endpoints(self):
        mix = build_mix(LoadConfig(requests=200))
        assert len(mix) == 200
        paths = {r.path for r in mix}
        assert paths == {"/solve", "/mc", "/adversary"}

    def test_shares_track_the_config(self):
        mix = build_mix(LoadConfig(
            requests=400, seed=9, adversary_share=0.5, mc_share=0.5
        ))
        counts = {"/solve": 0, "/mc": 0, "/adversary": 0}
        for request in mix:
            counts[request.path] += 1
        assert counts["/solve"] == 0
        assert counts["/adversary"] > 100
        assert counts["/mc"] > 100

    def test_compute_requests_use_the_cheapest_quick_param(self):
        from repro.registry import FAMILIES

        for request in build_mix(LoadConfig(requests=80)):
            if request.path == "/adversary":
                continue
            family = FAMILIES.get(request.payload["family"])
            assert request.payload["param"] == repr(min_param(family))

    def test_adversaries_use_their_smallest_quick_budget(self):
        from repro.registry import ADVERSARIES

        seen = 0
        for request in build_mix(LoadConfig(requests=80)):
            if request.path != "/adversary":
                continue
            seen += 1
            entry = ADVERSARIES.get(request.payload["adversary"])
            assert request.payload["budget"] == min(entry.quick)
        assert seen > 0


class TestPercentile:
    def test_empty_sample_is_none(self):
        assert percentile([], 50) is None

    def test_nearest_rank_never_interpolates(self):
        sample = [1.0, 2.0, 3.0, 4.0]
        assert percentile(sample, 50) == 2.0
        assert percentile(sample, 75) == 3.0
        assert percentile(sample, 76) == 4.0

    def test_extremes(self):
        sample = [float(i) for i in range(1, 101)]
        assert percentile(sample, 99) == 99.0
        assert percentile(sample, 100) == 100.0
        assert percentile([5.0], 1) == 5.0


class TestPhaseReport:
    def test_payload_shape_and_hit_rate(self):
        report = PhaseReport(
            name="cold", requests=4, duration=2.0,
            statuses={200: 3, 504: 1},
            latencies=[0.010, 0.020, 0.030, 0.040],
            store_hits=2,
        )
        payload = report.to_payload()
        assert payload["rps"] == 2.0
        assert payload["store_hit_rate"] == 0.5
        assert payload["statuses"] == {"200": 3, "504": 1}
        assert payload["latency_ms"]["p50"] == 20.0
        assert payload["latency_ms"]["max"] == 40.0

    def test_empty_phase_has_null_latencies(self):
        report = PhaseReport(
            name="cold", requests=0, duration=0.0, statuses={}
        )
        payload = report.to_payload()
        assert payload["rps"] == 0.0
        assert payload["store_hit_rate"] == 0.0
        assert set(payload["latency_ms"].values()) == {None}


class TestRunLoadValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown load mode"):
            run_load(LoadConfig(mode="bogus"))

    def test_requests_floor(self):
        with pytest.raises(ValueError, match="requests"):
            run_load(LoadConfig(requests=0))

    def test_open_loop_needs_a_positive_rate(self):
        with pytest.raises(ValueError, match="rate"):
            run_load(LoadConfig(mode="open", rate=0.0))


@pytest.fixture(scope="module")
def stored_address(tmp_path_factory):
    """One store-backed server shared by the end-to-end harness tests."""
    store = tmp_path_factory.mktemp("load") / "serve.sqlite"
    with ServerThread(ServeConfig(port=0, store=str(store))) as thread:
        yield thread.address


class TestHarnessEndToEnd:
    def test_closed_loop_cache_gates_hold(self, stored_address):
        host, port = stored_address
        report = run_load(LoadConfig(
            host=host, port=port, requests=8, concurrency=2,
            seed=77, deadline_probes=1, burst_probes=4,
            require_cache=True,
        ))
        assert report.ok, report.failures
        cold, repeat = report.phases
        assert cold.name == "cold" and repeat.name == "repeat"
        assert cold.statuses == {200: 8}
        assert repeat.statuses == {200: 8}
        assert repeat.store_hits == 8
        assert report.repeat_identical is True
        assert report.repeat_executions == 0
        assert report.probes["deadline"]["other"] == 0
        assert report.probes["burst"]["other"] == 0
        payload = report.to_payload()
        assert payload["ok"] is True
        assert payload["phases"][1]["store_hit_rate"] == 1.0

    def test_open_loop_smoke(self, stored_address):
        host, port = stored_address
        report = run_load(LoadConfig(
            host=host, port=port, requests=6, concurrency=2,
            mode="open", rate=200.0, seed=78,
            deadline_probes=0, burst_probes=0,
        ))
        assert report.phases[0].statuses == {200: 6}
        assert report.phases[1].statuses == {200: 6}

    def test_impossible_gates_fail_loudly(self, stored_address):
        host, port = stored_address
        report = run_load(LoadConfig(
            host=host, port=port, requests=4, concurrency=2,
            seed=79, deadline_probes=0, burst_probes=0,
            p99_gate_ms=1e-9, min_rps=1e9,
        ))
        assert report.ok is False
        assert any("p99" in f for f in report.failures)
        assert any("floor" in f for f in report.failures)


class TestLoadCli:
    def test_load_writes_the_report_and_exits_zero(
        self, stored_address, tmp_path, capsys
    ):
        from repro.cli import main

        host, port = stored_address
        out = tmp_path / "load.json"
        code = main([
            "load", "--host", host, "--port", str(port),
            "--requests", "6", "--concurrency", "2", "--seed", "81",
            "--deadline-probes", "0", "--burst-probes", "0",
            "--require-cache", "--json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["config"]["requests"] == 6
        printed = json.loads(capsys.readouterr().out)
        assert printed == payload

    def test_failed_gate_exits_one(self, stored_address, capsys):
        from repro.cli import main

        host, port = stored_address
        code = main([
            "load", "--host", host, "--port", str(port),
            "--requests", "4", "--seed", "82",
            "--deadline-probes", "0", "--burst-probes", "0",
            "--min-rps", "1000000000",
        ])
        assert code == 1
        assert "GATE FAILED" in capsys.readouterr().out

    def test_no_server_exits_two(self, capsys):
        from repro.cli import main

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        code = main([
            "load", "--port", str(free_port), "--requests", "2",
            "--deadline-probes", "0", "--burst-probes", "0",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_serve_port_conflict_exits_two(self, capsys):
        from repro.cli import main

        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            taken = holder.getsockname()[1]
            code = main(["serve", "--port", str(taken)])
        assert code == 2
        assert "error" in capsys.readouterr().err
