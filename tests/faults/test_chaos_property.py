"""Property suite: *every* seeded fault plan must leave no trace.

Hypothesis drives fault plans (seed x rate x budget x kind subsets)
across registry cells and workload shapes, on whichever transport the
pool picks; the invariants are always the same two:

1. the chaotic result is bitwise equal to the fault-free serial run,
2. ``/dev/shm`` is exactly as clean after the run as before it.

Resume after a crash is the result store's property, tested in
``tests/corpus/test_resume.py``.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.leaf_coloring_algs import RWtoLeaf
from repro.faults.chaos import run_chaos, shm_entries
from repro.faults.plan import FAULT_KINDS, FaultPlan
from repro.graphs.generators import leaf_coloring_instance
from repro.problems.leaf_coloring import LeafColoring
from repro.cli import main, resolve_cell
from repro.registry import load_components

SPEED = {"delay_s": 0.05}  # keep delay-chunk faults fast under test


def _instance():
    return leaf_coloring_instance(3, rng=random.Random(5))


def _plan_strategy():
    kinds = st.sampled_from(
        [
            FAULT_KINDS,
            ("kill-worker", "corrupt-payload"),
            ("transient-oserror", "delay-chunk"),
            ("shm-attach-fail", "shm-publish-fail", "kill-worker"),
        ]
    )
    return st.builds(
        FaultPlan,
        seed=st.integers(min_value=0, max_value=10_000),
        kinds=kinds,
        rate=st.sampled_from([0.3, 0.6, 1.0]),
        max_faults=st.integers(min_value=0, max_value=4),
        delay_s=st.just(SPEED["delay_s"]),
        max_attempt=st.integers(min_value=0, max_value=2),
    )


class TestChaosInvariants:
    @settings(max_examples=8, deadline=None)
    @given(plan=_plan_strategy())
    def test_whole_instance_runs_survive_any_plan(self, plan):
        report = run_chaos(
            LeafColoring(),
            _instance(),
            RWtoLeaf(),
            plan=plan,
            workers=2,
            seed=11,
            chunk_size=2,
        )
        assert report.ok, report.format_line()
        assert report.leaked == []

    @settings(max_examples=5, deadline=None)
    @given(plan=_plan_strategy())
    def test_trial_batches_survive_any_plan(self, plan):
        report = run_chaos(
            LeafColoring(),
            _instance(),
            RWtoLeaf(),
            plan=plan,
            workers=2,
            seed=11,
            trials=8,
            chunk_size=2,
        )
        assert report.ok, report.format_line()

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100))
    def test_registry_cells_survive(self, seed):
        load_components()
        for algo in ("leaf-coloring/distance", "leaf-coloring/rw-to-leaf"):
            problem, algorithm, family = resolve_cell(algo)
            report = run_chaos(
                problem.make(),
                family.instance(family.quick[0]),
                algorithm.make(),
                plan=FaultPlan(
                    seed=seed, rate=0.6, max_faults=3, **SPEED
                ),
                workers=2,
                chunk_size=2,
            )
            assert report.ok, report.format_line()

    def test_shm_is_clean_right_now(self):
        # A tripwire for leaks from *other* tests in this suite: by the
        # time this module runs nothing should be published.
        from repro.exec.shm import published_segments

        assert published_segments() == []
        assert isinstance(shm_entries(), set)


class TestQuickMatrix:
    def test_every_transport_takes_chunk_faults(self, capsys):
        """``repro chaos --quick`` must still torture the pickle node stage.

        With no transport option the pool picks the path: plan seed 2
        fails the first publish, so one node run's chunks go by pickle.
        """
        code = main([
            "chaos", "leaf-coloring/rw-to-leaf", "--quick",
            "--delay", "0.05", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["ok"]
        faulted = set()
        for report in payload["reports"]:
            assert report["equal"] and report["shm_clean"]
            chunk_faults = [
                event for event in report["events"]
                if event["kind"].startswith("injected:")
                and event["unit"] >= 0
            ]
            if chunk_faults:
                shape = report["workload"].split("[")[0]
                faulted.add((shape, report["transport"]))
        assert faulted == {
            ("run", "shm"), ("run", "pickle"), ("trials", "pickle")
        }
