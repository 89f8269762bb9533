"""Cross-engine conformance: interactive verdicts replay on finished instances.

For every registered adversary and every execution backend (serial,
batch, process — compiled fast path — plus the uncompiled reference
engine), the finalized instance must reproduce the interactive verdict:

* the recorded transcript replays divergence-free against both the
  ``StaticOracle`` and the ``CompiledOracle`` of the finished instance
  (inside each adversary's ``verify``);
* re-running the victim algorithm on the finished instance through the
  ordinary backend machinery reproduces the interactive outputs,
  truncation behavior, and defeat/uphold verdict.

Budgets are drawn by hypothesis, so the property is exercised across the
lazy-growth decision space, not just the registered grid points.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.registry import ADVERSARIES, load_components

load_components()

# Budget pools per adversary: small enough to keep hypothesis fast, wide
# enough to hit different growth shapes (escape vs defeat, deep vs
# shallow phases, disjoint vs intersecting inputs).
BUDGETS = {
    "prop313/leaf-coloring": st.integers(min_value=24, max_value=120),
    "prop520/hierarchical-thc(2)": st.integers(min_value=8, max_value=32),
    "prop49/balanced-tree": st.integers(min_value=2, max_value=5),
}

BACKENDS = ["serial", "reference", "process:1", "process:2"]


def test_budget_pools_cover_every_registered_adversary():
    assert set(BUDGETS) == set(ADVERSARIES.names())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(BUDGETS))
class TestConformance:
    @given(data=st.data())
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_finalized_rerun_reproduces_interactive_verdict(
        self, name, backend, data
    ):
        entry = ADVERSARIES.get(name)
        adversary = entry.make()
        budget = data.draw(BUDGETS[name])
        run = adversary.run(budget)
        assert run.upheld, (
            f"{name} failed to uphold its bound at budget {budget}"
        )
        assert run.instance is not None
        assert run.transcript is not None
        assert run.queries >= 0
        assert adversary.verify(run, backend=backend), (
            f"{name} verdict did not reproduce on backend {backend!r} "
            f"at budget {budget}"
        )


class TestVictimOverride:
    """The conformance property holds for non-default victims too."""

    @pytest.mark.parametrize(
        "name,victim",
        [
            ("prop313/leaf-coloring", "leaf-coloring/full-gather"),
            ("prop520/hierarchical-thc(2)", "hierarchical-thc(2)/full-gather"),
        ],
    )
    def test_alternate_deterministic_victims(self, name, victim):
        entry = ADVERSARIES.get(name)
        adversary = entry.make(victim)
        run = adversary.run(entry.quick[0])
        assert run.upheld
        assert run.algorithm == victim
        assert adversary.verify(run, backend="serial")
        assert adversary.verify(run, backend="reference")

    @pytest.mark.parametrize(
        "name,victim",
        [
            ("prop313/leaf-coloring", "leaf-coloring/rw-to-leaf"),
            ("prop520/hierarchical-thc(2)", "hierarchical-thc(2)/waypoint"),
        ],
    )
    def test_randomized_victims_are_rejected(self, name, victim):
        entry = ADVERSARIES.get(name)
        with pytest.raises(ValueError, match="deterministic"):
            entry.make(victim).run(entry.quick[0])


class TestDefeatPath:
    """Conformance also holds when the victim is *defeated* (not just
    budget-starved): the horizon-limited solver terminates under budget
    with a color the adversary then contradicts."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_prop313_defeat_verdict_reproduces(self, backend, monkeypatch):
        from repro.adversary.leaf_coloring import Prop313Adversary
        from repro.lower_bounds.yao_experiments import (
            HorizonLimitedLeafColoring,
        )

        adversary = Prop313Adversary()
        monkeypatch.setattr(
            adversary, "make_victim", lambda: HorizonLimitedLeafColoring(3)
        )
        run = adversary.run(300)
        assert run.defeated
        assert run.upheld
        assert not run.detail["exceeded_budget"]
        assert adversary.verify(run, backend=backend)
