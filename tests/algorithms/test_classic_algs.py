"""Tests for the classic-problem algorithms (Figures 1–2, Example 7.6)."""

import math
import random

import pytest

from repro.algorithms.classic_algs import (
    ColeVishkinColoring,
    MISFromColoring,
    RelayCongest,
    RelayProbeSolver,
    TwoColoringGather,
    cv_iterations,
)
from repro.graphs.generators import cycle_instance, relay_instance
from repro.model.congest import run_congest
from repro.model.runner import run_algorithm, solve_and_check
from repro.problems.classic.cycle_coloring import (
    CycleColoring,
    MaximalIndependentSet,
    TwoColoring,
)
from repro.problems.classic.relay import RelayProblem


class TestCVIterations:
    def test_small_fixed_point(self):
        # 3-bit colors include 6 and 7, which the shift-down keeps.
        assert cv_iterations(3) == 1

    def test_reaches_six_colors(self):
        for id_bits in range(1, 300):
            bound = 2 ** max(3, id_bits)
            for _ in range(cv_iterations(id_bits)):
                bound = 2 * (bound - 1).bit_length()
            assert bound <= 6

    def test_monotone_and_tiny(self):
        # log* growth: even 2^16-bit IDs need only a handful of rounds
        assert cv_iterations(8) <= 4
        assert cv_iterations(64) <= 6
        assert cv_iterations(2**16) <= 8

    def test_iterated_log_behaviour(self):
        assert cv_iterations(64) <= cv_iterations(2**20)


class TestColeVishkin:
    # One step short, n = 5, 6, 12, 1024 (the `cycle` family's largest
    # full-grid point) and 2048 ended with colors 6 or 7.
    @pytest.mark.parametrize("n", [5, 6, 8, 12, 16, 64, 256, 1024, 2048])
    def test_proper_coloring(self, n):
        inst = cycle_instance(n, rng=random.Random(n))
        report = solve_and_check(CycleColoring(3), inst, ColeVishkinColoring())
        assert report.valid, report.violations[:4]

    def test_distance_is_log_star(self):
        """Class B: distance (and volume) Θ(log* n) — tiny and flat."""
        costs = []
        for n in (16, 256, 4096):
            inst = cycle_instance(n, rng=random.Random(1))
            result = run_algorithm(inst, ColeVishkinColoring())
            costs.append(result.max_distance)
        assert all(c <= 24 for c in costs)
        # growth between n=16 and n=4096 is at most a couple of rounds
        assert costs[-1] - costs[0] <= 6

    def test_volume_close_to_distance(self):
        inst = cycle_instance(128, rng=random.Random(2))
        result = run_algorithm(inst, ColeVishkinColoring())
        assert result.max_volume <= 2 * result.max_distance + 4


class TestMIS:
    @pytest.mark.parametrize("n", [5, 6, 8, 12, 32, 128, 1024, 2048])
    def test_valid_mis(self, n):
        inst = cycle_instance(n, rng=random.Random(n))
        report = solve_and_check(
            MaximalIndependentSet(), inst, MISFromColoring()
        )
        assert report.valid, report.violations[:4]


class TestTwoColoring:
    @pytest.mark.parametrize("n", [4, 10, 64])
    def test_proper_on_even_cycles(self, n):
        inst = cycle_instance(n, rng=random.Random(n))
        report = solve_and_check(TwoColoring(), inst, TwoColoringGather())
        assert report.valid, report.violations[:4]

    def test_distance_is_linear(self):
        """Class D: the whole cycle must be explored."""
        inst = cycle_instance(32, rng=random.Random(0))
        result = run_algorithm(inst, TwoColoringGather())
        assert result.max_volume == 32
        assert {p.queries for p in result.profiles.values()} == {32}


class TestRelayProbe:
    @pytest.mark.parametrize("depth", [2, 4, 6])
    def test_correct(self, depth):
        inst = relay_instance(depth, rng=random.Random(depth))
        report = solve_and_check(RelayProblem(), inst, RelayProbeSolver())
        assert report.valid, report.violations[:4]

    def test_volume_logarithmic(self):
        inst = relay_instance(7, rng=random.Random(0))  # n = 510
        result = run_algorithm(inst, RelayProbeSolver())
        n = inst.graph.num_nodes
        assert result.max_volume <= 3 * math.log2(n) + 6


class TestRelayCongest:
    def _run(self, depth, bandwidth):
        inst = relay_instance(depth, rng=random.Random(depth))
        n = inst.graph.num_nodes
        id_bits = math.ceil(math.log2(n + 1))
        algo = RelayCongest(depth=depth, id_bits=id_bits, bandwidth=bandwidth)
        left_leaves = set(inst.meta["left_leaves"])

        def leaves_done(outputs):
            return all(outputs[v] is not None for v in left_leaves)

        result = run_congest(
            inst,
            algo,
            bandwidth=bandwidth,
            max_rounds=16 * 2**depth + 64,
            done_predicate=leaves_done,
        )
        return inst, result

    def test_correct_outputs(self):
        inst, result = self._run(depth=4, bandwidth=64)
        for u_leaf, v_leaf in inst.meta["pairing"].items():
            assert result.outputs[u_leaf] == inst.label(v_leaf).bit

    def test_rounds_scale_with_n_over_b(self):
        """Example 7.6: rounds ≈ N·pair_bits/B — inversely in B."""
        _, narrow = self._run(depth=5, bandwidth=16)
        _, wide = self._run(depth=5, bandwidth=256)
        assert narrow.rounds > 2 * wide.rounds

    def test_rounds_grow_linearly_in_n(self):
        rounds = []
        for depth in (3, 5):
            inst, result = self._run(depth=depth, bandwidth=16)
            n_leaves = len(inst.meta["left_leaves"])
            pair_bits = math.ceil(math.log2(inst.graph.num_nodes + 1)) + 1
            # the Ω(N·pair_bits/B) bridge bottleneck (Example 7.6)
            assert result.rounds >= n_leaves * pair_bits / 16
            rounds.append(result.rounds)
        assert rounds[1] >= 2 * rounds[0]
