"""E8/E9 — Example 7.6 + Observation 7.4, and E10/E11 ablations.

* Example 7.6: probe volume O(log n) vs CONGEST rounds Ω(n/B) on the
  two-trees-with-a-bridge relay.
* Observation 7.4: BalancedTree solved in O(log n) CONGEST rounds while
  its volume is Θ(n) — the opposite separation.
* E10 ablation: waypoint probability multiplier vs volume and validity.
* E11 ablation: private vs secret randomness for RWtoLeaf (§7.4).

The CONGEST-vs-probe comparisons are sweep pairs sharing one memoized
composite measurement per size; the ablations dispatch their repeated
runs through one :class:`SerialBackend`, which keeps the oracle of the
instance it ran last, so the instance oracle is built once, not once per
trial.
"""

import math
import random

from _common import (
    BACKEND,
    InstanceFamily,
    SweepSpec,
    banner,
    once,
    report_sweeps,
)

from repro.algorithms.balanced_tree_algs import (
    BalancedTreeCongestFlood,
    BalancedTreeFullGather,
)
from repro.algorithms.classic_algs import RelayCongest, RelayProbeSolver
from repro.algorithms.hierarchical_algs import WaypointHTHC
from repro.algorithms.leaf_coloring_algs import RWtoLeaf, SecretRWtoLeaf
from repro.exec.backends import SerialBackend
from repro.graphs.generators import (
    balanced_tree_instance,
    hard_leaf_coloring_instance,
    hierarchical_thc_instance,
    leaf_coloring_instance,
    relay_instance,
)
from repro.model.congest import run_congest
from repro.model.runner import (
    run_algorithm,
    solve_and_check,
    success_probability,
)
from repro.problems.balanced_tree import BalancedTree
from repro.problems.hierarchical_thc import HierarchicalTHC
from repro.problems.leaf_coloring import LeafColoring


def test_example76_volume_vs_congest(benchmark):
    family = InstanceFamily(
        "relay",
        lambda depth: relay_instance(depth, rng=random.Random(depth)),
        [3, 4, 5, 6],
    )
    records = {}

    def measure(instance, depth):
        if depth not in records:
            n = instance.graph.num_nodes
            id_bits = math.ceil(math.log2(n + 1))
            bandwidth = 2 * (id_bits + 1)
            probe = run_algorithm(
                instance,
                RelayProbeSolver(),
                nodes=instance.meta["left_leaves"][:4],
                backend=BACKEND,
            )
            left = set(instance.meta["left_leaves"])
            congest = run_congest(
                instance,
                RelayCongest(depth, id_bits, bandwidth),
                bandwidth=bandwidth,
                max_rounds=64 * 2**depth,
                done_predicate=lambda outs: all(
                    outs[v] is not None for v in left
                ),
            )
            for u_leaf in instance.meta["left_leaves"]:
                expected = instance.label(
                    instance.meta["pairing"][u_leaf]
                ).bit
                assert congest.outputs[u_leaf] == expected
            records[depth] = (probe.max_volume, congest.rounds)
        return records[depth]

    def run():
        banner(
            "Example 7.6 — relay: probe volume O(log n) vs CONGEST rounds "
            "Ω(n/B)"
        )
        report_sweeps([
            SweepSpec("relay probe volume", "Θ(log n)", family,
                      measure=lambda inst, d: measure(inst, d)[0],
                      candidates=["log n", "n^{1/2}", "n"]),
            # with B = Θ(log n), the Ω(n/B) bottleneck reads Θ(n/log n)
            SweepSpec("relay CONGEST rounds (B≈2 log n)", "Θ(n/B)", family,
                      measure=lambda inst, d: measure(inst, d)[1],
                      candidates=["log n", "n^{1/2}", "n/log n", "n"]),
        ])

    once(benchmark, run)


def test_obs74_balanced_tree_congest(benchmark):
    family = InstanceFamily(
        "balanced-tree",
        lambda depth: balanced_tree_instance(depth, rng=random.Random(depth)),
        [3, 4, 5, 6],
    )
    rounds = {}

    def congest_rounds(instance, depth):
        if depth not in rounds:
            n = instance.graph.num_nodes
            id_bits = max(4, math.ceil(math.log2(n + 1)))
            result = run_congest(
                instance,
                BalancedTreeCongestFlood(id_bits=id_bits),
                bandwidth=16 * id_bits + 80,
                max_rounds=4 * id_bits + 16,
            )
            assert BalancedTree().validate(instance, result.outputs) == []
            rounds[depth] = result.rounds
        return rounds[depth]

    def run():
        banner(
            "Obs 7.4 — BalancedTree: O(log n) CONGEST rounds vs Θ(n) volume"
        )
        report_sweeps([
            SweepSpec("BalancedTree CONGEST rounds", "Θ(log n)", family,
                      measure=congest_rounds,
                      candidates=["log n", "n^{1/2}", "n"]),
            SweepSpec("BalancedTree volume", "Θ(n)", family, "volume",
                      BalancedTreeFullGather,
                      nodes=lambda inst, d: [inst.meta["root"]],
                      candidates=["log n", "n^{1/2}", "n"]),
        ])

    once(benchmark, run)


def test_ablation_waypoint_probability(benchmark):
    def run():
        banner(
            "Ablation E10 — waypoint probability multiplier "
            "(p = factor · 3 log n / √n)"
        )
        m = 12
        inst = hierarchical_thc_instance(
            2, m, rng=random.Random(3), lengths=[m, 8 * m]
        )
        problem = HierarchicalTHC(2)
        probes = list(range(1, 8 * m + 1, 8))
        serial = SerialBackend()  # one oracle for all factor × seed runs
        for factor in (0.01, 0.05, 0.2, 1.0, 2.0):
            failures = 0
            volumes = []
            for seed in range(5):
                algo = WaypointHTHC(2, factor=factor)
                report = solve_and_check(
                    problem, inst, algo, seed=seed, backend=serial
                )
                if not report.valid:
                    failures += 1
                volumes.append(
                    run_algorithm(
                        inst, algo, seed=seed, nodes=probes, backend=serial
                    ).max_volume
                )
            print(
                f"factor {factor:<5} max volume {max(volumes):<6} "
                f"failures {failures}/5"
                + (
                    "   (paper wants c ≥ 3: small factors may fail)"
                    if factor < 1
                    else ""
                )
            )

    once(benchmark, run)


def _promise_instance(trial: int):
    return hard_leaf_coloring_instance(6, rng=random.Random(trial))


def _general_instance(trial: int):
    return leaf_coloring_instance(6, rng=random.Random(100 + trial))


def test_ablation_randomness_models(benchmark):
    def run():
        banner(
            "Ablation E11 — §7.4: private vs secret randomness for RWtoLeaf"
        )
        problem = LeafColoring()
        trials = 8
        promise_ok = {}
        general_ok = {}
        for label, algo_factory in (
            ("private", RWtoLeaf),
            ("secret", SecretRWtoLeaf),
        ):
            with SerialBackend() as serial:
                promise_ok[label] = round(trials * success_probability(
                    problem, _promise_instance, algo_factory(), trials,
                    backend=serial,
                ))
                general_ok[label] = round(trials * success_probability(
                    problem, _general_instance, algo_factory(), trials,
                    backend=serial,
                ))
        for label in ("private", "secret"):
            print(
                f"{label:<8} promise instances: {promise_ok[label]}/{trials} "
                f"   general instances: {general_ok[label]}/{trials}"
            )
        print(
            "  paper: private solves both; secret solves the promise "
            "variant only (walks cannot coordinate)"
        )
        assert promise_ok["secret"] == trials
        assert general_ok["private"] == trials
        assert general_ok["secret"] < trials

    once(benchmark, run)


def test_structure_lemmas(benchmark):
    def run():
        banner("E12 — structure lemmas 3.8 / 5.11 measured on random sweeps")
        import math as _math

        from repro.graphs.generators import random_tree_instance
        from repro.graphs import tree_structure as ts

        worst_ratio = 0.0
        for seed in range(10):
            inst = random_tree_instance(200, rng=random.Random(seed))
            t = ts.InstanceTopology(inst)
            n = inst.graph.num_nodes
            limit = int(_math.log2(n)) + 1
            for v in inst.graph.nodes():
                if not ts.is_internal(t, v):
                    continue
                path = ts.descendant_leaf_path(t, v, limit)
                assert path is not None, "Lemma 3.8 violated"
                worst_ratio = max(
                    worst_ratio, (len(path) - 1) / _math.log2(max(2, n))
                )
        print(
            f"Lemma 3.8: nearest-leaf depth ≤ {worst_ratio:.2f}·log n over "
            f"10 random 200-node pseudo-trees (paper bound: 1.00·log n)"
        )

        inst = hierarchical_thc_instance(2, 10, rng=random.Random(1))
        n = inst.graph.num_nodes
        light = n ** (1 / 2)
        backbones = ts.all_backbones(inst, cap=2)
        heavy_children = 0
        for bb in backbones:
            if bb.level != 2:
                continue
            t = ts.InstanceTopology(inst)
            for v in bb.nodes:
                child = ts.hung_subtree_root(t, v, cap=2)
                if child is not None:
                    size = ts.hierarchy_subtree_size(inst, child, cap=2)
                    if size > light:
                        heavy_children += 1
        print(
            f"Lemma 5.11: heavy right children on the light top backbone: "
            f"{heavy_children} (bound: ≤ n^(1/2) = {light:.1f})"
        )
        assert heavy_children <= light

    once(benchmark, run)
