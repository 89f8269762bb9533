"""The tree-distance batches must equal the scalar engine per start node.

``leaf-coloring/distance``, ``balanced-tree/distance``,
``hybrid-thc(2)/distance`` and ``hh-thc(2,3)/distance`` answer a run
from the compiled oracle's predicate rows
(``repro.model.batched.TreeTable``) and build each start's profile from
the rows its scalar run evaluates (DESIGN.md §9.3).  These tests pin the
outputs, every ``CostProfile`` field and the node order against per-node
``execute_at``; they check that every input the batches do not cover
reaches the scalar loop, and count the scalar executions of a run.
HH-THC's bit-0 starts replay RecursiveHTHC(ℓ) over the same table;
``test_thc_batch.py`` pins that replay.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.model.batched as batched_module
from repro.adversary.disjointness import TwoPartyReferee
from repro.adversary.leaf_coloring import AdversarialTreeOracle
from repro.algorithms.balanced_tree_algs import BalancedTreeDistanceSolver
from repro.algorithms.hh_algs import HHDistanceSolver
from repro.algorithms.hybrid_algs import HybridDistanceSolver
from repro.algorithms.leaf_coloring_algs import LeafColoringDistanceSolver
from repro.exec.backends import (
    ProcessPoolBackend,
    SerialBackend,
    _execute_nodes,
)
from repro.graphs.generators import (
    balanced_tree_instance,
    corrupt_instance,
    disjointness_embedding,
    hh_thc_instance,
    hybrid_thc_instance,
    leaf_coloring_instance,
    perturbed_leaf_coloring_instance,
    random_tree_instance,
)
from repro.graphs.labelings import (
    BALANCED,
    COLORS,
    EXEMPT,
    UNBALANCED,
    Instance,
)
from repro.model.implicit import InstanceSpec, as_oracle
from repro.model.oracle import StaticOracle, compile_oracle
from repro.model.probe import CostProfile, execute_at
from repro.model.runner import run_algorithm
from repro.registry import iter_compatible, load_components

load_components()

ALGORITHMS = (
    LeafColoringDistanceSolver,
    BalancedTreeDistanceSolver,
    HybridDistanceSolver,
    HHDistanceSolver,
)
#: Constructor arguments: the registry's defaults (k = 2, ℓ = 3).
ARGS = {HybridDistanceSolver: (2,), HHDistanceSolver: (2, 3)}
POINTS = sorted(
    {
        (cell.algorithm.name, cell.family.name, param)
        for cell in iter_compatible()
        if cell.algorithm.cls in ALGORITHMS
        for param in cell.family.quick + cell.family.full
    },
    key=repr,
)


def _cell(name, family):
    return next(
        c for c in iter_compatible()
        if c.algorithm.name == name and c.family.name == family
    )


def _assert_batch_matches_scalar(oracle, algorithm, nodes):
    batched = algorithm.run_node_batch(oracle, nodes)
    assert batched is not None
    scalar = [(node, *execute_at(oracle, algorithm, node)) for node in nodes]
    assert [node for node, _, _ in batched] == list(nodes)
    assert batched == scalar
    # Every start node owns its profile: a CostProfile is mutable.
    assert len({id(profile) for _, _, profile in batched}) == len(batched)
    return batched


def _count_calls(monkeypatch, cls, attr):
    calls = [0]
    original = getattr(cls, attr)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, attr, counted)
    return calls


def _edited(instance, edits, advertised=None):
    """``instance`` with label edits: a port field moved to another port
    (0 is ⊥; a port past the node's last resolves to nothing), or a
    node recolored.  ``advertised`` replaces the ``n`` every algorithm
    is given, which sets the solvers' layer horizons."""
    labeling = instance.labeling.copy()
    nodes = sorted(instance.graph.nodes())
    for field, pick, value in edits:
        label = labeling[nodes[pick % len(nodes)]]
        if field == "color":
            label.color = COLORS[value % 2]
        else:
            setattr(label, field, value or None)
    return Instance(
        graph=instance.graph,
        labeling=labeling,
        n=advertised or instance.n,
        name=instance.name + "-edited",
        meta=instance.meta,
    )


EDITS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "parent",
                "left_child",
                "right_child",
                "left_neighbor",
                "right_neighbor",
                "color",
            ]
        ),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=6,
)
#: ``None`` keeps the true n; a small n shortens the layer horizons.
ADVERTISED = st.sampled_from([None, None, 2, 4, 8])


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("name, family, param", POINTS)
    def test_registry_points(self, name, family, param):
        cell = _cell(name, family)
        instance = cell.family.instance(param)
        oracle = compile_oracle(instance)
        nodes = list(instance.graph.nodes())
        _assert_batch_matches_scalar(oracle, cell.algorithm.make(), nodes)
        # The chunks a two-worker pool cuts, in a shuffled node order:
        # each is a partial run over the same table.
        random.Random(repr(param)).shuffle(nodes)
        for chunk in ProcessPoolBackend(workers=2)._chunk(nodes):
            _assert_batch_matches_scalar(
                oracle, cell.algorithm.make(), chunk
            )

    @pytest.mark.parametrize(
        "name, family, param",
        [
            ("leaf-coloring/distance", "random-tree-cyclic", 48),
            ("balanced-tree/distance", "balanced-tree", 5),
            ("hybrid-thc(2)/distance", "hybrid-thc(2)", (3, 3)),
            ("hh-thc(2,3)/distance", "hh-thc(2,3)", (4, 4, 2)),
        ],
    )
    def test_process_pool_run_equals_reference(self, name, family, param):
        cell = _cell(name, family)
        instance = cell.family.instance(param)
        reference = run_algorithm(
            instance, cell.algorithm.make(),
            backend=SerialBackend(compiled=False),
        )
        with ProcessPoolBackend(workers=2) as pool:
            pooled = run_algorithm(
                instance, cell.algorithm.make(), backend=pool
            )
        assert pooled.outputs == reference.outputs
        assert pooled.profiles == reference.profiles
        assert list(pooled.outputs) == list(reference.outputs)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        shape=st.sampled_from(
            ["tree", "cyclic", "complete", "perturbed"]
        ),
        size=st.integers(min_value=2, max_value=60),
        fraction=st.sampled_from([0.0, 0.05, 0.1, 0.3]),
        edits=EDITS,
        advertised=ADVERTISED,
        chunk=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_drawn_leaf_coloring_inputs(
        self, seed, shape, size, fraction, edits, advertised, chunk
    ):
        rng = random.Random(seed)
        if shape == "complete":
            instance = leaf_coloring_instance(1 + size % 6, rng=rng)
        elif shape == "perturbed":
            instance = perturbed_leaf_coloring_instance(
                1 + size % 6, rng.random(), rng=rng
            )
        else:
            instance = random_tree_instance(
                size,
                rng=rng,
                with_cycle=shape == "cyclic",
                cycle_length=2 + size % 7,
                max_degree=4,
            )
        if fraction:
            instance = corrupt_instance(instance, fraction, rng=rng)
        instance = _edited(instance, edits, advertised)
        nodes = list(instance.graph.nodes())
        if chunk:
            nodes = rng.sample(nodes, len(nodes) // 2)
        oracle = compile_oracle(instance)
        for make in (LeafColoringDistanceSolver, BalancedTreeDistanceSolver):
            _assert_batch_matches_scalar(oracle, make(), nodes)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        depth=st.integers(min_value=1, max_value=6),
        break_count=st.integers(min_value=0, max_value=6),
        fraction=st.sampled_from([0.0, 0.05, 0.1, 0.3]),
        edits=EDITS,
        advertised=ADVERTISED,
        chunk=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_drawn_balanced_trees(
        self, seed, depth, break_count, fraction, edits, advertised, chunk
    ):
        rng = random.Random(seed)
        instance = balanced_tree_instance(
            depth,
            compatible=break_count == 0,
            rng=rng,
            break_count=break_count,
        )
        if fraction:
            instance = corrupt_instance(instance, fraction, rng=rng)
        instance = _edited(instance, edits, advertised)
        nodes = list(instance.graph.nodes())
        if chunk:
            nodes = rng.sample(nodes, len(nodes) // 2)
        _assert_batch_matches_scalar(
            compile_oracle(instance), BalancedTreeDistanceSolver(), nodes
        )

    @pytest.mark.parametrize("pairs", [1, 2, 4, 8])
    def test_every_disjointness_embedding(self, pairs):
        # E(a, b) depends on (a, b) only through the coordinates with
        # a_i = b_i = 1, so one embedding per subset covers them all.
        outputs = set()
        for cut in itertools.product((0, 1), repeat=pairs):
            instance = disjointness_embedding(cut, cut)
            batched = _assert_batch_matches_scalar(
                compile_oracle(instance),
                BalancedTreeDistanceSolver(),
                list(instance.graph.nodes()),
            )
            root = instance.meta["root"]
            outputs.add(dict((v, out) for v, out, _ in batched)[root][0])
        assert outputs == {BALANCED, UNBALANCED}

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        backbone=st.integers(min_value=2, max_value=5),
        bt_depth=st.integers(min_value=1, max_value=4),
        hybrid_backbone=st.integers(min_value=2, max_value=6),
        compatible=st.booleans(),
        fraction=st.sampled_from([0.0, 0.05, 0.2]),
        chunk=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_hybrid_and_hh(
        self, seed, backbone, bt_depth, hybrid_backbone, compatible,
        fraction, chunk,
    ):
        rng = random.Random(seed)
        hybrid = hybrid_thc_instance(
            2, backbone, bt_depth, rng=rng, compatible=compatible
        )
        hh = hh_thc_instance(
            2, 3, backbone, hybrid_backbone, bt_depth, rng=rng
        )
        for instance, algorithm in (
            (hybrid, HybridDistanceSolver(2)),
            (hh, HHDistanceSolver(2, 3)),
        ):
            if fraction:
                instance = corrupt_instance(instance, fraction, rng=rng)
            nodes = list(instance.graph.nodes())
            if chunk:
                nodes = rng.sample(nodes, len(nodes) // 2)
            _assert_batch_matches_scalar(
                compile_oracle(instance), algorithm, nodes
            )

    def test_leaf_search_stops_at_its_horizon(self):
        # Advertised n = 4 leaves ⌈log₂ 4⌉ + 1 = 3 layers: a node more
        # than three levels above the depth-7 leaves echoes its color.
        tree = leaf_coloring_instance(7, rng=random.Random(7))
        instance = _edited(tree, [], advertised=4)
        batched = _assert_batch_matches_scalar(
            compile_oracle(instance),
            LeafColoringDistanceSolver(),
            list(instance.graph.nodes()),
        )
        deepest = max(p.distance for _, _, p in batched)
        assert deepest == 4  # the last layer's children, and their rows

    def test_horizon_fallback_runs_scalar(self, monkeypatch):
        # Advertised n = 4 leaves ⌈log₂ 4⌉ + 3 = 5 layers: a start more
        # than four levels above the depth-7 leaves sees no leaf layer.
        tree = balanced_tree_instance(7)
        instance = Instance(
            graph=tree.graph, labeling=tree.labeling, n=4, meta=tree.meta
        )
        oracle = compile_oracle(instance)
        nodes = list(instance.graph.nodes())
        fallbacks = []
        scalar = batched_module.execute_at

        def spy(oracle, algorithm, node, **kwargs):
            fallbacks.append(node)
            return scalar(oracle, algorithm, node, **kwargs)

        monkeypatch.setattr(batched_module, "execute_at", spy)
        _assert_batch_matches_scalar(
            oracle, BalancedTreeDistanceSolver(), nodes
        )
        # The root and the nodes one and two levels below it.
        assert len(fallbacks) == 7

    @pytest.mark.parametrize(
        "param", _cell("hh-thc(2,3)/distance", "hh-thc(2,3)").family.quick,
        ids=repr,
    )
    def test_hh_instances_hold_both_populations(self, param):
        cell = _cell("hh-thc(2,3)/distance", "hh-thc(2,3)")
        instance = cell.family.instance(param)
        bits = {instance.label(v).bit for v in instance.graph.nodes()}
        assert bits == {0, 1}
        _assert_batch_matches_scalar(
            compile_oracle(instance),
            HHDistanceSolver(2, 3),
            list(instance.graph.nodes()),
        )

    def test_exempt_starts_read_nothing(self):
        cell = _cell("hybrid-thc(2)/distance", "hybrid-thc(2)")
        instance = cell.family.instance((3, 3))
        batched = _assert_batch_matches_scalar(
            compile_oracle(instance),
            HybridDistanceSolver(2),
            list(instance.graph.nodes()),
        )
        exempt = [p for _, out, p in batched if out == EXEMPT]
        assert exempt
        assert all(p == CostProfile(1, 0, 0, 0) for p in exempt)


class TestFallbacks:
    def _instances(self):
        return {
            LeafColoringDistanceSolver: random_tree_instance(
                50, rng=random.Random(4), with_cycle=True, cycle_length=4
            ),
            BalancedTreeDistanceSolver: balanced_tree_instance(
                4, compatible=False, rng=random.Random(4), break_count=2
            ),
            HybridDistanceSolver: hybrid_thc_instance(
                2, 3, 2, rng=random.Random(4)
            ),
            HHDistanceSolver: hh_thc_instance(
                2, 3, 3, 2, 2, rng=random.Random(4)
            ),
        }

    @staticmethod
    def _make(cls):
        return cls(*ARGS.get(cls, ()))

    @pytest.mark.parametrize("cls", ALGORITHMS, ids=lambda c: c.__name__)
    def test_reference_oracle_runs_scalar(self, cls, monkeypatch):
        instance = self._instances()[cls]
        nodes = list(instance.graph.nodes())
        oracle = StaticOracle(instance)
        assert self._make(cls).run_node_batch(oracle, nodes) is None
        runs = _count_calls(monkeypatch, cls, "run")
        # The incremental engine offers the batch; it declines.
        triples = _execute_nodes(oracle, self._make(cls), nodes, 0, None, None)
        assert runs[0] == len(nodes)
        compiled = run_algorithm(instance, self._make(cls))
        assert triples == [
            (v, compiled.outputs[v], compiled.profiles[v]) for v in nodes
        ]

    @pytest.mark.parametrize(
        "cls, family, param",
        [
            (LeafColoringDistanceSolver, "leaf-coloring-hard", 5),
            (BalancedTreeDistanceSolver, "balanced-tree", 5),
        ],
        ids=["leaf-coloring", "balanced-tree"],
    )
    def test_implicit_oracle_runs_scalar(
        self, cls, family, param, monkeypatch
    ):
        spec = InstanceSpec(family, param)
        nodes = [1, 2, 3, 17]
        implicit_oracle = as_oracle(spec, mode="implicit")
        assert cls().run_node_batch(implicit_oracle, nodes) is None
        runs = _count_calls(monkeypatch, cls, "run")
        implicit = run_algorithm(spec, cls(), nodes=nodes)
        assert runs[0] == len(nodes)
        materialized = run_algorithm(
            spec.materialize(), cls(), nodes=nodes,
            backend=SerialBackend(compiled=False),
        )
        assert implicit == materialized

    def test_adversarial_oracles_see_live_queries(self):
        lazy = AdversarialTreeOracle(64)
        solver = LeafColoringDistanceSolver()
        assert solver.run_node_batch(lazy, [lazy.ROOT]) is None
        _execute_nodes(lazy, solver, [lazy.ROOT], 0, None, None)
        assert lazy.graph.num_nodes > 1  # the tree grew under the probe

        instance = disjointness_embedding([1, 0], [1, 1])
        referee = TwoPartyReferee(instance)
        root = instance.meta["root"]
        solver = BalancedTreeDistanceSolver()
        assert solver.run_node_batch(referee, [root]) is None
        ((_, output, profile),) = _execute_nodes(
            referee, solver, [root], 0, None, None
        )
        assert referee.transcript.queries == profile.queries > 0
        assert (output, profile) == execute_at(
            compile_oracle(instance), solver, root
        )

    @pytest.mark.parametrize("cls", ALGORITHMS, ids=lambda c: c.__name__)
    def test_subclass_runs_scalar(self, cls, monkeypatch):
        class Echo(cls):
            def run(self, view):
                super().run(view)
                return view.start_info.label.color

        instance = self._instances()[cls]
        nodes = list(instance.graph.nodes())
        echo = Echo(*ARGS.get(cls, ()))
        assert echo.run_node_batch(compile_oracle(instance), nodes) is None
        runs = _count_calls(monkeypatch, Echo, "run")
        result = run_algorithm(instance, echo)
        assert runs[0] == instance.n
        assert result.outputs == {
            v: instance.label(v).color for v in instance.graph.nodes()
        }

    @pytest.mark.parametrize("cls", ALGORITHMS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize(
        "budget", [{"max_volume": 6}, {"max_queries": 6}, {"max_volume": 1000}]
    )
    def test_budgets_run_scalar(self, cls, budget, monkeypatch):
        instance = self._instances()[cls]
        offered = _count_calls(monkeypatch, cls, "run_node_batch")
        runs = _count_calls(monkeypatch, cls, "run")
        compiled = run_algorithm(instance, self._make(cls), **budget)
        assert offered[0] == 0
        assert runs[0] == instance.n
        reference = run_algorithm(
            instance, self._make(cls),
            backend=SerialBackend(compiled=False), **budget,
        )
        assert compiled == reference


class TestScalarExecutions:
    @pytest.mark.parametrize(
        "name, family, param",
        [
            ("leaf-coloring/distance", "random-tree-cyclic", 48),
            ("leaf-coloring/distance", "leaf-coloring", 6),
            ("balanced-tree/distance", "balanced-tree", 5),
            ("hybrid-thc(2)/distance", "hybrid-thc(2)", (3, 3)),
        ],
    )
    def test_compiled_whole_run_executes_nothing_scalar(
        self, name, family, param, monkeypatch
    ):
        cell = _cell(name, family)
        instance = cell.family.instance(param)
        runs = _count_calls(monkeypatch, cell.algorithm.cls, "run")
        # Hybrid's batch would fall back through its BalancedTree solver.
        balanced = _count_calls(monkeypatch, BalancedTreeDistanceSolver, "run")
        compiled = run_algorithm(instance, cell.algorithm.make())
        assert runs[0] == balanced[0] == 0
        reference = run_algorithm(
            instance, cell.algorithm.make(),
            backend=SerialBackend(compiled=False),
        )
        assert runs[0] == instance.n
        assert compiled == reference

    def test_hh_executes_no_start_scalar(self, monkeypatch):
        # Bit-1 starts take the Hybrid batch; bit-0 (RecursiveHTHC)
        # starts replay their recursion over the same table.
        cell = _cell("hh-thc(2,3)/distance", "hh-thc(2,3)")
        instance = cell.family.instance((4, 4, 2))
        bit_zero = [
            v for v in instance.graph.nodes() if instance.label(v).bit == 0
        ]
        assert 0 < len(bit_zero) < instance.n
        started = []
        run = HHDistanceSolver.run

        def counted(self, view):
            started.append(view.start)
            return run(self, view)

        monkeypatch.setattr(HHDistanceSolver, "run", counted)
        compiled = run_algorithm(instance, cell.algorithm.make())
        assert started == []
        reference = run_algorithm(
            instance, cell.algorithm.make(),
            backend=SerialBackend(compiled=False),
        )
        assert started == list(instance.graph.nodes())
        assert compiled == reference
