"""The random-walk batch must equal the scalar engine per start node.

``RWtoLeaf`` and ``SecretRWtoLeaf`` walk every start node over the
compiled oracle's tree table (``repro.model.batched.TreeTable``), reading
the run's own tape store, and build each start's profile from the table
rows the walk evaluated (DESIGN.md §9.3).  These tests pin the outputs,
every ``CostProfile`` field, the node order and the tape store's
generated bits against per-node ``execute_at``; they check that every
input the batch does not cover falls back to the scalar loop, and count
the scalar executions of a run.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.leaf_coloring_algs import RWtoLeaf, SecretRWtoLeaf
from repro.exec.backends import SerialBackend
from repro.graphs.generators import (
    leaf_coloring_instance,
    random_tree_instance,
)
from repro.graphs.labelings import COLORS
from repro.model.implicit import InstanceSpec, as_oracle
from repro.model.oracle import StaticOracle, compile_oracle
from repro.model.probe import execute_at
from repro.model.randomness import TapeStore
from repro.model.runner import run_algorithm
from repro.registry import FAMILIES, iter_compatible, load_components

load_components()

ALGORITHMS = (RWtoLeaf, SecretRWtoLeaf)
POINTS = sorted(
    {
        (cell.algorithm.name, cell.family.name, param)
        for cell in iter_compatible()
        if cell.algorithm.cls in ALGORITHMS
        for param in cell.family.quick + cell.family.full
    },
    key=repr,
)


def _scalar(oracle, algorithm, nodes, seed):
    tapes = TapeStore(seed)
    triples = [
        (node, *execute_at(oracle, algorithm, node, tape_store=tapes))
        for node in nodes
    ]
    return triples, tapes.total_bits_generated()


def _assert_batch_matches_scalar(oracle, algorithm, nodes, seed):
    tapes = TapeStore(seed)
    batched = algorithm.run_node_batch(oracle, nodes, tapes)
    assert batched is not None
    triples, bits = _scalar(oracle, algorithm, nodes, seed)
    assert [node for node, _, _ in batched] == list(nodes)
    assert batched == triples
    assert tapes.total_bits_generated() == bits
    # Every start node owns its profile: a CostProfile is mutable.
    assert len({id(profile) for _, _, profile in batched}) == len(batched)


def _chunks(nodes, count):
    size = -(-len(nodes) // count)
    return [nodes[i:i + size] for i in range(0, len(nodes), size)]


def _count_calls(monkeypatch, cls, attr):
    calls = [0]
    original = getattr(cls, attr)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, attr, counted)
    return calls


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("name, family, param", POINTS)
    def test_registry_points(self, name, family, param):
        cell = next(
            c for c in iter_compatible()
            if c.algorithm.name == name and c.family.name == family
        )
        instance = cell.family.instance(param)
        oracle = compile_oracle(instance)
        nodes = list(instance.graph.nodes())
        for seed in range(3):
            _assert_batch_matches_scalar(
                oracle, cell.algorithm.make(), nodes, seed
            )
        # Pool chunks: each chunk is a partial run with its own tapes.
        random.Random(repr(param)).shuffle(nodes)
        for chunk in _chunks(nodes, 3):
            _assert_batch_matches_scalar(
                oracle, cell.algorithm.make(), chunk, 7
            )

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        size=st.integers(min_value=2, max_value=60),
        cycle=st.sampled_from([0, 2, 3, 5, 12]),
        edits=st.lists(
            st.tuples(
                st.sampled_from(
                    ["parent", "left", "right", "swap", "dangle", "color"]
                ),
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=8,
        ),
        make=st.sampled_from(ALGORITHMS),
        cap_factor=st.sampled_from([0, 1, 32]),
        tape_seed=st.integers(min_value=0, max_value=2**16),
        chunk=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_drawn_labelings(
        self, seed, size, cycle, edits, make, cap_factor, tape_seed, chunk
    ):
        instance = _drawn_instance(seed, size, cycle, edits)
        nodes = list(instance.graph.nodes())
        if chunk:
            nodes = random.Random(seed).sample(nodes, len(nodes) // 2)
        _assert_batch_matches_scalar(
            compile_oracle(instance), make(cap_factor), nodes, tape_seed
        )

    def test_cycle_starts_take_the_flip(self):
        # On a G_T cycle a walk that comes back to its start flips its
        # bit there; that walk reads more bits than the cycle has nodes.
        instance = random_tree_instance(
            40, rng=random.Random(3), with_cycle=True, cycle_length=3
        )
        oracle = compile_oracle(instance)
        nodes = list(instance.graph.nodes())
        flipped = 0
        for seed in range(8):
            _assert_batch_matches_scalar(oracle, RWtoLeaf(), nodes, seed)
            batched = RWtoLeaf().run_node_batch(
                oracle, nodes, TapeStore(seed)
            )
            flipped += sum(p.random_bits > 3 for _, _, p in batched)
        assert flipped > 0

    @pytest.mark.parametrize("make", ALGORITHMS, ids=lambda cls: cls.name)
    def test_cap_is_hit(self, make):
        # cap_factor=0 caps every walk at 8 steps, so a walk from the
        # root of a depth-10 tree stops at the cap, short of a leaf.
        instance = leaf_coloring_instance(10, rng=random.Random(10))
        oracle = compile_oracle(instance)
        root = instance.meta["root"]
        batched = make(0).run_node_batch(oracle, [root], TapeStore(0))
        assert batched[0][2].random_bits == 8
        for seed in range(3):
            _assert_batch_matches_scalar(oracle, make(0), [root], seed)


def _drawn_instance(seed, size, cycle, edits):
    """A random binary pseudo-tree (with a G_T cycle of ``cycle`` nodes
    when ``cycle``), then label edits: a parent or child port moved to
    another port (0 is ⊥; a port past the node's last resolves to
    nothing), children swapped, a child port moved to a fresh dangling
    port, a node recolored."""
    instance = random_tree_instance(
        size,
        rng=random.Random(seed),
        with_cycle=bool(cycle),
        cycle_length=cycle,
        max_degree=4,
    )
    graph = instance.graph
    nodes = list(graph.nodes())
    for kind, pick, value in edits:
        node = nodes[pick % len(nodes)]
        label = instance.labeling[node]
        port = value or None
        if kind == "parent":
            label.parent = port
        elif kind == "left":
            label.left_child = port
        elif kind == "right":
            label.right_child = port
        elif kind == "swap":
            label.left_child, label.right_child = (
                label.right_child,
                label.left_child,
            )
        elif kind == "dangle":
            fresh = graph.num_ports(node) + 1
            if fresh <= graph.max_degree:
                graph.reserve_port(node, fresh)
                if value % 2:
                    label.left_child = fresh
                else:
                    label.right_child = fresh
        else:
            label.color = COLORS[value % 2]
    return instance


class TestFallbacks:
    def _instance(self):
        return random_tree_instance(
            50, rng=random.Random(4), with_cycle=True, cycle_length=4
        )

    @pytest.mark.parametrize("make", ALGORITHMS, ids=lambda cls: cls.name)
    def test_reference_and_implicit_oracles(self, make):
        instance = self._instance()
        nodes = list(instance.graph.nodes())
        assert (
            make().run_node_batch(StaticOracle(instance), nodes, TapeStore(0))
            is None
        )
        spec = InstanceSpec("leaf-coloring-hard", 5)
        implicit = as_oracle(spec, mode="implicit")
        assert make().run_node_batch(implicit, [1, 2, 3], TapeStore(0)) is None

    @pytest.mark.parametrize("make", ALGORITHMS, ids=lambda cls: cls.name)
    def test_no_tape_store(self, make):
        instance = self._instance()
        oracle = compile_oracle(instance)
        assert make().run_node_batch(oracle, [1, 2]) is None

    def test_subclass_overriding_bit(self):
        class AlwaysLeft(RWtoLeaf):
            def _bit(self, view, node, step):
                view.random_bit(node, 0)
                return 0

        instance = self._instance()
        oracle = compile_oracle(instance)
        nodes = list(instance.graph.nodes())
        assert AlwaysLeft().run_node_batch(oracle, nodes, TapeStore(0)) is None
        compiled = run_algorithm(instance, AlwaysLeft(), seed=2)
        reference = run_algorithm(
            instance, AlwaysLeft(), seed=2,
            backend=SerialBackend(compiled=False),
        )
        assert compiled == reference

    @pytest.mark.parametrize(
        "budget", [{"max_volume": 40}, {"max_queries": 40}, {"max_volume": 2}]
    )
    def test_budgets_run_scalar(self, budget, monkeypatch):
        instance = self._instance()
        offered = _count_calls(monkeypatch, RWtoLeaf, "run_node_batch")
        runs = _count_calls(monkeypatch, RWtoLeaf, "run")
        compiled = run_algorithm(instance, RWtoLeaf(), seed=1, **budget)
        assert offered[0] == 0
        assert runs[0] == instance.n
        reference = run_algorithm(
            instance, RWtoLeaf(), seed=1,
            backend=SerialBackend(compiled=False), **budget,
        )
        assert compiled == reference


class TestScalarExecutions:
    @pytest.mark.parametrize("make", ALGORITHMS, ids=lambda cls: cls.name)
    def test_compiled_whole_run_executes_no_scalar_walk(
        self, make, monkeypatch
    ):
        # SecretRWtoLeaf inherits run, so one counter sees both.
        instance = random_tree_instance(
            80, rng=random.Random(9), with_cycle=True, cycle_length=5
        )
        runs = _count_calls(monkeypatch, RWtoLeaf, "run")
        compiled = run_algorithm(instance, make(), seed=3)
        assert runs[0] == 0
        reference = run_algorithm(
            instance, make(), seed=3, backend=SerialBackend(compiled=False)
        )
        assert runs[0] == instance.n
        assert compiled == reference


def _run_digest(result):
    rows = [
        (
            v,
            result.outputs[v],
            result.profiles[v].volume,
            result.profiles[v].distance,
            result.profiles[v].queries,
            result.profiles[v].random_bits,
        )
        for v in sorted(result.outputs)
    ]
    return hashlib.blake2b(repr(rows).encode(), digest_size=8).hexdigest()


# ``_run_digest`` of reference-engine runs, seeds 0-2, recorded while
# SecretRWtoLeaf still counted its steps on the algorithm object.
SECRET_DIGESTS = {
    ("random-tree-cyclic", 48): [
        "d2447cd58d237505", "e40fc4b01e2dcd47", "fc487318d4bf1f14",
    ],
    ("random-tree", 70): [
        "8fec5922d9d7a10b", "347ca169aa243805", "e16b2f656ce8436b",
    ],
}


class TestSecretWalkIsStateless:
    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize("family, param", sorted(SECRET_DIGESTS))
    def test_runs_leave_the_algorithm_unchanged(
        self, family, param, compiled
    ):
        instance = FAMILIES.get(family).instance(param)
        algorithm = SecretRWtoLeaf()
        before = dict(vars(algorithm))
        backend = SerialBackend(compiled=compiled)
        for seed, expected in enumerate(SECRET_DIGESTS[(family, param)]):
            result = run_algorithm(
                instance, algorithm, seed=seed, backend=backend
            )
            assert _run_digest(result) == expected
            assert vars(algorithm) == before
