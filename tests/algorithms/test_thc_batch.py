"""The THC family's batches must equal the scalar engine per start node.

``hierarchical-thc(2)/recursive`` and ``/waypoint``,
``hybrid-thc(2)/recursive`` and ``/waypoint``, ``hh-thc(2,3)/waypoint``
and the bit-0 starts of ``hh-thc(2,3)/distance`` replay each start's own
Algorithm 2 recursion over the compiled oracle's table rows, with every
Hybrid level-1 gather charged from one record per component
(DESIGN.md §9.3).  These tests pin the outputs, every ``CostProfile``
field, the node order and the tape store (its bits and the order they
were read in) against per-node ``execute_at``; they check that every
input the batches do not cover reaches the scalar loop, and count the
scalar executions and pool submissions of a run.
"""

import itertools
import random
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.exec.backends as backends_module
from repro.adversary.hierarchical import AdversarialTHCOracle
from repro.algorithms.balanced_tree_algs import BalancedTreeDistanceSolver
from repro.algorithms.hh_algs import (
    HHDistanceSolver,
    HHWaypointSolver,
    _HHDispatch,
)
from repro.algorithms.hierarchical_algs import (
    RecursiveHTHC,
    THCSolverBase,
    WaypointHTHC,
)
from repro.algorithms.hybrid_algs import (
    HybridRecursiveSolver,
    HybridWaypointSolver,
)
from repro.exec.backends import (
    ProcessPoolBackend,
    SerialBackend,
    _execute_nodes,
)
from repro.graphs.builders import (
    PORT_LEFT_CHILD,
    PORT_PARENT,
    PORT_RIGHT_CHILD,
)
from repro.graphs.generators import (
    corrupt_instance,
    hierarchical_thc_instance,
    hybrid_thc_instance,
)
from repro.graphs.labelings import (
    BLUE,
    DECLINE,
    EXEMPT,
    RED,
    Instance,
    Labeling,
    NodeLabel,
)
from repro.graphs.port_graph import PortGraph
from repro.graphs.tree_structure import (
    InstanceTopology,
    level_of,
    right_child_node,
)
from repro.model.implicit import InstanceSpec, as_oracle
from repro.model.oracle import StaticOracle, compile_oracle
from repro.model.probe import execute_at
from repro.model.randomness import TapeStore
from repro.model.runner import run_algorithm
from repro.registry import iter_compatible, load_components

load_components()

ALGORITHMS = (
    RecursiveHTHC,
    WaypointHTHC,
    HybridRecursiveSolver,
    HybridWaypointSolver,
    HHWaypointSolver,
    HHDistanceSolver,
)
#: Constructor arguments: the registry's defaults (k = 2, ℓ = 3).
ARGS = {HHWaypointSolver: (2, 3), HHDistanceSolver: (2, 3)}
CELLS = [c for c in iter_compatible() if c.algorithm.cls in ALGORITHMS]
#: Whole runs and pool chunks up to this n; larger points up to
#: ``SAMPLED_N`` check a sample of their starts.
WHOLE_N = 400
SAMPLED_N = 5000


def _points(whole):
    points = []
    for cell in CELLS:
        for param in dict.fromkeys(cell.family.quick + cell.family.full):
            n = cell.family.instance(param).n
            if (n <= WHOLE_N) == whole and n <= SAMPLED_N:
                points.append(
                    pytest.param(
                        cell, param, id=f"{cell.algorithm.name}:{param!r}"
                    )
                )
    return points


class _LoggedTapes(TapeStore):
    """A tape store that logs the node of every bit read, in order."""

    def __init__(self, seed):
        super().__init__(seed)
        self.reads = []

    def tape_for(self, node_id):
        self.reads.append(node_id)
        return super().tape_for(node_id)


def _tape_state(tapes):
    return [(key, t.bits_generated) for key, t in tapes._tapes.items()]


def _assert_batch_matches_scalar(oracle, make, nodes, seed=0):
    """Batch == per-node ``execute_at``; returns the batched triples."""
    algorithm = make()
    randomized = algorithm.is_randomized
    tapes = _LoggedTapes(seed) if randomized else None
    batched = algorithm.run_node_batch(oracle, nodes, tapes)
    assert batched is not None
    scalar_tapes = _LoggedTapes(seed) if randomized else None
    scalar = [
        (node, *execute_at(oracle, make(), node, tape_store=scalar_tapes))
        for node in nodes
    ]
    assert [node for node, _, _ in batched] == list(nodes)
    assert batched == scalar
    # Every start node owns its profile: a CostProfile is mutable.
    assert len({id(profile) for _, _, profile in batched}) == len(batched)
    if randomized:
        assert tapes.reads == scalar_tapes.reads
        assert _tape_state(tapes) == _tape_state(scalar_tapes)
    return batched


def _count_calls(monkeypatch, cls, attr):
    calls = [0]
    original = getattr(cls, attr)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, attr, counted)
    return calls


def _make(cls, *args):
    return lambda: cls(*(args or ARGS.get(cls, (2,))))


def _hh_union(part0, part1):
    """An HH-THC input from a bit-0 and a bit-1 part, as
    ``hh_thc_instance`` joins its parts (Definition 6.4)."""
    graph = PortGraph(max_degree=5)
    labeling = Labeling()
    offset = max(part0.graph.nodes())
    for bit, part, shift in ((0, part0, 0), (1, part1, offset)):
        for node in part.graph.nodes():
            graph.add_node(node + shift)
            label = part.label(node).copy()
            label.bit = bit
            labeling[node + shift] = label
        for edge in part.graph.edges():
            graph.add_edge(
                edge.u + shift, edge.u_port, edge.v + shift, edge.v_port
            )
    return Instance(graph=graph, labeling=labeling, name="hh-union")


def _hung_root_relabeled(instance, level):
    """``instance`` with its root's hung component root relabeled."""
    hung = right_child_node(InstanceTopology(instance), instance.meta["root"])
    labeling = instance.labeling.copy()
    labeling[hung].level = level
    return Instance(
        graph=instance.graph, labeling=labeling, meta=instance.meta
    )


def _leaf_hung_level_three(length=20):
    """A hierarchical-thc(3) input whose level-3 root ``s`` hangs the
    *leaf* ``v`` of a deep level-2 backbone, on a port of ``v`` other
    than its parent port.  ``v``'s hung level-1 component is deep, so it
    declines, and Algorithm 2's level-2 sub-solve at ``v`` ends in the
    ``u = v`` branch (``v`` terminates its own run) inside ``s``'s run.
    ``s`` and ``v`` have different colors."""
    graph = PortGraph(max_degree=5)
    labeling = Labeling()
    ids = itertools.count(1)
    rng = random.Random(length)

    def node(color=None):
        v = next(ids)
        graph.add_node(v)
        labeling[v] = NodeLabel(color=color or rng.choice((RED, BLUE)))
        return v

    def backbone(count):
        nodes = [node() for _ in range(count)]
        for a, b in zip(nodes, nodes[1:]):
            graph.add_edge(a, PORT_LEFT_CHILD, b, PORT_PARENT)
            labeling[a].left_child = PORT_LEFT_CHILD
            labeling[b].parent = PORT_PARENT
        return nodes

    def hang(a, b, port=PORT_PARENT):
        graph.add_edge(a, PORT_RIGHT_CHILD, b, port)
        labeling[a].right_child = PORT_RIGHT_CHILD
        if port == PORT_PARENT:
            labeling[b].parent = PORT_PARENT

    deep_level_one = backbone(length)
    level_two = backbone(length)
    for b in level_two[:-1]:
        hang(b, node())
    leaf = level_two[-1]
    hang(leaf, deep_level_one[0])
    level_three = backbone(length)
    start = level_three[0]
    for a in level_three[1:]:
        x = node()
        hang(x, node())
        hang(a, x)
    labeling[start].color = RED
    labeling[leaf].color = BLUE
    hang(start, leaf, port=4)
    return Instance(
        graph=graph,
        labeling=labeling,
        name="leaf-hung-level-three",
        meta={"start": start, "leaf": leaf},
    )


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("cell, param", _points(whole=True))
    def test_registry_points(self, cell, param):
        instance = cell.family.instance(param)
        oracle = compile_oracle(instance)
        nodes = list(instance.graph.nodes())
        seed = cell.algorithm.seed
        _assert_batch_matches_scalar(oracle, cell.algorithm.make, nodes, seed)
        # The chunks a two-worker pool cuts, in a shuffled node order:
        # each is a partial run over the same table and records.
        random.Random(repr(param)).shuffle(nodes)
        for chunk in ProcessPoolBackend(workers=2)._chunk(nodes):
            _assert_batch_matches_scalar(
                oracle, cell.algorithm.make, chunk, seed
            )

    @pytest.mark.parametrize("cell, param", _points(whole=False))
    def test_sampled_starts_of_larger_points(self, cell, param):
        instance = cell.family.instance(param)
        nodes = random.Random(repr(param)).sample(
            list(instance.graph.nodes()), 24
        )
        _assert_batch_matches_scalar(
            compile_oracle(instance), cell.algorithm.make, nodes,
            cell.algorithm.seed,
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        k=st.sampled_from([2, 3]),
        lower=st.lists(
            st.integers(min_value=1, max_value=4), min_size=2, max_size=2
        ),
        top=st.integers(min_value=12, max_value=48),
        fraction=st.sampled_from([0.0, 0.0, 0.05, 0.1, 0.3]),
        factor=st.sampled_from([1.0, 0.3]),
        chunk=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_drawn_hierarchical_inputs(
        self, seed, k, lower, top, fraction, factor, chunk
    ):
        rng = random.Random(seed)
        # Short lower levels under a long top backbone: mostly deep, so
        # the waypoint solver reads bits.
        instance = hierarchical_thc_instance(
            k, 2, rng=rng, lengths=lower[: k - 1] + [top]
        )
        if fraction:
            instance = corrupt_instance(instance, fraction, rng=rng)
        nodes = _starts(instance, rng, chunk)
        oracle = compile_oracle(instance)
        _assert_batch_matches_scalar(oracle, _make(RecursiveHTHC, k), nodes)
        _assert_batch_matches_scalar(
            oracle, lambda: WaypointHTHC(k, factor=factor), nodes, seed
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        k=st.sampled_from([2, 2, 3]),
        backbone=st.integers(min_value=17, max_value=48),
        bt_depth=st.sampled_from([1, 1, 2]),
        compatible=st.booleans(),
        fraction=st.sampled_from([0.0, 0.0, 0.05, 0.2]),
        relabel=st.sampled_from([None, None, 0, 2, 3]),
        factor=st.sampled_from([1.0, 0.3]),
        chunk=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_drawn_hybrid_inputs(
        self, seed, k, backbone, bt_depth, compatible, fraction, relabel,
        factor, chunk,
    ):
        rng = random.Random(seed)
        # A long top backbone over short lower ones: deep, so the
        # waypoint solver reads bits.
        lengths = [2] * (k - 2) + [backbone]
        instance = hybrid_thc_instance(
            k, 2, bt_depth, rng=rng, compatible=compatible, lengths=lengths
        )
        if relabel is not None:
            instance = _hung_root_relabeled(instance, relabel)
        if fraction:
            instance = corrupt_instance(instance, fraction, rng=rng)
        nodes = _starts(instance, rng, chunk)
        oracle = compile_oracle(instance)
        _assert_batch_matches_scalar(
            oracle, _make(HybridRecursiveSolver, k), nodes
        )
        _assert_batch_matches_scalar(
            oracle, lambda: HybridWaypointSolver(k, factor=factor), nodes,
            seed,
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        top=st.integers(min_value=12, max_value=40),
        hybrid_top=st.integers(min_value=12, max_value=40),
        fraction=st.sampled_from([0.0, 0.0, 0.05, 0.2]),
        factor=st.sampled_from([1.0, 0.3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_drawn_hh_inputs(self, seed, top, hybrid_top, fraction, factor):
        rng = random.Random(seed)
        instance = _hh_union(
            hierarchical_thc_instance(3, 2, rng=rng, lengths=[1, 2, top]),
            hybrid_thc_instance(2, 2, 1, rng=rng, lengths=[hybrid_top]),
        )
        if fraction:
            instance = corrupt_instance(instance, fraction, rng=rng)
        # A shuffled order interleaves the two populations.
        nodes = list(instance.graph.nodes())
        rng.shuffle(nodes)
        oracle = compile_oracle(instance)
        _assert_batch_matches_scalar(oracle, _make(HHDistanceSolver), nodes)
        _assert_batch_matches_scalar(
            oracle, lambda: HHWaypointSolver(2, 3, factor=factor), nodes,
            seed,
        )

    def test_both_hh_populations_read_bits_in_node_order(self):
        rng = random.Random(3)
        instance = _hh_union(
            hierarchical_thc_instance(3, 2, rng=rng, lengths=[1, 2, 40]),
            hybrid_thc_instance(2, 2, 1, rng=rng, lengths=[40]),
        )
        nodes = list(instance.graph.nodes())
        rng.shuffle(nodes)
        batched = _assert_batch_matches_scalar(
            compile_oracle(instance), _make(HHWaypointSolver), nodes, 2
        )
        read = {
            instance.label(v).bit
            for v, _, profile in batched
            if profile.random_bits
        }
        assert read == {0, 1}

    def test_components_over_the_budget(self):
        # Budget max(32, ⌈8·258^{1/3}⌉) = 51 < 63 nodes per component:
        # every level-1 start declines after a gather of its own.
        instance = hybrid_thc_instance(3, 2, 5, rng=random.Random(2))
        nodes = list(instance.graph.nodes())
        random.Random(2).shuffle(nodes)
        oracle = compile_oracle(instance)
        for make in (_make(HybridRecursiveSolver, 3),
                     _make(HybridWaypointSolver, 3)):
            batched = _assert_batch_matches_scalar(oracle, make, nodes, 5)
            declined = [
                p for v, out, p in batched
                if instance.label(v).level == 1 and out == DECLINE
            ]
            assert len(declined) == 4 * 63
            assert len({(p.queries, p.distance) for p in declined}) > 1

    def test_starts_that_read_bits(self):
        instance = hierarchical_thc_instance(
            2, 3, rng=random.Random(1), lengths=[3, 40]
        )
        # At factor 0.3 some nodes are not way-points, so a start's
        # pointer walks pass them and read the 24 bits of each.
        batched = _assert_batch_matches_scalar(
            compile_oracle(instance), lambda: WaypointHTHC(2, factor=0.3),
            list(instance.graph.nodes()), 3,
        )
        assert max(p.random_bits for _, _, p in batched) > 24


class TestWaypointDecidedOnce:
    @pytest.mark.parametrize("factor, bits", [(0.3, 2472), (1.0, 960)])
    def test_each_node_is_decided_once_per_execution(self, factor, bits):
        # Algorithm 2 may test one node three times (line 7 and both
        # pointer walks); the execution reads its 24 bits once.
        instance = hierarchical_thc_instance(
            2, 3, rng=random.Random(1), lengths=[3, 40]
        )
        oracle = compile_oracle(instance)
        nodes = list(instance.graph.nodes())
        make = lambda: WaypointHTHC(2, factor=factor)
        batched = _assert_batch_matches_scalar(oracle, make, nodes, 3)
        assert sum(p.random_bits for _, _, p in batched) == bits
        reference = run_algorithm(
            instance, make(), seed=3, backend=SerialBackend(compiled=False)
        )
        assert sum(p.random_bits for p in reference.profiles.values()) == bits
        tapes = _LoggedTapes(3)
        for v in nodes:
            mark = len(tapes.reads)
            make().run_node_batch(oracle, [v], tapes)
            reads = tapes.reads[mark:]
            assert len(reads) == 24 * len(set(reads))


class TestLevelTwoSubSolve:
    def test_memoized_sub_solves_equal_the_nodes_own_runs(self):
        instance = _leaf_hung_level_three()
        oracle = compile_oracle(instance)
        topo = InstanceTopology(instance)
        solved = set()
        for start in instance.graph.nodes():
            if level_of(topo, start, cap=3) != 3:
                continue
            solver = RecursiveHTHC(3)
            execute_at(oracle, solver, start)
            for v, value in solver._memo.items():
                if v != start and level_of(topo, v, cap=3) == 2:
                    solved.add(v)
                    assert value == execute_at(oracle, RecursiveHTHC(3), v)[0]
        # The leaf's own run ends in the u = v branch with its own color;
        # the level-3 root only tests that answer for {R, B, X}.
        leaf = instance.meta["leaf"]
        assert leaf in solved
        assert execute_at(oracle, RecursiveHTHC(3), leaf)[0] == BLUE
        root = instance.meta["start"]
        assert execute_at(oracle, RecursiveHTHC(3), root)[0] == EXEMPT
        _assert_batch_matches_scalar(
            oracle, _make(RecursiveHTHC, 3), list(instance.graph.nodes())
        )


def _starts(instance, rng, chunk):
    """The start nodes of a drawn run, shuffled: every node, or a chunk
    of at most 80 of them."""
    nodes = list(instance.graph.nodes())
    rng.shuffle(nodes)
    return nodes[:80] if chunk else nodes


class TestFallbacks:
    def _instance(self, cls):
        if cls in (HHWaypointSolver, HHDistanceSolver):
            rng = random.Random(4)
            return _hh_union(
                hierarchical_thc_instance(3, 2, rng=rng, lengths=[1, 2, 12]),
                hybrid_thc_instance(2, 2, 1, rng=rng, lengths=[12]),
            )
        if cls in (HybridRecursiveSolver, HybridWaypointSolver):
            return hybrid_thc_instance(2, 3, 2, rng=random.Random(4))
        return hierarchical_thc_instance(
            2, 3, rng=random.Random(4), lengths=[3, 12]
        )

    @pytest.mark.parametrize("cls", ALGORITHMS, ids=lambda c: c.__name__)
    def test_reference_oracle_runs_scalar(self, cls, monkeypatch):
        instance = self._instance(cls)
        make = _make(cls)
        nodes = list(instance.graph.nodes())
        oracle = StaticOracle(instance)
        tapes = TapeStore(0)
        assert make().run_node_batch(oracle, nodes, tapes) is None
        runs = _count_calls(monkeypatch, cls, "run")
        # The incremental engine offers the batch; it declines.
        triples = _execute_nodes(oracle, make(), nodes, 0, None, None)
        assert runs[0] == len(nodes)
        compiled = run_algorithm(instance, make())
        assert triples == [
            (v, compiled.outputs[v], compiled.profiles[v]) for v in nodes
        ]

    @pytest.mark.parametrize("cls", [RecursiveHTHC, WaypointHTHC])
    def test_implicit_oracle_runs_scalar(self, cls, monkeypatch):
        spec = InstanceSpec("hierarchical-thc-det(2)", 8)
        nodes = [1, 2, 3, 17]
        implicit_oracle = as_oracle(spec, mode="implicit")
        assert cls(2).run_node_batch(
            implicit_oracle, nodes, TapeStore(0)
        ) is None
        runs = _count_calls(monkeypatch, cls, "run")
        implicit = run_algorithm(spec, cls(2), nodes=nodes)
        assert runs[0] == len(nodes)
        materialized = run_algorithm(
            spec.materialize(), cls(2), nodes=nodes,
            backend=SerialBackend(compiled=False),
        )
        assert implicit == materialized

    def test_adversarial_oracle_sees_live_queries(self):
        oracle = AdversarialTHCOracle(k=2, n=1000)
        start = oracle.new_backbone_node(2, "B")
        solver = RecursiveHTHC(2)
        assert solver.run_node_batch(oracle, [start]) is None
        ((_, _, profile),) = _execute_nodes(
            oracle, solver, [start], 0, None, None
        )
        assert oracle.transcript.queries == profile.queries > 0

    def test_waypoint_without_a_tape_store_runs_scalar(self):
        instance = self._instance(WaypointHTHC)
        oracle = compile_oracle(instance)
        nodes = list(instance.graph.nodes())
        for make in (_make(WaypointHTHC), _make(HybridWaypointSolver),
                     _make(HHWaypointSolver)):
            assert make().run_node_batch(oracle, nodes) is None

    @pytest.mark.parametrize("cls", ALGORITHMS, ids=lambda c: c.__name__)
    def test_subclass_runs_scalar(self, cls, monkeypatch):
        class Echo(cls):
            def run(self, view):
                super().run(view)
                return view.start_info.label.color

        instance = self._instance(cls)
        echo = Echo(*ARGS.get(cls, (2,)))
        nodes = list(instance.graph.nodes())
        assert echo.run_node_batch(
            compile_oracle(instance), nodes, TapeStore(0)
        ) is None
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
        instance = self._instance(cls)
        offered = _count_calls(monkeypatch, cls, "run_node_batch")
        runs = _count_calls(monkeypatch, cls, "run")
        compiled = run_algorithm(instance, _make(cls)(), **budget)
        assert offered[0] == 0
        assert runs[0] == instance.n
        reference = run_algorithm(
            instance, _make(cls)(),
            backend=SerialBackend(compiled=False), **budget,
        )
        assert compiled == reference


@pytest.fixture
def submissions(monkeypatch):
    """Every worker function a process pool built in the test submits."""
    submitted = []

    class CountingExecutor(ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(
        backends_module, "ProcessPoolExecutor", CountingExecutor
    )
    return submitted


class TestWholeRuns:
    @pytest.mark.parametrize(
        "cell", CELLS, ids=lambda c: f"{c.algorithm.name}@{c.family.name}"
    )
    def test_compiled_whole_run_executes_nothing_scalar(
        self, cell, monkeypatch
    ):
        instance = cell.family.instance(cell.family.quick[-1])
        runs = [
            _count_calls(monkeypatch, cls, "run")
            for cls in (
                THCSolverBase, _HHDispatch, BalancedTreeDistanceSolver
            )
        ]
        seed = cell.algorithm.seed
        compiled = run_algorithm(instance, cell.algorithm.make(), seed=seed)
        assert [count[0] for count in runs] == [0, 0, 0]
        reference = run_algorithm(
            instance, cell.algorithm.make(), seed=seed,
            backend=SerialBackend(compiled=False),
        )
        assert runs[0][0] + runs[1][0] > 0
        assert compiled == reference

    def test_process_pool_runs_equal_serial(self, submissions):
        chunks = 0
        with ProcessPoolBackend(workers=2) as pool:
            for cell in CELLS:
                instance = cell.family.instance(cell.family.quick[-1])
                seed = cell.algorithm.seed
                pooled = run_algorithm(
                    instance, cell.algorithm.make(), seed=seed, backend=pool
                )
                chunks += len(pool._chunk(list(instance.graph.nodes())))
                serial = run_algorithm(
                    instance, cell.algorithm.make(), seed=seed
                )
                assert pooled == serial
                assert list(pooled.outputs) == list(serial.outputs)
        # Every chunk of every run reached a worker: the solvers pickle.
        assert chunks > len(CELLS)
        assert len(submissions) == chunks
