"""The implicit-oracle layer (DESIGN.md §10) and the `as_oracle` front door.

Differential core: for every family registered with ``implicit=True``
the generator must reproduce its materialized factory *bit for bit* —
port maps, labelings, NodeInfo tables, and resolve responses — at
every node of small instances, because the giant-n sweeps rest
entirely on that equivalence.  The rest pins the API-redesign spine:
``InstanceSpec`` pickling in O(1) bytes, the bounded LRU, the
``as_oracle`` dispatch matrix, the documented backend-spec grammar,
and the runner's refusal of a bare graph or a pre-built oracle.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.backends import (
    BACKEND_SPEC_GRAMMAR,
    BackendSpec,
    BatchBackend,
    ProcessPoolBackend,
    SerialBackend,
    get_backend,
    parse_backend_spec,
)
from repro.graphs.port_graph import PortGraphError
from repro.model.implicit import (
    MATERIALIZE_LIMIT,
    ImplicitFamilyFactory,
    ImplicitOracle,
    InstanceSpec,
    as_oracle,
    implicit_families,
    iter_node_ids,
)
from repro.model.oracle import CompiledOracle, StaticOracle
from repro.model.runner import run_algorithm, solve_and_check
from repro.registry import ALGORITHMS, FAMILIES, PROBLEMS, load_components

# Per-family grid parameters landing near n = 15 / 63 / 255 — small
# enough to materialize, large enough to cross every structural case
# (root, internal, leaf, chain boundaries, cycle wrap-around).
SMALL_PARAMS = {
    "leaf-coloring-hard": (3, 5, 7),
    "balanced-tree": (3, 5, 7),
    "cycle-uniform": (15, 63, 255),
    "hierarchical-thc-det(2)": (3, 7, 15),
}

# Parameters taking each family to n >= 10^6, the hypothesis-probe
# regime (well past anything the differential pass materializes).
GIANT_PARAMS = {
    "leaf-coloring-hard": 19,  # n = 2^20 - 1
    "balanced-tree": 19,  # n = 2^20 - 1
    "cycle-uniform": 1_000_000,
    "hierarchical-thc-det(2)": 1_000,  # n = 1,001,000
}

DIFFERENTIAL_CASES = [
    (family, param)
    for family in SMALL_PARAMS
    for param in SMALL_PARAMS[family]
]


@pytest.fixture(scope="module", autouse=True)
def _components():
    load_components()


def materialized_row(instance, node):
    graph = instance.graph
    return tuple(
        graph.neighbor_at(node, port)
        for port in range(1, graph.num_ports(node) + 1)
    )


class TestDifferentialEquivalence:
    """Implicit generator == materialized factory, node for node."""

    @pytest.mark.parametrize("family,param", DIFFERENTIAL_CASES)
    def test_rows_labels_and_oracles_are_identical(self, family, param):
        spec = InstanceSpec(family, param)
        instance = spec.materialize()
        implicit = ImplicitOracle(spec)
        reference = StaticOracle(instance)
        assert spec.n == instance.n
        assert spec.name == instance.name
        assert implicit.n == reference.n
        for node in instance.graph.nodes():
            row, label = spec.generator.node_row(node)
            assert row == materialized_row(instance, node)
            assert label == instance.labeling[node]
            want = reference.node_info(node)
            assert implicit.node_info(node) == want
            ports = max(want.ports, default=0)
            for port in range(0, ports + 2):
                assert implicit.resolve(node, port) == reference.resolve(
                    node, port
                )

    @pytest.mark.parametrize("family,param", DIFFERENTIAL_CASES)
    def test_meta_matches_materialized(self, family, param):
        spec = InstanceSpec(family, param)
        instance = spec.materialize()
        for key, value in spec.meta.items():
            assert instance.meta[key] == value

    @pytest.mark.parametrize("family", sorted(SMALL_PARAMS))
    def test_unknown_nodes_raise_port_graph_error(self, family):
        oracle = ImplicitOracle(
            InstanceSpec(family, SMALL_PARAMS[family][0])
        )
        for bad in (0, -1, oracle.n + 1):
            with pytest.raises(PortGraphError, match="unknown node"):
                oracle.node_info(bad)
            with pytest.raises(PortGraphError, match="unknown node"):
                oracle.resolve(bad, 1)


class TestRegistryConsistency:
    def test_registry_implicit_flags_match_generator_table(self):
        registered = {entry.name for entry in FAMILIES if entry.implicit}
        assert registered == set(implicit_families())

    def test_every_implicit_family_has_small_and_giant_params(self):
        assert set(SMALL_PARAMS) == set(implicit_families())
        assert set(GIANT_PARAMS) == set(implicit_families())

    def test_unknown_family_names_the_implicit_ones(self):
        with pytest.raises(ValueError, match="leaf-coloring-hard"):
            InstanceSpec("no-such-family", 3).n

    def test_implicit_family_factory_builds_specs(self):
        factory = ImplicitFamilyFactory("cycle-uniform")
        spec = factory(63)
        assert isinstance(spec, InstanceSpec)
        assert spec.n == 63


class TestGiantProbes:
    """Hypothesis-driven node-id probes at n >= 10^6.

    Every giant family admits ids 1..10^6, so one strategy serves all;
    ``derandomize`` keeps the sampled ids stable across CI runs.
    """

    @pytest.mark.parametrize("family", sorted(GIANT_PARAMS))
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(node=st.integers(min_value=1, max_value=1_000_000))
    def test_sampled_nodes_are_self_consistent(self, family, node):
        oracle = ImplicitOracle(InstanceSpec(family, GIANT_PARAMS[family]))
        info = oracle.node_info(node)
        assert info.node_id == node
        assert info.degree == len(info.ports)
        assert oracle.resolve(node, 0) is None
        assert oracle.resolve(node, max(info.ports, default=0) + 1) is None
        for port in info.ports:
            neighbor = oracle.resolve(node, port)
            assert neighbor is not None
            assert 1 <= neighbor <= oracle.n
            back = oracle.node_info(neighbor)
            assert any(
                oracle.resolve(neighbor, q) == node for q in back.ports
            )


class TestInstanceSpecValue:
    def test_pickles_to_constant_bytes(self):
        sizes = {
            len(pickle.dumps(InstanceSpec("leaf-coloring-hard", param)))
            for param in (3, 23, 26)
        }
        assert len(sizes) == 1, "pickle size must not grow with n"
        assert sizes.pop() < 256

    def test_pickle_round_trips(self):
        spec = InstanceSpec("balanced-tree", 23, seed=5)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert clone.n == 2**24 - 1

    def test_materialize_refuses_giant_n(self):
        spec = InstanceSpec("balanced-tree", 25)
        assert spec.n > MATERIALIZE_LIMIT
        with pytest.raises(ValueError, match="materialize"):
            spec.materialize()


class TestImplicitOracleLRU:
    def test_realized_nodes_stay_bounded(self):
        oracle = ImplicitOracle(
            InstanceSpec("cycle-uniform", 1_000_000), max_realized=16
        )
        for node in range(1, 201):
            oracle.node_info(node)
        assert oracle.realized <= 16
        assert oracle.realized_total == 200

    def test_evicted_nodes_are_recomputed_identically(self):
        spec = InstanceSpec("leaf-coloring-hard", 7)
        bounded = ImplicitOracle(spec, max_realized=4)
        unbounded = ImplicitOracle(spec)
        first = [bounded.node_info(node) for node in range(1, bounded.n + 1)]
        again = [bounded.node_info(node) for node in range(1, bounded.n + 1)]
        assert first == again
        assert first == [
            unbounded.node_info(node) for node in range(1, bounded.n + 1)
        ]
        assert bounded.realized <= 4


class TestAsOracleDispatch:
    def test_spec_modes(self):
        spec = InstanceSpec("cycle-uniform", 15)
        assert isinstance(as_oracle(spec), ImplicitOracle)
        assert isinstance(as_oracle(spec, mode="implicit"), ImplicitOracle)
        assert isinstance(as_oracle(spec, mode="compiled"), CompiledOracle)
        assert isinstance(as_oracle(spec, mode="reference"), StaticOracle)

    def test_instance_modes(self):
        instance = InstanceSpec("cycle-uniform", 15).materialize()
        assert isinstance(as_oracle(instance), CompiledOracle)
        assert isinstance(
            as_oracle(instance, mode="reference"), StaticOracle
        )
        with pytest.raises(ValueError, match="implicit"):
            as_oracle(instance, mode="implicit")

    def test_bare_graph_is_wrapped(self):
        graph = InstanceSpec("cycle-uniform", 15).materialize().graph
        oracle = as_oracle(graph, mode="reference")
        assert isinstance(oracle, StaticOracle)
        assert oracle.n == 15

    def test_rejects_unknown_modes_and_types(self):
        spec = InstanceSpec("cycle-uniform", 15)
        with pytest.raises(ValueError, match="unknown oracle mode"):
            as_oracle(spec, mode="quantum")
        with pytest.raises(TypeError, match="cannot build an oracle"):
            as_oracle(42)


class TestIterNodeIds:
    def test_small_spec_enumerates_every_node(self):
        spec = InstanceSpec("cycle-uniform", 15)
        assert list(iter_node_ids(spec)) == list(range(1, 16))
        assert list(iter_node_ids(spec.materialize())) == list(range(1, 16))

    def test_giant_spec_demands_explicit_nodes(self):
        with pytest.raises(ValueError, match="nodes="):
            iter_node_ids(InstanceSpec("balanced-tree", 25))


class TestRunnerAcceptsSpecs:
    def test_run_algorithm_on_giant_spec_is_bounded(self):
        spec = InstanceSpec("leaf-coloring-hard", 21)  # n = 2^22 - 1
        algo = ALGORITHMS.get("leaf-coloring/rw-to-leaf")
        result = run_algorithm(spec, algo.make(), seed=7, nodes=[1])
        assert result.outputs[1] is not None
        assert result.max_volume <= 4 * 22  # Θ(log n), generous slack

    def test_solve_and_check_validates_small_specs(self):
        spec = InstanceSpec("leaf-coloring-hard", 4)
        problem = PROBLEMS.get("leaf-coloring").make()
        algo = ALGORITHMS.get("leaf-coloring/distance")
        report = solve_and_check(problem, spec, algo.make(), seed=algo.seed)
        assert report.valid

    def test_solve_and_check_refuses_giant_specs(self):
        spec = InstanceSpec("leaf-coloring-hard", 23)
        problem = PROBLEMS.get("leaf-coloring").make()
        algo = ALGORITHMS.get("leaf-coloring/rw-to-leaf")
        with pytest.raises(ValueError, match="run_algorithm"):
            solve_and_check(problem, spec, algo.make(), seed=7)


class TestRunnerRejectsLegacySources:
    def test_bare_graph_raises_type_error(self):
        instance = InstanceSpec("cycle-uniform", 8).materialize()
        algo = ALGORITHMS.get("constant/echo-ok")
        with pytest.raises(TypeError, match="Instance or InstanceSpec"):
            run_algorithm(instance.graph, algo.make())

    def test_prebuilt_oracle_raises_type_error(self):
        instance = InstanceSpec("cycle-uniform", 8).materialize()
        algo = ALGORITHMS.get("constant/echo-ok")
        with pytest.raises(TypeError, match="Instance or InstanceSpec"):
            run_algorithm(StaticOracle(instance), algo.make())


class TestParseBackendSpec:
    @pytest.mark.parametrize("spec", [
        "serial",
        "reference",
        "batch",
        "process",
        "process:4",
        "process:4:shm",
        "process:4:pickle",
    ])
    def test_str_round_trips(self, spec):
        parsed = parse_backend_spec(spec)
        assert str(parsed) == spec
        assert parse_backend_spec(str(parsed)) == parsed

    def test_make_builds_the_named_backend(self):
        assert isinstance(parse_backend_spec("serial").make(), SerialBackend)
        assert isinstance(parse_backend_spec("batch").make(), BatchBackend)
        reference = parse_backend_spec("reference").make()
        assert isinstance(reference, SerialBackend)
        assert reference.oracle_mode == "reference"
        pool = parse_backend_spec("process:3:pickle").make()
        try:
            assert isinstance(pool, ProcessPoolBackend)
            assert pool.workers == 3
        finally:
            pool.close()

    def test_errors_name_the_grammar(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            parse_backend_spec("gpu")
        with pytest.raises(ValueError, match="'serial', 'reference'"):
            parse_backend_spec("gpu")
        with pytest.raises(ValueError, match="takes no arguments"):
            parse_backend_spec("serial:2")
        with pytest.raises(ValueError, match="transport"):
            parse_backend_spec("process:2:carrier-pigeon")
        with pytest.raises(ValueError, match="worker count"):
            parse_backend_spec("process:two")
        with pytest.raises(ValueError, match="worker count"):
            parse_backend_spec("process:0")
        with pytest.raises(TypeError, match="must be a string"):
            parse_backend_spec(42)

    def test_get_backend_accepts_spec_values(self):
        backend = get_backend(BackendSpec("serial"))
        assert isinstance(backend, SerialBackend)
        assert BACKEND_SPEC_GRAMMAR in str(
            pytest.raises(ValueError, get_backend, 42).value
        )

    def test_backend_spec_validates_on_construction(self):
        with pytest.raises(ValueError, match="unknown backend kind"):
            BackendSpec("gpu")
        with pytest.raises(ValueError, match="takes no workers"):
            BackendSpec("serial", workers=2)
        with pytest.raises(ValueError, match="workers must be positive"):
            BackendSpec("process", workers=0)


class TestNewFamiliesMaterialize:
    """The two families added for the implicit layer validate end to end."""

    @pytest.mark.parametrize(
        "family", ["cycle-uniform", "hierarchical-thc-det(2)"]
    )
    def test_factories_validate_under_registered_problems(self, family):
        entry = FAMILIES.get(family)
        assert entry.implicit
        for problem_name in entry.problems:
            problem = PROBLEMS.get(problem_name).make()
            for algorithm in ALGORITHMS:
                if algorithm.problem != problem_name:
                    continue
                report = solve_and_check(
                    problem,
                    entry.factory(entry.quick[0]),
                    algorithm.make(),
                    seed=algorithm.seed,
                )
                assert report.valid, (family, problem_name, algorithm.name)
