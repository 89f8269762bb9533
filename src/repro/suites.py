"""Named sweep suites: the paper-table batches as addressable data.

Each suite is a named builder returning the exact :class:`SweepSpec`
batch one bench table used to declare inline — same families (via the
component registry), same algorithms, seeds, start nodes, and candidate
growth classes.  The table scripts under ``benchmarks/`` and the
``repro sweep`` CLI both execute suites through this one module, so the
printed claimed-vs-measured rows are identical no matter which entry
point ran them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.exec.sweep import (
    InstanceFamily,
    SweepResult,
    SweepSpec,
    run_sweeps,
)
from repro.registry import (
    ALGORITHMS,
    FAMILIES,
    PROBLEMS,
    RegistryError,
    load_components,
)

# Candidate growth classes shared by the Table-1 style sweeps.
DIST_CANDIDATES = ["log log n", "log n", "n^{1/3}", "n^{1/2}", "n"]
VOL_CANDIDATES = [
    "log n",
    "log^2 n",
    "n^{1/3}",
    "n^{1/2}",
    "n^{1/2} log n",
    "n",
]
# The Figure-1/2 landscape spans the classic classes too.
LANDSCAPE_CANDIDATES = ["1", "log* n", "log log n", "log n", "n^{1/2}", "n"]


@dataclass(frozen=True)
class SuiteDef:
    """One named suite: a builder plus its banner title and footnotes."""

    name: str
    title: str
    build: Callable[[], List[SweepSpec]]
    notes: tuple = ()
    description: str = ""


SUITES: Dict[str, SuiteDef] = {}


def suite(
    name: str, title: str, notes: tuple = (), description: str = ""
) -> Callable[[Callable], Callable]:
    """Decorator: register a zero-arg ``build() -> List[SweepSpec]``."""

    def decorate(build: Callable[[], List[SweepSpec]]) -> Callable:
        SUITES[name] = SuiteDef(
            name=name,
            title=title,
            build=build,
            notes=notes,
            description=description or title,
        )
        return build

    return decorate


def suite_names() -> List[str]:
    return list(SUITES)


def get_suite(name: str) -> SuiteDef:
    try:
        return SUITES[name]
    except KeyError:
        raise RegistryError(
            f"unknown suite {name!r}; known suites: {', '.join(SUITES)}"
        ) from None


def run_suite(
    name: str,
    backend=None,
    progress: Optional[Callable[[str], None]] = None,
    printer: Optional[Callable[[str], None]] = print,
    store=None,
) -> List[SweepResult]:
    """Execute a named suite and print its claimed-vs-measured rows.

    ``store`` (a :class:`~repro.corpus.results.ResultStore`) persists
    every executed point and serves stored points on re-runs.
    """
    load_components()
    definition = get_suite(name)
    if printer is not None:
        printer("")
        printer("=" * 78)
        printer(definition.title)
        printer("=" * 78)
    results = run_sweeps(
        definition.build(), backend, progress=progress, store=store
    )
    if printer is not None:
        for result in results:
            printer(result.format_row())
        for note in definition.notes:
            printer(note)
    return results


# ----------------------------------------------------------------------
# shared start-node selectors (module-level so the store's spec hash can
# fingerprint them stably)
# ----------------------------------------------------------------------
def root_only(instance, param):
    return [instance.meta["root"]]


def first_node_only(instance, param):
    return [1]


def backbone_probes(instance, m):
    """Top backbone ends + the last node of a Hierarchical-THC instance."""
    return [1, m // 2 + 1, m, instance.graph.num_nodes]


def waypoint_probes(instance, shape):
    """Hybrid root + two BalancedTree component roots."""
    return [instance.meta["root"]] + instance.meta["bt_roots"][:2]


def hh_probes(instance, shape):
    """Both population roots + one BalancedTree component root."""
    from repro.graphs.tree_structure import (
        InstanceTopology,
        right_child_node,
    )

    topo = InstanceTopology(instance)
    hybrid_root = instance.meta["hybrid_root"]
    # A BalancedTree component root: its own answer requires the
    # Θ(√n)-sized component gather, the R-VOL-dominant cost.
    bt_probe = right_child_node(topo, hybrid_root)
    return [instance.meta["hierarchical_root"], hybrid_root, bt_probe]


def _family(name: str, grid: str = "full") -> InstanceFamily:
    load_components()
    return FAMILIES.get(name).instance_family(grid)


def _algo(name: str) -> Callable:
    load_components()
    return ALGORITHMS.get(name).factory


# ----------------------------------------------------------------------
# Table 1 — the four complexities of all five constructions
# ----------------------------------------------------------------------
@suite(
    "table1/leaf-coloring",
    "Table 1 — LeafColoring (§3): claims log n, log n, log n, n",
)
def table1_leaf_coloring() -> List[SweepSpec]:
    family = _family("leaf-coloring")
    return [
        SweepSpec("LeafColoring R-DIST", "Θ(log n)", family, "distance",
                  _algo("leaf-coloring/distance"),
                  candidates=DIST_CANDIDATES),
        SweepSpec("LeafColoring D-DIST", "Θ(log n)", family, "distance",
                  _algo("leaf-coloring/distance"),
                  candidates=DIST_CANDIDATES),
        SweepSpec("LeafColoring R-VOL", "Θ(log n)", family, "volume",
                  _algo("leaf-coloring/rw-to-leaf"), seed=7,
                  candidates=VOL_CANDIDATES),
        SweepSpec("LeafColoring D-VOL", "Θ(n)", family, "volume",
                  _algo("leaf-coloring/full-gather"), nodes=root_only,
                  candidates=VOL_CANDIDATES),
    ]


@suite(
    "table1/balanced-tree",
    "Table 1 — BalancedTree (§4): claims log n, log n, n, n",
)
def table1_balanced_tree() -> List[SweepSpec]:
    family = _family("balanced-tree")
    return [
        SweepSpec("BalancedTree R-DIST", "Θ(log n)", family, "distance",
                  _algo("balanced-tree/distance"),
                  candidates=DIST_CANDIDATES),
        SweepSpec("BalancedTree D-DIST", "Θ(log n)", family, "distance",
                  _algo("balanced-tree/distance"),
                  candidates=DIST_CANDIDATES),
        SweepSpec("BalancedTree R-VOL", "Θ(n)", family, "volume",
                  _algo("balanced-tree/full-gather"), nodes=root_only,
                  candidates=VOL_CANDIDATES),
        SweepSpec("BalancedTree D-VOL", "Θ(n)", family, "volume",
                  _algo("balanced-tree/full-gather"), nodes=root_only,
                  candidates=VOL_CANDIDATES),
    ]


@suite(
    "table1/hierarchical-thc",
    "Table 1 — Hierarchical-THC(2) (§5): claims n^1/2, n^1/2, "
    "Θ̃(n^1/2), Θ̃(n)",
    notes=(
        "  (D-VOL lower bound is adversarial: see bench_prop520; the "
        "row above is the matching O(n) upper bound)",
    ),
)
def table1_hierarchical_thc() -> List[SweepSpec]:
    family = _family("hierarchical-thc(2)")
    return [
        SweepSpec("Hierarchical-THC(2) R-DIST", "Θ(n^{1/2})", family,
                  "distance", _algo("hierarchical-thc(2)/recursive"),
                  nodes=backbone_probes, candidates=DIST_CANDIDATES),
        SweepSpec("Hierarchical-THC(2) D-DIST", "Θ(n^{1/2})", family,
                  "distance", _algo("hierarchical-thc(2)/recursive"),
                  nodes=backbone_probes, candidates=DIST_CANDIDATES),
        SweepSpec("Hierarchical-THC(2) R-VOL", "Θ̃(n^{1/2})", family,
                  "volume", _algo("hierarchical-thc(2)/waypoint"), seed=3,
                  nodes=backbone_probes, candidates=VOL_CANDIDATES),
        SweepSpec("Hierarchical-THC(2) D-VOL", "Θ̃(n)", family,
                  "volume", _algo("hierarchical-thc(2)/full-gather"),
                  nodes=first_node_only, candidates=VOL_CANDIDATES),
    ]


@suite(
    "table1/hybrid-thc",
    "Table 1 — Hybrid-THC(2) (§6): claims log n, log n, Θ̃(n^1/2), Θ̃(n)",
)
def table1_hybrid_thc() -> List[SweepSpec]:
    family = _family("hybrid-thc(2)")
    return [
        SweepSpec("Hybrid-THC(2) R-DIST", "Θ(log n)", family, "distance",
                  _algo("hybrid-thc(2)/distance"),
                  candidates=DIST_CANDIDATES),
        SweepSpec("Hybrid-THC(2) D-DIST", "Θ(log n)", family, "distance",
                  _algo("hybrid-thc(2)/distance"),
                  candidates=DIST_CANDIDATES),
        SweepSpec("Hybrid-THC(2) R-VOL", "Θ̃(n^{1/2})", family, "volume",
                  _algo("hybrid-thc(2)/waypoint"), seed=5,
                  nodes=waypoint_probes, candidates=VOL_CANDIDATES),
        SweepSpec("Hybrid-THC(2) D-VOL", "Θ̃(n)", family, "volume",
                  _algo("hybrid-thc(2)/full-gather"), nodes=root_only,
                  candidates=VOL_CANDIDATES),
    ]


@suite(
    "table1/hh-thc",
    "Table 1 — HH-THC(2,3) (§6.1): claims n^1/3, n^1/3, Θ̃(n^1/2), Θ̃(n)",
)
def table1_hh_thc() -> List[SweepSpec]:
    family = _family("hh-thc(2,3)")
    return [
        SweepSpec("HH-THC(2,3) R-DIST", "Θ(n^{1/3})", family, "distance",
                  _algo("hh-thc(2,3)/distance"), nodes=hh_probes,
                  candidates=DIST_CANDIDATES),
        SweepSpec("HH-THC(2,3) D-DIST", "Θ(n^{1/3})", family, "distance",
                  _algo("hh-thc(2,3)/distance"), nodes=hh_probes,
                  candidates=DIST_CANDIDATES),
        SweepSpec("HH-THC(2,3) R-VOL", "Θ̃(n^{1/2})", family, "volume",
                  _algo("hh-thc(2,3)/waypoint"), seed=2, nodes=hh_probes,
                  candidates=VOL_CANDIDATES),
        SweepSpec("HH-THC(2,3) D-VOL", "Θ̃(n)", family, "volume",
                  _algo("hh-thc(2,3)/full-gather"), nodes=hh_probes,
                  candidates=VOL_CANDIDATES),
    ]


# ----------------------------------------------------------------------
# Figures 1 and 2 — the complexity landscapes
# ----------------------------------------------------------------------
def _landscape_trees() -> InstanceFamily:
    entry = FAMILIES.get("leaf-coloring")
    return InstanceFamily(entry.name, entry.factory, [4, 5, 6, 7])


@suite(
    "fig1/distance-landscape",
    "Figure 1 — distance landscape (deterministic vs randomized)",
)
def fig1_distance_landscape() -> List[SweepSpec]:
    cycles = _family("cycle")
    small_cycles = _family("cycle-small")
    trees = _landscape_trees()
    return [
        SweepSpec("cycle 3-coloring DIST", "Θ(log* n)", cycles,
                  "distance", _algo("cycle/cole-vishkin"),
                  candidates=LANDSCAPE_CANDIDATES),
        SweepSpec("cycle MIS DIST", "Θ(log* n)", small_cycles,
                  "distance", _algo("cycle/mis"),
                  candidates=LANDSCAPE_CANDIDATES),
        SweepSpec("even-cycle 2-coloring DIST", "Θ(n)", cycles,
                  "distance", _algo("cycle/2-coloring"),
                  candidates=LANDSCAPE_CANDIDATES),
        SweepSpec("LeafColoring DIST", "Θ(log n)", trees, "distance",
                  _algo("leaf-coloring/distance"),
                  candidates=LANDSCAPE_CANDIDATES),
    ]


@suite(
    "fig2/volume-landscape",
    "Figure 2 — volume landscape (classes A/B collapse, §1.2)",
)
def fig2_volume_landscape() -> List[SweepSpec]:
    cycles = _family("cycle")
    trees = _landscape_trees()
    return [
        SweepSpec("cycle 3-coloring VOL", "Θ(log* n)", cycles, "volume",
                  _algo("cycle/cole-vishkin"),
                  candidates=LANDSCAPE_CANDIDATES),
        SweepSpec("LeafColoring R-VOL", "Θ(log n)", trees, "volume",
                  _algo("leaf-coloring/rw-to-leaf"), seed=3,
                  candidates=LANDSCAPE_CANDIDATES),
        SweepSpec("cycle 3-coloring DIST", "Θ(log* n)", cycles,
                  "distance", _algo("cycle/cole-vishkin"),
                  candidates=LANDSCAPE_CANDIDATES),
    ]


# ----------------------------------------------------------------------
# Implicit giant-n scaling (PR 7): the R-VOL curve far beyond any
# materializable size, served by InstanceSpec + ImplicitOracle
# ----------------------------------------------------------------------
def _implicit_leaf_coloring_hard(depth: int):
    from repro.model.implicit import InstanceSpec

    return InstanceSpec("leaf-coloring-hard", depth)


@suite(
    "implicit/scaling",
    "Implicit giant-n — LeafColoring R-VOL at n up to 2^24-1 "
    "(InstanceSpec: nodes synthesized on demand, bounded memory)",
    notes=(
        "  (no instance is materialized: each point ships an O(1) "
        "InstanceSpec and realizes only the O(log n) nodes the walk "
        "touches; the implicit-smoke CI job gates peak RSS < 512 MB)",
    ),
)
def implicit_scaling() -> List[SweepSpec]:
    family = InstanceFamily(
        "leaf-coloring-hard[implicit]",
        _implicit_leaf_coloring_hard,
        [17, 20, 23],  # n = 2^(d+1)-1: 262143, 2097151, 16777215
    )
    return [
        SweepSpec(
            "LeafColoring R-VOL (implicit)",
            "Θ(log n)",
            family,
            "volume",
            _algo("leaf-coloring/rw-to-leaf"),
            nodes=root_only,
            seed=7,
            candidates=VOL_CANDIDATES,
        ),
    ]


# ----------------------------------------------------------------------
# Monte Carlo — streaming success-probability estimation (PR 5)
# ----------------------------------------------------------------------
def _problem(name: str) -> Callable:
    load_components()
    return PROBLEMS.get(name).factory


@suite(
    "mc/success-rates",
    "Monte Carlo — randomized-solver success rates (streaming CIs, "
    "early stopping)",
    notes=(
        "  (per-point trial counts / CI bounds / stopping reasons ride "
        "in SweepPoint.detail; `repro sweep mc/success-rates --json`)",
    ),
)
def mc_success_rates() -> List[SweepSpec]:
    """W.h.p. solvers should estimate to rate ≈ 1 on every family."""
    from repro.montecarlo.engine import TrialPolicy

    policy = TrialPolicy(
        min_trials=8, max_trials=64, batch_size=8, tolerance=0.1
    )
    rate_candidates = ["1", "log n"]
    problem = _problem("leaf-coloring")
    algo = _algo("leaf-coloring/rw-to-leaf")
    specs = []
    for family_name in (
        "leaf-coloring",
        "random-tree",
        "random-tree-cyclic",
        "leaf-coloring-perturbed",
    ):
        specs.append(
            SweepSpec(
                f"RWtoLeaf success @ {family_name}",
                "Θ(1) (→ 1 w.h.p.)",
                _family(family_name, "quick"),
                "success_rate",
                algo,
                seed=7,
                candidates=rate_candidates,
                problem_factory=problem,
                trial_policy=policy,
            )
        )
    return specs


__all__ = [
    "DIST_CANDIDATES",
    "LANDSCAPE_CANDIDATES",
    "SUITES",
    "SuiteDef",
    "VOL_CANDIDATES",
    "backbone_probes",
    "first_node_only",
    "get_suite",
    "hh_probes",
    "root_only",
    "run_suite",
    "suite",
    "suite_names",
    "waypoint_probes",
]
