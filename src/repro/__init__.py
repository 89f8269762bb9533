"""repro — reproduction of Rosenbaum & Suomela, "Seeing Far vs. Seeing
Wide: Volume Complexity of Local Graph Problems" (PODC 2020).

Public API surface: the problem definitions, the model runner, and the
instance generators; see README.md for a tour.
"""

from repro.adversary.engine import (
    InteractiveOracle,
    RecordingOracle,
    Transcript,
)
from repro.corpus import (
    InstanceCorpus,
    ResultStore,
)
from repro.exec.backends import (
    BackendSpec,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    TrialOutcome,
    get_backend,
    parse_backend_spec,
)
from repro.faults import (
    ChaosReport,
    FaultLog,
    FaultPlan,
    RetryPolicy,
    run_chaos,
)
from repro.montecarlo import (
    MonteCarloResult,
    TrialPolicy,
    estimate_success_probability,
    run_trials,
)
from repro.exec.sweep import (
    InstanceFamily,
    SweepResult,
    SweepSpec,
    run_sweep,
    run_sweeps,
)
from repro.graphs.labelings import Instance, Labeling, NodeLabel
from repro.graphs.port_graph import PortGraph
from repro.model.implicit import (
    ImplicitOracle,
    InstanceSource,
    InstanceSpec,
    as_oracle,
    implicit_families,
)
from repro.model.probe import CostProfile, ProbeAlgorithm, ProbeView
from repro.model.randomness import RandomnessModel
from repro.model.runner import (
    RunResult,
    SolveReport,
    run_algorithm,
    solve_and_check,
    success_probability,
)
from repro.problems import (
    BalancedTree,
    HHTHC,
    HierarchicalTHC,
    HybridTHC,
    LeafColoring,
)
from repro.registry import (
    ADVERSARIES,
    ALGORITHMS,
    FAMILIES,
    PROBLEMS,
    iter_compatible,
    load_components,
    register_adversary,
    register_algorithm,
    register_family,
    register_problem,
)

__version__ = "1.8.0"

__all__ = [
    "ADVERSARIES",
    "ALGORITHMS",
    "BackendSpec",
    "BalancedTree",
    "ChaosReport",
    "FAMILIES",
    "FaultLog",
    "FaultPlan",
    "PROBLEMS",
    "CostProfile",
    "ExecutionBackend",
    "HHTHC",
    "HierarchicalTHC",
    "HybridTHC",
    "ImplicitOracle",
    "Instance",
    "InstanceCorpus",
    "InstanceFamily",
    "InstanceSource",
    "InstanceSpec",
    "InteractiveOracle",
    "Labeling",
    "LeafColoring",
    "MonteCarloResult",
    "NodeLabel",
    "PortGraph",
    "ProbeAlgorithm",
    "ProbeView",
    "ProcessPoolBackend",
    "RandomnessModel",
    "RecordingOracle",
    "ResultStore",
    "RetryPolicy",
    "RunResult",
    "SerialBackend",
    "Transcript",
    "SolveReport",
    "SweepResult",
    "SweepSpec",
    "TrialOutcome",
    "TrialPolicy",
    "as_oracle",
    "estimate_success_probability",
    "get_backend",
    "implicit_families",
    "iter_compatible",
    "load_components",
    "parse_backend_spec",
    "register_adversary",
    "register_algorithm",
    "register_family",
    "register_problem",
    "run_algorithm",
    "run_chaos",
    "run_sweep",
    "run_sweeps",
    "run_trials",
    "solve_and_check",
    "success_probability",
]
