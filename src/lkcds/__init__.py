"""Approximate kernelization for connected distance-r dominating set.

The pipeline shrinks a sparse host graph to an annotated kernel whose
solutions translate back within a chosen approximation factor, with
exact oracles small enough to audit every structural step.
"""

from .closure import (
    ClosureReport,
    ClosureResult,
    build_closure,
    verify_closure,
)
from .cores import DominationCore, Rejection, connected_core, core_verify, find_core
from .domination import (
    ContractViolation,
    CoveringFamily,
    check_covering_family,
    connect,
    covering_family,
    dominates,
    greedy_rdom,
)
from .graphs import (
    Graph,
    GraphFormatError,
    bfs_layers,
    induced_subgraph,
    parse_graph,
    r_subdivision,
    serialize_graph,
)
from .hardness import HardnessInstance, hardness_instance, hardness_sweep, random_setcover
from .kernel import (
    KernelInstance,
    KernelParams,
    LiftResult,
    RatioCertificate,
    ReplaySplit,
    certify_ratio,
    kernel_solution_valid,
    kernelize,
    lift,
    params_from,
    replay_split,
    parse_kernel,
    serialize_kernel,
)
from .oracles import (
    SetCoverInstance,
    SolveResult,
    exact_acds,
    exact_cds,
    exact_ds,
    exact_setcover,
    parse_setcover,
    serialize_setcover,
)
from .orders import (
    OrderedGraph,
    check_separation,
    exact_wcol,
    heuristic_order,
    wreach_report,
)
from .projections import classify, profile
from .steiner import steiner_exact, steiner_size

__version__ = "0.1.0"

__all__ = [
    "ClosureReport",
    "ClosureResult",
    "ContractViolation",
    "CoveringFamily",
    "DominationCore",
    "Graph",
    "GraphFormatError",
    "HardnessInstance",
    "KernelInstance",
    "KernelParams",
    "LiftResult",
    "OrderedGraph",
    "RatioCertificate",
    "Rejection",
    "ReplaySplit",
    "SetCoverInstance",
    "SolveResult",
    "bfs_layers",
    "build_closure",
    "certify_ratio",
    "check_covering_family",
    "check_separation",
    "classify",
    "connect",
    "connected_core",
    "core_verify",
    "covering_family",
    "dominates",
    "exact_acds",
    "exact_cds",
    "exact_ds",
    "exact_setcover",
    "exact_wcol",
    "find_core",
    "greedy_rdom",
    "hardness_instance",
    "hardness_sweep",
    "heuristic_order",
    "induced_subgraph",
    "kernel_solution_valid",
    "kernelize",
    "lift",
    "params_from",
    "parse_graph",
    "parse_kernel",
    "parse_setcover",
    "profile",
    "r_subdivision",
    "random_setcover",
    "replay_split",
    "serialize_graph",
    "serialize_kernel",
    "serialize_setcover",
    "steiner_exact",
    "steiner_size",
    "wreach_report",
]
