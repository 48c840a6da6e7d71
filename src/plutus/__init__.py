"""Greedy construction and verification of resilient backbones:
m-connected k-dominating sets on undirected and unit-disk graphs."""

from .errors import (
    DisconnectedInputError,
    EmptyGraphError,
    GraphInputError,
    GraphNotMConnectedError,
    OracleSizeError,
    PlutusError,
    SelfLoopError,
)
from .geometry import UdgInstance, random_geometric, splitmix64, unit_interval
from .graph import (
    DistanceReport,
    Graph,
    from_edge_list,
    from_points,
    is_connected,
    is_m_connected,
)
from .pipeline import (
    PhaseTrace,
    PlutusConfig,
    PlutusResult,
    Role,
    diversification,
    domination,
    isolation,
    run_plutus,
    sustainability,
    synergy_layers,
)
from .verify import (
    CheckResult,
    OracleResult,
    VerificationReport,
    backbone_stretch,
    brute_force_min_mcds,
    is_connected_dominating_set,
    is_k_dominating,
    is_m_connected_k_dominating,
    is_maximal_independent_set,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DisconnectedInputError",
    "DistanceReport",
    "EmptyGraphError",
    "Graph",
    "GraphInputError",
    "GraphNotMConnectedError",
    "OracleResult",
    "OracleSizeError",
    "PhaseTrace",
    "PlutusConfig",
    "PlutusError",
    "PlutusResult",
    "Role",
    "SelfLoopError",
    "UdgInstance",
    "VerificationReport",
    "backbone_stretch",
    "brute_force_min_mcds",
    "diversification",
    "domination",
    "from_edge_list",
    "from_points",
    "is_connected",
    "is_connected_dominating_set",
    "is_k_dominating",
    "is_m_connected",
    "is_m_connected_k_dominating",
    "is_maximal_independent_set",
    "isolation",
    "random_geometric",
    "run_plutus",
    "splitmix64",
    "sustainability",
    "synergy_layers",
    "unit_interval",
]
