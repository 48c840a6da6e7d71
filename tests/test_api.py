"""The package's public surface, pinned: adding or removing an export
means editing this list, and README with it."""

from __future__ import annotations

import plutus
import plutus.graph
import plutus.serialize

PUBLIC = [
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

REMOVED = [
    # test-only wrappers over the pipeline's private block and path routines
    "BlockCutTree", "block_cut_tree", "hop_distance", "shortest_path",
    # a stuck round means the graph is not m-connected: GraphNotMConnectedError
    "Infeasible2ConnectivityError", "Infeasible3ConnectivityError",
    # a wrapper that dropped the layers of synergy_layers, its only caller
    "synergy",
    # every augmentation phase ends within n - |d| + 1 rounds, so no cap
    "IterationCapExceededError",
    # only is_connected called it: that now counts graph._components
    "connected_components",
]

# members no package code called: each repeated what its owner already gives
REMOVED_MEMBERS = [
    (plutus.Graph, "degree"),
    (plutus.Graph, "has_edge"),
    (plutus.DistanceReport, "stretch"),
    (plutus.serialize, "graph_to_dict"),
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC == sorted(set(PUBLIC))
    assert plutus.__all__ == PUBLIC


def test_every_exported_name_resolves():
    for name in plutus.__all__:
        assert getattr(plutus, name) is not None, name
    namespace: dict = {}
    exec("from plutus import *", namespace)
    assert set(PUBLIC) <= namespace.keys()


def test_removed_names_stay_removed():
    for name in REMOVED:
        assert not hasattr(plutus, name), name
        assert not hasattr(plutus.graph, name), name
    for owner, name in REMOVED_MEMBERS:
        assert not hasattr(owner, name), (owner, name)
