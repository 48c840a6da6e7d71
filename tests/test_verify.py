from __future__ import annotations

import sys
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plutus import (
    GraphInputError,
    OracleResult,
    OracleSizeError,
    PlutusConfig,
    backbone_stretch,
    brute_force_min_mcds,
    domination,
    from_edge_list,
    is_connected,
    is_connected_dominating_set,
    is_k_dominating,
    is_m_connected,
    is_m_connected_k_dominating,
    is_maximal_independent_set,
    isolation,
    random_geometric,
    run_plutus,
    synergy_layers,
    verify,
)
from plutus.graph import DistanceReport

from .conftest import complete_graph, cycle_graph, path_graph, star_graph, structured_graphs
from .helpers import (
    _distances_from,
    naive_backbone_stretch,
    naive_disconnecting_set,
    naive_lowest_bad_point,
    naive_min_mcds,
    random_connected_graph,
    random_graph,
    relabel,
)
from plutus.geometry import splitmix64

seeds = st.integers(min_value=0, max_value=10**9)


class TestMaximalIndependentSet:
    def test_path_center(self, p3):
        assert is_maximal_independent_set(p3, {1}) == (True, None)

    def test_path_end_not_maximal(self, p3):
        assert is_maximal_independent_set(p3, {0}) == (False, ("addable-vertex", 2))

    def test_cycle_alternation(self, c6):
        assert is_maximal_independent_set(c6, {0, 2, 4}) == (True, None)

    def test_adjacent_pair_witness(self, p3):
        ok, witness = is_maximal_independent_set(p3, {0, 1})
        assert not ok and witness == ("adjacent-pair", 0, 1)


class TestConnectedDominatingSet:
    def test_path_core(self, p5):
        assert is_connected_dominating_set(p5, {1, 2, 3}) == (True, None)

    def test_disconnected_witness(self, p5):
        ok, witness = is_connected_dominating_set(p5, {1, 3})
        assert not ok and witness == ("disconnected", (1,))

    def test_complete_graph_single(self, k4):
        assert is_connected_dominating_set(k4, {0}) == (True, None)

    def test_undominated_witness(self, p5):
        ok, witness = is_connected_dominating_set(p5, {0, 1})
        assert not ok and witness == ("undominated", 3)

    def test_empty_rejected(self, p5):
        with pytest.raises(GraphInputError):
            is_connected_dominating_set(p5, set())


class TestKDominating:
    def test_complete_graph_pair(self, k5):
        assert is_k_dominating(k5, {0, 1}, 2) == (True, None)

    def test_deficient_witness(self, p3):
        assert is_k_dominating(p3, {1}, 2) == (False, ("deficient", 0, 1))

    def test_whole_vertex_set_vacuous(self, p5):
        for k in (1, 2, 5):
            assert is_k_dominating(p5, range(5), k) == (True, None)

    def test_bad_k_rejected(self, p5):
        with pytest.raises(GraphInputError):
            is_k_dominating(p5, {1}, 0)

    @given(seeds, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_preserved_under_additions(self, seed, k):
        # growing a set never lowers an outside node's dominator count,
        # which is why the connectivity phases cannot break k-dominance
        g = random_graph(seed, max_nodes=8)
        subset = {v for v in range(g.node_count) if splitmix64(seed, 7 + v) % 2}
        extra = {v for v in range(g.node_count) if splitmix64(seed, 77 + v) % 3 == 0}
        if not is_k_dominating(g, subset, k)[0]:
            return
        assert is_k_dominating(g, subset | extra, k)[0]


class TestCertificate:
    def test_cycle_passes(self, c4):
        report = is_m_connected_k_dominating(c4, range(4), 1, 2)
        assert report.overall
        assert [c.name for c in report.checks] == ["k-dominating", "m-connected"]

    def test_cut_vertex_witness(self, p5):
        report = is_m_connected_k_dominating(p5, {1, 2, 3}, 1, 2)
        assert not report.overall
        failed = {c.name: c for c in report.checks if not c.passed}
        assert failed["m-connected"].witness == ("disconnecting-set", (2,))

    def test_complete_graph_three_connected(self, k4):
        assert is_m_connected_k_dominating(k4, range(4), 2, 3).overall

    def test_too_small_witness(self, k4):
        report = is_m_connected_k_dominating(k4, {0, 1}, 1, 2)
        failed = {c.name: c for c in report.checks if not c.passed}
        assert failed["m-connected"].witness == ("too-small", 2)

    @given(seeds, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_witness_replays(self, seed, k, m):
        g = random_graph(seed, max_nodes=8)
        subset = {v for v in range(g.node_count) if splitmix64(seed, 50 + v) % 2}
        if not subset:
            subset = {0}
        report = is_m_connected_k_dominating(g, subset, k, m)
        for check in report.checks:
            if check.passed:
                assert check.witness is None
            else:
                _replay_witness(g, subset, k, check.witness)

    @given(seeds, st.integers(min_value=2, max_value=3))
    @settings(max_examples=200, deadline=None)
    def test_witness_is_lexicographically_first(self, seed, m):
        g = random_graph(seed, max_nodes=12)
        subset = {v for v in range(g.node_count) if splitmix64(seed, 50 + v) % 4}
        if len(subset) <= m:
            return
        check = is_m_connected_k_dominating(g, subset, 1, m).checks[1]
        first = naive_disconnecting_set(g, subset, m)
        assert check.witness == (None if first is None else ("disconnecting-set", first))

    def test_separation_pair_at_highest_ids(self, monkeypatch):
        # two 20-cliques joined only through the two highest ids, each of
        # which sees every other vertex: the one separating pair comes last
        # in id order, and the witness search still runs a constant number
        # of BFSs instead of one per vertex
        import plutus.graph

        side = 20
        n = 2 * side + 2
        edges = [(u, v) for block in (range(side), range(side, 2 * side))
                 for u in block for v in block if u < v]
        edges += [(u, v) for v in (n - 2, n - 1) for u in range(v)]
        g = from_edge_list(n, edges)
        searches = []
        components = plutus.graph._components

        def counting(graph, nodes):
            searches.append(nodes)
            return components(graph, nodes)

        monkeypatch.setattr(plutus.graph, "_components", counting)
        report = is_m_connected_k_dominating(g, range(n), 1, 3)
        assert report.checks[1].witness == ("disconnecting-set", (n - 2, n - 1))
        assert len(searches) <= 2

    def test_cut_vertex_at_highest_id(self, monkeypatch):
        # two cycles joined only at the highest id: the one cut vertex
        # comes last in id order, and the witness search still runs a
        # constant number of BFSs instead of one per vertex
        import plutus.graph

        side = 30
        n = 2 * side + 1
        hub = n - 1
        edges = []
        for block in (range(side), range(side, 2 * side)):
            ring = [*block, hub]
            edges += [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
        g = from_edge_list(n, edges)
        searches = []
        components = plutus.graph._components

        def counting(graph, nodes):
            searches.append(nodes)
            return components(graph, nodes)

        monkeypatch.setattr(plutus.graph, "_components", counting)
        report = is_m_connected_k_dominating(g, range(n), 1, 2)
        assert report.checks[1].witness == ("disconnecting-set", (hub,))
        assert naive_disconnecting_set(g, range(n), 2) == (hub,)
        assert len(searches) <= 2

    def test_lone_lowest_vertex_beside_one_component_m2(self):
        # removing the isolated 0 leaves the path 1-2-3 connected, so the
        # witness is the second-lowest vertex
        g = from_edge_list(4, [(1, 2), (2, 3)])
        report = is_m_connected_k_dominating(g, range(4), 1, 2)
        assert report.checks[1].witness == ("disconnecting-set", (1,))
        assert naive_disconnecting_set(g, range(4), 2) == (1,)

    def test_lone_lowest_vertex_beside_one_component_m3(self):
        # 0 is the lowest bad point; without it, 1 sits alone beside the
        # edge 2-3, so its partner is 2
        g = from_edge_list(4, [(0, 1), (2, 3)])
        report = is_m_connected_k_dominating(g, range(4), 1, 3)
        assert report.checks[1].witness == ("disconnecting-set", (0, 2))
        assert naive_disconnecting_set(g, range(4), 3) == (0, 2)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)],  # 0 pendant on the 4-cycle 1-2-3-4
        [(u, v) for u in range(1, 5) for v in range(u + 1, 5)],  # 0 isolated beside K4
    ])
    def test_pinned_point_is_second_lowest_when_the_rest_is_two_connected(self, edges):
        # removing 0 leaves a 2-connected rest, so the lowest bad point
        # is 1; without 1, the lowest vertex to split the rest is 2
        g = from_edge_list(5, edges)
        report = is_m_connected_k_dominating(g, range(5), 1, 3)
        assert report.checks[1].witness == ("disconnecting-set", (1, 2))
        assert naive_lowest_bad_point(g, range(5)) == 1
        assert naive_disconnecting_set(g, range(5), 3) == (1, 2)

    @pytest.mark.parametrize("case, m, ids", [
        ("k2m2", 3, (1, 36)),
        ("k2m1", 3, (0, 2)),
        ("k2m1", 2, (2,)),
        ("pendant", 3, (1, 2)),
        ("pendant", 2, (1,)),
    ])
    def test_witness_is_confirmed_by_a_component_search(self, monkeypatch, case, m, ids):
        # the rejections the CI replays: a backbone of the seed-8 n = 50
        # instance solved at k = 2, and 0 hanging off the 4-cycle 1-2-3-4.
        # Before the witness is reported, the set without it is searched
        # and falls apart
        import plutus.graph

        if case == "pendant":
            g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
            backbone = range(5)
        else:
            g = random_geometric(50, 0.3, 8).graph()
            backbone = run_plutus(g, PlutusConfig(k=2, m=int(case[-1]))).dominating_set
        searches = []
        components = plutus.graph._components

        def recording(graph, nodes):
            searches.append((list(nodes), components(graph, nodes)))
            return searches[-1][1]

        monkeypatch.setattr(plutus.graph, "_components", recording)
        report = is_m_connected_k_dominating(g, backbone, 1, m)
        assert report.checks[1].witness == ("disconnecting-set", ids)
        assert naive_disconnecting_set(g, backbone, m) == ids
        nodes, found = searches[-1]
        assert nodes == sorted(set(backbone) - set(ids)) and len(found) > 1

    def test_a_witness_that_does_not_disconnect_is_an_internal_error(self, monkeypatch):
        # a palm tree whose low point names 1, the parent of 2 on the
        # 5-cycle, as a cut vertex: the cycle without 1 is still connected
        import plutus.graph

        palm_tree = plutus.graph._palm_tree

        def wrong(adj, members, *rest):
            order, parent, depth, low = palm_tree(adj, members, *rest)
            low = low[:]
            low[order[2]] = depth[parent[order[2]]]
            return order, parent, depth, low

        monkeypatch.setattr(plutus.graph, "_palm_tree", wrong)
        with pytest.raises(AssertionError, match=r"^witness \(1,\) does not disconnect the set$"):
            is_m_connected_k_dominating(cycle_graph(5), range(5), 1, 2)

    def test_one_connectivity_pass_per_check(self, monkeypatch):
        # a rejected backbone gets its verdict and its witness from one
        # pass: the witness search runs once, and at m = 3 so does the
        # bad-point engine.  Calls are counted by code object, whatever
        # name a module imported them under.
        import plutus.graph

        g = random_geometric(1000, 0.07, 1).graph()
        n = g.node_count
        engine = {
            plutus.graph._connectivity_witness.__code__: "witness",
            plutus.graph._bad_points.__code__: "bad point",
        }
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in engine:
                calls.append(engine[frame.f_code])

        for solved_at, checked_at, expected in (
            (2, 3, ["witness", "bad point"]),
            (1, 2, ["witness"]),
        ):
            backbone = run_plutus(g, PlutusConfig(k=2, m=solved_at)).dominating_set
            calls.clear()
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                report = is_m_connected_k_dominating(g, backbone, 2, checked_at)
            finally:
                sys.setprofile(previous)
            assert not report.checks[1].passed
            assert report.checks[1].witness[0] == "disconnecting-set"
            assert calls == expected
        # the whole-graph check reads the graph's own adjacency, uncopied
        trees = []
        palm_tree = plutus.graph._palm_tree

        def recording(adj, *args, **kwargs):
            trees.append(adj)
            return palm_tree(adj, *args, **kwargs)

        monkeypatch.setattr(plutus.graph, "_palm_tree", recording)
        for m in (2, 3):
            is_m_connected(g, range(n), m)
        assert len(trees) >= 2 and all(adj is g.adjacency for adj in trees)

    def test_whole_set_reduces_to_graph_connectivity(self, c6):
        for m in (1, 2, 3):
            report = is_m_connected_k_dominating(c6, range(6), 3, m)
            assert report.checks[0].passed  # vacuous k-domination
            assert report.checks[1].passed == is_m_connected(c6, range(6), m)


def _replay_witness(g, subset, k, witness):
    from .helpers import replay_witness

    replay_witness(g, set(subset), k, witness)


class TestBackboneStretch:
    def test_complete_graph_all_adjacent(self, k4):
        assert backbone_stretch(k4, {0}) == (1.0, None)

    def test_path_backbone_preserves_routes(self, p5):
        assert backbone_stretch(p5, {1, 2, 3}) == (1.0, None)

    def test_star_center(self, star4):
        assert backbone_stretch(star4, {0}) == (1.0, None)

    def test_detour_measured(self, c6):
        # backbone {0..4}: the pair (0, 4) routes 0-1-2-3-4 instead of 0-5-4
        value, worst = backbone_stretch(c6, {0, 1, 2, 3, 4})
        assert value == 2.0 == worst.d_backbone / worst.d_g
        assert worst.pair == (0, 4)
        assert (worst.d_g, worst.d_backbone) == (2, 4)

    def test_requires_cds(self, p5):
        with pytest.raises(GraphInputError):
            backbone_stretch(p5, {1, 3})

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_stretch_at_least_one(self, seed):
        g = random_connected_graph(seed)
        from plutus import domination, isolation

        cds = domination(g, isolation(g)[0])
        value, worst = backbone_stretch(g, cds)
        assert value >= 1.0
        if worst is not None:
            assert worst.d_backbone >= worst.d_g
            assert worst.d_backbone / worst.d_g == value


@st.composite
def graph_with_cds(draw):
    """A connected graph on up to 12 nodes (a random spanning tree plus
    random chords, in random node order) and a random connected
    dominating set of it: the inner nodes of the tree plus any extra
    nodes, since a superset of a connected dominating set is one too."""
    n = draw(st.integers(min_value=1, max_value=12))
    order = draw(st.permutations(range(n)))
    tree = [(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    node = st.integers(min_value=0, max_value=n - 1)
    chords = [(u, v) for u, v in draw(st.lists(st.tuples(node, node), max_size=2 * n)) if u != v]
    g = from_edge_list(n, tree + chords)
    degree = [0] * n
    for u, v in tree:
        degree[u] += 1
        degree[v] += 1
    inner = {v for v in range(n) if degree[v] >= 2} or {order[0]}
    return g, inner | set(draw(st.lists(node, max_size=n)))


def _chained_detours(order: list[int]) -> tuple:
    """Two shortcuts through outsiders, 1-2-5 and 5-4-8, that the backbone
    replaces by 1-3-6-5 and 5-0-7-8, relabelled by ``order`` (old v is
    renamed order[v]).  The pairs (1, 5) and (5, 8) route 3 hops instead
    of 2, and (1, 8), which takes both shortcuts, 6 instead of 4: all
    three have ratio 3 / 2, and no pair has more."""
    edges = [(1, 2), (1, 3), (2, 3), (2, 5), (3, 6), (5, 6), (0, 5), (0, 7), (4, 5),
             (4, 7), (4, 8), (7, 8)]
    g = from_edge_list(9, [(order[u], order[v]) for u, v in edges])
    backbone = {order[v] for v in (0, 3, 5, 6, 7, 8)}
    return g, backbone


class TestStretchAgainstNaive:
    """backbone_stretch against the per-source BFS pair it replaced."""

    @given(graph_with_cds())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive(self, case):
        g, backbone = case
        assert is_connected_dominating_set(g, backbone)[0]
        assert backbone_stretch(g, backbone) == naive_backbone_stretch(g, backbone)

    @given(graph_with_cds(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_narrow_blocks_match_naive(self, case, width):
        # many block boundaries: pairs whose source lies in an earlier
        # block than the worst one, or in a later one
        g, backbone = case
        n = g.node_count
        with patch.object(verify, "_STRETCH_BUDGET", n * width):
            bounds = verify._source_blocks(n)
            got = backbone_stretch(g, backbone)
        assert max(hi - lo for lo, hi in zip(bounds, bounds[1:])) <= width
        assert len(bounds) - 1 == -(-n // width)
        assert got == naive_backbone_stretch(g, backbone)

    @pytest.mark.parametrize("order, pair, distances", [
        ([0, 1, 2, 3, 4, 5, 6, 7, 8], (1, 5), (2, 3)),
        ([2, 0, 3, 4, 5, 6, 7, 8, 1], (0, 1), (4, 6)),
        ([8, 7, 6, 5, 4, 3, 2, 1, 0], (0, 3), (2, 3)),
    ])
    def test_ratio_tie_goes_to_lexicographically_first_pair(self, order, pair, distances):
        # 6 / 4 against 3 / 2: whichever pair comes first in (u, v) order
        # wins, whether it is reached before or after the others
        g, backbone = _chained_detours(order)
        value, worst = backbone_stretch(g, backbone)
        assert value == 1.5
        assert worst.pair == pair
        assert (worst.d_g, worst.d_backbone) == distances
        assert (value, worst) == naive_backbone_stretch(g, backbone)

    @pytest.mark.parametrize("n, radius, seed", [(200, 0.15, 1), (300, 0.12, 2), (500, 0.1, 1)])
    def test_relabelled_unit_disk_graphs(self, n, radius, seed):
        g = random_geometric(n, radius, seed).graph()
        h = relabel(g, sorted(range(n), key=lambda v: splitmix64(seed, v)))
        for graph in (g, h):
            cds = domination(graph, isolation(graph)[0])
            for backbone in (cds, synergy_layers(graph, cds, 2)[0]):
                got = backbone_stretch(graph, backbone)
                assert got == naive_backbone_stretch(graph, backbone)
                assert got[0] > 1.0

    def test_more_nodes_than_one_block(self):
        # two passes, then three of unequal width (366, 367, 367): the
        # worst pair, found in the first pass, survives the later ones
        n = 1100
        g = random_geometric(n, 0.07, 1).graph()
        assert is_connected(g)
        backbone = domination(g, isolation(g)[0])
        want = naive_backbone_stretch(g, backbone)
        for passes, bounds in ((2, [0, 550, 1100]), (3, [0, 366, 733, 1100])):
            with patch.object(verify, "_STRETCH_BUDGET", n * -(-n // passes)):
                assert verify._source_blocks(n) == bounds
                got = backbone_stretch(g, backbone)
            assert got == want
            assert got[1].pair[0] < bounds[1]

    @pytest.mark.parametrize("n, radius, seed", [(1000, 0.07, 4), (2000, 0.05, 2)])
    def test_udg_m3_corpus_graphs(self, n, radius, seed):
        # the two unit-disk graphs of the udg-m3 benchmark workload with
        # their k = 2, m = 3 backbones: dozens of levels, cap drops, and a
        # routed sweep that keeps members and pending vertices only once
        # the plain search stops
        g = random_geometric(n, radius, seed).graph()
        backbone = run_plutus(g, PlutusConfig(k=2, m=3)).dominating_set
        assert backbone_stretch(g, backbone) == naive_backbone_stretch(g, backbone)

    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 2047, 2048, 2049, 8192, 8193, 16000, 10**6])
    def test_blocks_keep_the_budget(self, n):
        bounds = verify._source_blocks(n)
        widths = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        assert bounds[0] == 0 and bounds[-1] == n
        assert max(widths) - min(widths) <= 1
        assert max(widths) * n <= verify._STRETCH_BUDGET
        # one pass fewer would overrun the budget
        assert len(widths) == 1 or -(-n // (len(widths) - 1)) * n > verify._STRETCH_BUDGET
        if n <= 2048:
            assert bounds == [0, n]


def _detour_of_three(order: list[int]) -> tuple:
    """The backbone path 0-1-...-10 and three outsiders: 11 sees 0, 7 and
    12; 12 sees 4, 7, 11 and 13; 13 sees 10.  The pair (0, 13) takes
    0-11-12-13, 3 hops, and routes 11 along the path: the one worst ratio
    11 / 3.  The runner-up is (4, 13), 7 / 2.  Relabelled by ``order``
    (old v is renamed order[v])."""
    edges = [(i, i + 1) for i in range(10)]
    edges += [(0, 11), (7, 11), (11, 12), (4, 12), (7, 12), (12, 13), (10, 13)]
    g = from_edge_list(14, [(order[u], order[v]) for u, v in edges])
    return g, {order[v] for v in range(11)}


class TestStretchBound:
    """The routed-distance ceiling that cuts the stretch search short."""

    @given(graph_with_cds())
    @settings(max_examples=300, deadline=None)
    def test_reach_bounds_every_routed_distance(self, case):
        g, backbone = case
        reach = verify._routed_reach(g.adjacency, backbone, min(backbone))
        routed = [
            d
            for u in range(g.node_count)
            for d in _distances_from(g, u, lambda x: x in backbone)
        ]
        assert max(routed) <= reach <= 2 * max(routed)

    def test_worst_pair_three_hops_apart(self):
        # reach = 12 (twice the eccentricity of member 5), so once the
        # runner-up 7 / 2 is found the cutoff is 12 * 2 // 7 = 3: the
        # pending pairs at plain distance 3 must be kept
        g, backbone = _detour_of_three(list(range(14)))
        assert verify._routed_reach(g.adjacency, backbone, 0) == 12
        got = backbone_stretch(g, backbone)
        assert got == (11 / 3, DistanceReport((0, 13), 3, 11))
        assert got == naive_backbone_stretch(g, backbone)

    def test_worst_pair_set_by_a_later_block(self):
        # the path reversed, one source per pass: the runner-up (6, 13) is
        # found in pass 6, so pass 10 starts with the cutoff 3 and its
        # plain search must still reach level 3 for the worst (10, 13)
        g, backbone = _detour_of_three([*range(10, -1, -1), 11, 12, 13])
        assert verify._routed_reach(g.adjacency, backbone, 0) == 12
        with patch.object(verify, "_STRETCH_BUDGET", g.node_count):
            assert verify._source_blocks(g.node_count) == list(range(15))
            got = backbone_stretch(g, backbone)
        assert got == (11 / 3, DistanceReport((10, 13), 3, 11))
        assert got == naive_backbone_stretch(g, backbone)


def _two_detours() -> tuple:
    """The member path 2-3-4-5-6 with members 0 and 1 on 2 and the member
    tail 2-10-11, and three outsiders: 7 sees 1, 6 and 9; 8 sees 0 and 6;
    9 sees 6 and 7.  Vertex 9 is two hops from 1 (through 7) and three
    from 0 (through 8 and 6); both route six hops, along the path."""
    edges = [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 10), (10, 11)]
    edges += [(1, 7), (6, 7), (7, 9), (0, 8), (6, 8), (6, 9)]
    return from_edge_list(12, edges), {0, 1, 2, 3, 4, 5, 6, 10, 11}


class TestStretchLevels:
    """The pending sets of the level loop: which pair a routed level
    reports, and when a vertex leaves the sweeps."""

    def test_nearer_source_wins_a_shared_routed_level(self):
        # level 6 routes 1 (plain distance 2) and 0 (plain distance 3) to 9
        # at once: only the nearer source's 6 / 2 can be the worst, so the
        # pair is (1, 9) though 0 is the lower id.  The tail makes reach 8,
        # so the runner-up (0, 6), 5 / 2, leaves the cutoff at 8 * 2 // 5
        # = 3 and the pair at plain distance 3 is still pending at level 6
        g, backbone = _two_detours()
        assert verify._routed_reach(g.adjacency, backbone, 0) == 8
        got = backbone_stretch(g, backbone)
        assert got == (3.0, DistanceReport((1, 9), 2, 6))
        assert got == naive_backbone_stretch(g, backbone)

    def test_outsider_pending_after_the_plain_search_stops(self):
        # the cycle 0-1-...-8 with backbone 0..6: the worst pair (0, 7) is
        # two hops apart through the outsider 8 and routes seven hops round
        # the path.  The runner-up (0, 6), 6 / 3 at level 6, cuts the cutoff
        # to 8 * 3 // 6 = 4, so the plain search stops there, and the
        # routed sweep must still visit 7, no member, at level 7
        g = cycle_graph(9)
        backbone = set(range(7))
        assert verify._routed_reach(g.adjacency, backbone, 0) == 8
        got = backbone_stretch(g, backbone)
        assert got == (3.5, DistanceReport((0, 7), 2, 7))
        assert got == naive_backbone_stretch(g, backbone)

    def test_a_cap_drop_empties_pending_sets(self):
        # the cycle 0-1-...-8 with every vertex but 1 in the backbone, and
        # the path 2-9-10 hanging off 2 (9 a member, 10 not).  The worst
        # pair (0, 2), 7 / 2 at level 7, cuts the cutoff from 5 to
        # 10 * 2 // 7 = 2.  Then 9 holds only 0, at plain distance 3, and
        # 10 only 0 and 8, at 4 and 5, all routed at later levels: both
        # sets empty, though their sources are not routed yet
        g = from_edge_list(11, [(v, (v + 1) % 9) for v in range(9)] + [(2, 9), (9, 10)])
        backbone = set(range(11)) - {1, 10}
        assert verify._routed_reach(g.adjacency, backbone, 0) == 10
        got = backbone_stretch(g, backbone)
        assert got == (3.5, DistanceReport((0, 2), 2, 7))
        assert got == naive_backbone_stretch(g, backbone)


class TestOracle:
    def test_path_minimum(self, p3):
        result = brute_force_min_mcds(p3, 1, 1)
        assert result.optimum_size == 1
        assert result.optimum_witness == frozenset({1})

    def test_cycle_needs_four(self, c6):
        result = brute_force_min_mcds(c6, 1, 1)
        assert result.optimum_size == 4

    def test_complete_graph_double_domination(self, k4):
        result = brute_force_min_mcds(k4, 2, 1)
        assert result.optimum_size == 2
        assert result.optimum_witness == frozenset({0, 1})

    def test_tree_infeasible_for_two_connectivity(self, p3):
        result = brute_force_min_mcds(p3, 1, 2)
        assert not result.feasible
        assert result.optimum_witness is None
        assert result.sets_examined == 2**3 - 1

    def test_too_large_rejected(self):
        g = complete_graph(21)
        with pytest.raises(OracleSizeError):
            brute_force_min_mcds(g, 1, 1)

    def test_size_cap_limits_search(self, c6):
        result = brute_force_min_mcds(c6, 1, 1, size_cap=3)
        assert not result.feasible
        assert result.sets_examined == 6 + 15 + 20

    def test_examined_counts_ascending_enumeration(self, p3):
        # {0} fails, {1} succeeds: two sets examined
        assert brute_force_min_mcds(p3, 1, 1).sets_examined == 2

    @given(seeds, st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_witness_passes_checkers_and_is_minimal(self, seed, k, m):
        g = random_graph(seed, max_nodes=7)
        result = brute_force_min_mcds(g, k, m)
        if not result.feasible:
            # nothing at any size passes the independent checkers either
            for size in range(1, g.node_count + 1):
                from itertools import combinations

                for combo in combinations(range(g.node_count), size):
                    report = is_m_connected_k_dominating(g, combo, k, m)
                    assert not report.overall
            return
        witness = result.optimum_witness
        assert is_m_connected_k_dominating(g, witness, k, m).overall
        from itertools import combinations

        if result.optimum_size > 1:
            for combo in combinations(range(g.node_count), result.optimum_size - 1):
                assert not is_m_connected_k_dominating(g, combo, k, m).overall


    @pytest.mark.parametrize("cap", [0, -5, True, 2.0, "3"])
    def test_size_cap_must_be_positive_int(self, c6, cap):
        with pytest.raises(GraphInputError):
            brute_force_min_mcds(c6, 1, 1, size_cap=cap)

    def test_matches_plain_enumeration(self):
        # size, witness and count all agree with trying every subset in
        # order against the checkers: the count is the witness's rank,
        # skipped subtrees included
        feasible = 0
        for seed in range(2000):
            g = random_graph(seed, max_nodes=10, edge_bias=(1, 2, 4)[seed % 3])
            n = g.node_count
            k = 1 + seed % 4
            m = 1 + seed // 4 % 3
            cap = splitmix64(seed, 1000) % (n + 1) or None
            expected = naive_min_mcds(g, k, m, cap)
            assert brute_force_min_mcds(g, k, m, cap) == expected, (seed, k, m, cap)
            feasible += expected.feasible
        assert 500 < feasible < 1500
        # unit-disk graphs, denser and more regular than the above
        for n in (11, 12, 13):
            for k in (1, 2, 3):
                for m in (1, 2, 3):
                    g = random_geometric(n, 0.6, 10 * n + 3 * k + m).graph()
                    expected = naive_min_mcds(g, k, m)
                    assert brute_force_min_mcds(g, k, m) == expected, (n, k, m)

    @pytest.mark.parametrize("g, k, m, cap, size, witness, examined", [
        # vertex 4 hangs off K4 with degree 1 < k: it and its neighbour 0
        # are in every valid set, ranked 5 + 10 + 3
        (from_edge_list(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]),
         2, 1, None, 3, {0, 1, 4}, 18),
        # k above every degree: only the whole set, the last of 2**n - 1
        (complete_graph(5), 5, 3, None, 5, set(range(5)), 2**5 - 1),
        (path_graph(4), 3, 1, None, 4, set(range(4)), 2**4 - 1),
        # m = 1: a singleton has a member of degree 0 and still counts
        (star_graph(4), 1, 1, None, 1, {0}, 1),
        (complete_graph(1), 4, 1, None, 1, {0}, 1),
        # m >= 2: no set of at most m members qualifies
        (complete_graph(3), 1, 3, None, None, None, 2**3 - 1),
        (complete_graph(2), 1, 2, None, None, None, 2**2 - 1),
        (complete_graph(1), 1, 2, None, None, None, 1),
        (complete_graph(4), 1, 3, None, 4, set(range(4)), 2**4 - 1),
        # an isolated vertex is in every dominating set, and disconnects it
        (from_edge_list(4, [(0, 1), (1, 2)]), 1, 1, None, None, None, 2**4 - 1),
        # a cap below the optimum: every subset up to the cap, none valid
        (cycle_graph(6), 1, 1, 3, None, None, 6 + 15 + 20),
        (cycle_graph(6), 1, 2, 5, None, None, 2**6 - 2),
        (cycle_graph(6), 1, 2, 6, 6, set(range(6)), 2**6 - 1),
        # no nodes, so no set and no size to search
        (from_edge_list(0, []), 1, 1, None, None, None, 0),
    ])
    def test_hand_cases(self, g, k, m, cap, size, witness, examined):
        result = brute_force_min_mcds(g, k, m, cap)
        expected = OracleResult(size, None if witness is None else frozenset(witness), examined)
        assert result == expected
        assert naive_min_mcds(g, k, m, cap) == expected

    def test_degree_filter_spares_the_connectivity_search(self):
        # the member-degree test rejects almost every k-dominating set
        # before a breadth-first search runs: the oracle's 19 searches
        # make 6 850 calls here, against 120 568 for the removal BFSs on
        # every k-dominating set the id-order search reached without the
        # test.  The bound on what the picks left can add keeps counter
        # updates at 1 690 (bounded with a margin of about 300).  Calls
        # are counted by code object
        import plutus.verify

        g = random_geometric(18, 0.45, 10).graph()
        code = plutus.verify._mask_connected.__code__
        add_code = plutus.verify._add_vertex.__code__
        calls = adds = 0

        def profile(frame, event, arg):
            nonlocal calls, adds
            if event == "call" and frame.f_code is code:
                calls += 1
            elif event == "call" and frame.f_code is add_code:
                adds += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            result = brute_force_min_mcds(g, 2, 3)
        finally:
            sys.setprofile(previous)
        assert (result.optimum_size, result.sets_examined) == (11, 207_955)
        assert 0 < calls < 12_000
        assert 0 < adds < 2_000

    @pytest.mark.parametrize("n, seed, size, witness, examined", [
        (18, 2, 6, [0, 2, 5, 6, 13, 15], 15132),
        (18, 4, 8, [1, 2, 3, 4, 5, 6, 8, 16], 82469),
        (18, 10, 11, [0, 1, 3, 5, 7, 10, 13, 14, 15, 16, 17], 207955),
        (18, 12, 5, [7, 9, 12, 13, 14], 12274),
        (19, 2, 6, [0, 2, 5, 6, 13, 15], 19915),
        (19, 4, 8, [1, 2, 3, 4, 5, 6, 8, 16], 126026),
        (19, 10, 9, [2, 3, 5, 10, 13, 15, 16, 17, 18], 242523),
        (19, 11, 8, [0, 1, 2, 4, 8, 9, 11, 16], 96232),
        (20, 2, 6, [0, 2, 5, 6, 13, 15], 25833),
        (20, 4, 8, [1, 2, 3, 4, 5, 6, 8, 16], 188387),
        (20, 10, 8, [2, 3, 5, 10, 15, 17, 18, 19], 225069),
        (20, 11, 8, [0, 1, 2, 4, 8, 9, 11, 16], 140683),
    ])
    def test_benchmark_scale_optima(self, n, seed, size, witness, examined):
        # the small-oracle graphs of the benchmark, too large for plain
        # enumeration; each row as the search in node-id order gave it
        g = random_geometric(n, 0.45, seed).graph()
        expected = OracleResult(size, frozenset(witness), examined)
        assert brute_force_min_mcds(g, 2, 3) == expected

    def test_witness_walk_settles_every_node_below_its_query(self, monkeypatch):
        # one query per size until one is feasible, then each query of
        # the witness walk holds the nodes kept so far and the node v it
        # tries, and avoids every node below v that was refused.  (Not
        # avoiding them would change no answer, since a valid set that
        # held one would come before the witness, but would search them.)
        queries = []
        find_set = verify._find_set

        def spy(adjacency, order, k, m, size, forced=(), excluded=()):
            queries.append((size, list(forced), list(excluded)))
            return find_set(adjacency, order, k, m, size, forced, excluded)

        monkeypatch.setattr(verify, "_find_set", spy)
        cases = [(random_geometric(18, 0.45, 10).graph(), 2, 3)]
        cases += [(random_graph(seed, max_nodes=10), 1 + seed % 3, 1 + seed // 3 % 3)
                  for seed in range(200)]
        walks = 0
        for g, k, m in cases:
            queries.clear()
            result = brute_force_min_mcds(g, k, m)
            sizes = [size for size, forced, excluded in queries if not forced + excluded]
            assert sizes == list(range(1, len(sizes) + 1))
            walk = queries[len(sizes):]
            if not result.feasible:
                assert not walk
                continue
            assert sizes[-1] == result.optimum_size
            witness = result.optimum_witness
            for size, forced, excluded in walk:
                v = forced[-1]
                assert size == result.optimum_size
                assert forced[:-1] == sorted(witness & set(range(v)))
                assert sorted(forced[:-1] + excluded) == list(range(v))
            walks += bool(walk)
        assert walks > 50

    def test_one_query_answers_as_plain_enumeration(self):
        # the oracle's one search, asked for a valid set of a given size
        # that holds every node of ``forced`` and none of ``excluded``,
        # says yes exactly when some subset tried against the checkers
        # does, and a yes names such a subset
        answers = [0, 0]
        for seed in range(1500):
            g = random_graph(seed, max_nodes=10, edge_bias=(1, 2, 4)[seed % 3])
            n = g.node_count
            k = 1 + seed % 3
            m = 1 + seed // 3 % 3
            order = verify._cuthill_mckee(g.adjacency)
            assert sorted(order) == list(range(n))
            role = [splitmix64(seed, 2000 + v) % 4 for v in range(n)]
            forced = [v for v in range(n) if role[v] == 0]
            excluded = [v for v in range(n) if role[v] == 1]
            # every size from the forced nodes up, and one too many for
            # the nodes not excluded
            for size in range(max(1, len(forced)), n - len(excluded) + 2):
                valid = [
                    set(combo)
                    for combo in combinations(range(n), size)
                    if set(forced) <= set(combo)
                    and set(excluded).isdisjoint(combo)
                    and is_k_dominating(g, combo, k)[0]
                    and is_m_connected(g, combo, m)
                ]
                found = verify._find_set(g.adjacency, order, k, m, size, forced, excluded)
                members = {v for v in range(n) if found >> v & 1}
                assert members in valid if valid else found == 0, (seed, forced, excluded, size)
                answers[bool(valid)] += 1
        assert min(answers) > 1000, answers


class TestStructuredOracleTable:
    def test_known_optima(self):
        graphs = structured_graphs()
        expected = {
            ("P3", 1, 1): 1,
            ("P5", 1, 1): 3,
            ("C4", 1, 1): 2,
            ("C4", 1, 2): 4,
            ("C6", 1, 1): 4,
            ("K4", 1, 1): 1,
            ("K4", 2, 1): 2,
            ("K4", 2, 3): 4,
            ("K5", 3, 3): 4,
            ("K1,4", 1, 1): 1,
            ("W6", 1, 1): 1,
            ("W6", 1, 3): 6,
        }
        for (name, k, m), size in expected.items():
            result = brute_force_min_mcds(graphs[name], k, m)
            assert result.optimum_size == size, (name, k, m, result)
