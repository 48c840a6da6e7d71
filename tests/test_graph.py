from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plutus import (
    Graph,
    GraphInputError,
    PlutusConfig,
    SelfLoopError,
    from_edge_list,
    from_points,
    is_connected,
    is_m_connected,
    random_geometric,
    run_plutus,
    sustainability,
)
from plutus.geometry import splitmix64
from plutus.graph import (
    _BlockCutTree,
    _bad_points,
    _components,
    _connectivity_witness,
    _induced_rows,
    _lex_shortest_path,
    _local_blocks,
    _palm_tree,
)
from plutus.pipeline import _Excluding, _first_leaf

from .conftest import complete_graph, cycle_graph, path_graph, wheel_graph
from .helpers import (
    _distances_from,
    assert_tree_matches,
    induced_connected,
    local_adjacency,
    menger_m_connected,
    naive_bad_points,
    naive_block_cut_tree,
    naive_components,
    naive_disconnecting_set,
    naive_lex_shortest_path,
    naive_from_points,
    naive_lowest_bad_point,
    naive_m_connected,
    random_connected_graph,
    random_graph,
    relabel,
    sweep_bad_points,
    sweep_lowest_bad_point,
)

seeds = st.integers(min_value=0, max_value=10**9)
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)


@st.composite
def point_sets(draw):
    """Points and a radius: any finite floats, or lattice points a
    quarter radius apart (so many pairs sit at exactly the radius or on a
    cell border), optionally nudged by one ulp."""
    if draw(st.booleans()):
        return draw(st.lists(st.tuples(finite, finite), max_size=25)), draw(positive)
    radius = draw(positive)
    step = st.integers(min_value=-12, max_value=12)
    nudge = st.sampled_from([0.0, -math.inf, math.inf])
    points = []
    for i, j, d in draw(st.lists(st.tuples(step, step, nudge), max_size=25)):
        x = i * radius / 4
        point = (math.nextafter(x, d) if d else x, j * radius / 4)
        if all(map(math.isfinite, point)):
            points.append(point)
    return points, radius


GRID_CASES = {
    "exact-radius": ([(0.0, 0.0), (3.0, 4.0), (6.0, 8.0), (-3.0, -4.0), (3.0, -4.0)], 5.0),
    "axis-steps": ([(0.1 * i, 0.0) for i in range(-6, 7)] + [(0.0, 0.1 * i) for i in range(-6, 7)], 0.1),
    **{
        f"lattice-{r:.3g}": ([(i * r, j * r) for i in range(-4, 5) for j in range(-4, 5)], r)
        for r in (0.1, 0.25, 1 / 3, 7.0)
    },
    "cell-borders-nudged": (
        [(i * 0.1 + math.nextafter(0.0, d), j * 0.1)
         for i in range(-3, 4) for j in range(-3, 4) for d in (-1.0, 1.0)],
        0.1,
    ),
    "negative": (
        [(-5.5 - splitmix64(9, i) % 997 / 200, -0.5 - splitmix64(9, i + 99) % 991 / 300)
         for i in range(120)],
        0.45,
    ),
    "radius-beyond-box": (
        [(splitmix64(4, i) % 101 / 100, splitmix64(4, i + 50) % 103 / 100) for i in range(40)],
        10.0,
    ),
    "coincident": ([(0.5, 0.5)] * 4 + [(0.5, 0.75), (0.5, 0.75), (-0.5, 0.5)], 0.25),
    "huge-tiny-radius": (
        [(1e308, 1e308), (-1e308, -1e308), (1e308, -1e308), (1e308, 1e308),
         (1.7976931348623157e308, -1.7976931348623157e308), (0.0, 0.0), (1e-10, 0.0)],
        1e-10,
    ),
    "huge-adjacent-floats": (
        [(1e300, 1.0), (1e300, 1.0), (math.nextafter(1e300, math.inf), 1.0), (-1e300, 1.0)],
        1e-300,
    ),
    # the squared radius underflows to zero: the float test accepts pairs
    # whose squared differences underflow too, far beyond the radius
    "radius-squared-underflows": (
        [(0.0, 0.0), (1e-165, 0.0), (0.0, 3e-162), (1e-150, 1e-150), (-1e-163, 2e-163)],
        1e-170,
    ),
    # the squared radius overflows: every pair passes, even one whose
    # difference overflows
    "radius-squared-overflows": ([(1e308, 0.0), (-1e308, 0.0), (0.0, 1e308), (5.0, 5.0)], 1e200),
    "difference-overflows": ([(1.5e308, 0.0), (-1.5e308, 0.0), (1.5e308, 1e154)], 1e154),
}


@st.composite
def connected_graph(draw):
    """A random spanning tree in a random node order plus a few random
    edges, on up to 12 nodes: often a tree or close to one, so blocks
    often share their smallest member."""
    n = draw(st.integers(min_value=1, max_value=12))
    order = draw(st.permutations(range(n)))
    edges = [(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    node = st.integers(min_value=0, max_value=n - 1)
    extra = draw(st.lists(st.tuples(node, node), max_size=n))
    return from_edge_list(n, edges + [(u, v) for u, v in extra if u != v])


class TestFromEdgeList:
    def test_path(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.node_count == 3
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_single_isolated_node(self):
        g = from_edge_list(1, [])
        assert g.node_count == 1
        assert g.adjacency == ((),)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            from_edge_list(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphInputError):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(GraphInputError):
            from_edge_list(3, [(-1, 2)])

    def test_duplicates_collapse(self):
        g = from_edge_list(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    @given(seeds)
    @settings(max_examples=40)
    def test_adjacency_symmetric_and_simple(self, seed):
        g = random_graph(seed)
        for u in range(g.node_count):
            assert u not in g.adjacency[u]
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]
            assert list(g.adjacency[u]) == sorted(set(g.adjacency[u]))


class TestFromPoints:
    def test_edge_at_exact_radius(self):
        g = from_points([(0.0, 0.0), (1.0, 0.0)], 1.0)
        assert 1 in g.adjacency[0]

    def test_no_edge_just_past_radius(self):
        g = from_points([(0.0, 0.0), (1.01, 0.0)], 1.0)
        assert 1 not in g.adjacency[0]

    def test_collinear_points_make_path(self):
        # pairwise distances: (0,1)=1, (1,2)=1, (0,2)=2
        g = from_points([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 1.0)
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_non_finite_rejected(self):
        with pytest.raises(GraphInputError):
            from_points([(0.0, float("nan"))], 1.0)
        with pytest.raises(GraphInputError):
            from_points([(float("inf"), 0.0)], 1.0)
        with pytest.raises(GraphInputError):
            from_points([(10**400, 0.0)], 1.0)  # an int beyond the float range

    @pytest.mark.parametrize("bad, shown", [
        (True, "True"), (math.nan, "nan"), ("1", "'1'"), (10**400, "1" + "0" * 400),
    ])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_bad_coordinate_message(self, bad, shown, axis):
        point = [bad, 0.25] if axis == "x" else [0.25, bad]
        with pytest.raises(GraphInputError) as exc:
            from_points([[0.0, 0.5], point], 0.5)
        assert str(exc.value) == f"point 1 {axis} must be a finite real number, got {shown}"

    def test_bad_radius_rejected(self):
        with pytest.raises(GraphInputError):
            from_points([(0.0, 0.0)], 0.0)

    def test_more_points_than_the_node_limit_rejected(self):
        # a range has a length but no points to allocate
        from plutus.graph import NODE_LIMIT

        with pytest.raises(GraphInputError, match="above the limit"):
            from_points(range(NODE_LIMIT + 1), 0.1)

    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_grid_matches_pairwise_scan(self, case):
        points, radius = GRID_CASES[case]
        assert from_points(points, radius) == naive_from_points(points, radius)

    def test_extreme_radii_follow_the_float_test(self):
        tiny = from_points([(0.0, 0.0), (1e-165, 0.0), (1.0, 0.0)], 1e-170)
        assert tiny.edge_count() == 1 and 1 in tiny.adjacency[0]
        huge = from_points([(1e308, 0.0), (-1e308, 0.0), (0.0, 1e308)], 1e200)
        assert huge.edge_count() == 3
        far = from_points([(1e308, 1e308), (-1e308, -1e308), (1e308, 1e308)], 1e-10)
        assert far.edge_count() == 1 and 2 in far.adjacency[0]

    @given(point_sets())
    @settings(max_examples=300, deadline=None)
    def test_grid_matches_pairwise_scan_on_any_points(self, case):
        points, radius = case
        assert from_points(points, radius) == naive_from_points(points, radius)


def path_between(g: Graph, u: int, v: int, blocked=()) -> list[int] | None:
    """The one path search from u to v, internal vertices outside ``blocked``."""
    return _lex_shortest_path(g, (u,), (v,), blocked)


def hops(g: Graph, u: int, v: int) -> int | None:
    path = path_between(g, u, v)
    return None if path is None else len(path) - 1


class TestHopDistance:
    def test_path_ends(self, p3):
        assert hops(p3, 0, 2) == 2

    def test_same_node(self, c6):
        assert hops(c6, 3, 3) == 0

    def test_cycle_antipodes(self, c6):
        assert hops(c6, 0, 3) == 3

    def test_unreachable(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        assert hops(g, 0, 3) is None

    @given(seeds)
    @settings(max_examples=30)
    def test_triangle_inequality(self, seed):
        g = random_graph(seed, max_nodes=7)
        n = g.node_count
        dist = [[hops(g, u, v) for v in range(n)] for u in range(n)]
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    if None in (dist[u][v], dist[v][w], dist[u][w]):
                        continue
                    assert dist[u][w] <= dist[u][v] + dist[v][w]


class TestShortestPath:
    def test_internal_constraint_forces_detour(self, c4):
        assert path_between(c4, 0, 2, {0, 1, 2}) == [0, 3, 2]

    def test_forbidden_cuts_only_route(self, p3):
        assert path_between(p3, 0, 2, {1}) is None

    def test_adjacent_endpoints(self, k4):
        assert path_between(k4, 1, 3) == [1, 3]

    def test_lexicographic_tie_break(self, c4):
        # both 0-1-2 and 0-3-2 are shortest; the smaller sequence wins
        assert path_between(c4, 0, 2) == [0, 1, 2]

    def test_same_endpoint(self, p3):
        assert path_between(p3, 1, 1) == [1]

    @given(seeds)
    @settings(max_examples=30)
    def test_path_is_shortest_and_valid(self, seed):
        g = random_graph(seed)
        for u in range(g.node_count):
            dist = _distances_from(g, u, lambda x: True)
            for v in range(u + 1, g.node_count):
                path = path_between(g, u, v)
                if dist[v] is None:
                    assert path is None
                    continue
                assert path[0] == u and path[-1] == v
                assert len(path) - 1 == dist[v]
                for a, b in zip(path, path[1:]):
                    assert b in g.adjacency[a]

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_simple_path_enumeration(self, data):
        seed = data.draw(seeds)
        g = random_connected_graph(seed) if data.draw(st.booleans()) else random_graph(seed)
        nodes = st.integers(0, g.node_count - 1)
        u, v = data.draw(nodes), data.draw(nodes)
        forbidden = data.draw(st.sets(nodes)) - {u, v}
        constraint = data.draw(st.none() | st.sets(nodes))
        blocked = forbidden | (set() if constraint is None else set(range(g.node_count)) - constraint)
        expected = naive_lex_shortest_path(g, (u,), (v,), lambda x: x not in blocked)
        assert path_between(g, u, v, blocked) == expected

    @given(st.data())
    @settings(max_examples=300)
    def test_source_and_target_sets_match_simple_path_enumeration(self, data):
        seed = data.draw(seeds)
        g = random_connected_graph(seed) if data.draw(st.booleans()) else random_graph(seed)
        nodes = st.integers(0, g.node_count - 1)
        sources, targets = data.draw(st.sets(nodes)), data.draw(st.sets(nodes))
        blocked = set(range(g.node_count)) - data.draw(st.sets(nodes))
        expected = naive_lex_shortest_path(g, sources, targets, lambda x: x not in blocked)
        assert _lex_shortest_path(g, sources, targets, blocked) == expected

    def test_nearest_source_found_last_still_wins(self):
        # 4 is discovered (through 1) before 3 (through 2); both are at
        # distance 2 and the smaller id starts the path
        g = from_edge_list(5, [(0, 1), (0, 2), (1, 4), (2, 3)])
        assert _lex_shortest_path(g, {3, 4}, {0}, ()) == [3, 2, 0]


class AskedNothing:
    """A blocked set that holds nothing and records every vertex tested."""

    def __init__(self):
        self.asked = []

    def __contains__(self, x):
        self.asked.append(x)
        return False


class TestLexShortestPath:
    """The one path search runs from the side its sources pick: a forward
    BFS from listed sources, and the backward BFS from the targets when
    the sources are given as a membership test (an object with ``in`` but
    no length).  Both give the path that simple-path enumeration finds."""

    @given(st.data())
    @settings(max_examples=300)
    def test_every_size_order_matches_simple_path_enumeration(self, data):
        # each example runs with fewer, as many and more sources than
        # targets, the sets overlapping or not, a target reachable or not,
        # and with the sources listed and given as a membership test
        seed = data.draw(seeds)
        g = random_connected_graph(seed) if data.draw(st.booleans()) else random_graph(seed)
        nodes = st.integers(0, g.node_count - 1)
        small, large = sorted((data.draw(st.sets(nodes)), data.draw(st.sets(nodes))), key=len)
        if data.draw(st.booleans()):
            small = set(sorted(small)[1:]) | set(sorted(large)[:1])  # share a vertex
        equal = set(sorted(large)[: len(small)])
        blocked = set(range(g.node_count)) - data.draw(st.sets(nodes))
        for sources, targets in (
            (small, large), (large, small), (small, equal), (equal, small), (large, large),
        ):
            expected = naive_lex_shortest_path(g, sources, targets, lambda x: x not in blocked)
            assert _lex_shortest_path(g, sources, targets, blocked) == expected
            tested = _Excluding(sources, ())
            assert _lex_shortest_path(g, tested, targets, blocked) == expected

    def test_search_runs_from_the_listed_side(self):
        # a path 0 - 1 - ... - 99 with a target two steps from source 0 and
        # fifty far away: only vertex 1 is ever tested against the blocked
        # set, whether the fifty are listed targets of the listed source 0
        # or sources given as a membership test, searched back from target 0
        g = path_graph(100)
        many = {2, *range(50, 100)}
        for sources, targets, expected in (
            ({0}, many, [0, 1, 2]), (_Excluding(many, ()), {0}, [2, 1, 0]),
        ):
            blocked = AskedNothing()
            assert _lex_shortest_path(g, sources, targets, blocked) == expected
            assert blocked.asked == [1]

    def test_forward_tie_ends_where_the_smallest_walk_ends(self):
        # 5 and 6 are both two steps from source 0; the smallest walk
        # 0 - 1 - 6 ends at the larger of the two targets
        g = from_edge_list(10, [(0, 1), (0, 2), (1, 6), (2, 5)])
        for blocked in ((), set(range(10)) - {1, 2}):
            assert _lex_shortest_path(g, {0}, {5, 6, 9}, blocked) == [0, 1, 6]
            allowed = lambda x: x not in blocked
            assert naive_lex_shortest_path(g, {0}, {5, 6, 9}, allowed) == [0, 1, 6]
        assert _lex_shortest_path(g, {0}, {5, 6, 9}, set(range(10)) - {2}) == [0, 2, 5]

    def test_forward_marks_one_layer_at_a_time(self):
        # sources iterate as 8, 1, so layer 1 is [3, 2]; 2 lies beside the
        # marked 3 in its own layer but on no shortest path, and a walk
        # from 1 through 2 would find no next step
        g = from_edge_list(9, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 8)])
        assert list(frozenset({1, 8})) == [8, 1]
        assert _lex_shortest_path(g, {1, 8}, {4, 5, 6}, ()) == [1, 3, 4]

    def test_forward_overlap_and_unreachable_targets(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (3, 4)])
        # a source that is a target is the whole path, the smallest such
        assert _lex_shortest_path(g, {1, 4}, {0, 1, 2, 4, 5}, ()) == [1]
        # 3 and 4 are cut off, 5 is isolated, and 1 is blocked inside
        assert _lex_shortest_path(g, {3}, {0, 2, 5}, ()) is None
        assert _lex_shortest_path(g, {0}, {2, 3, 5}, {1}) is None
        assert _lex_shortest_path(g, {0}, {2, 3, 5}, ()) == [0, 1, 2]


def blocks_by_id(g: Graph, subset) -> tuple[list[list[int]] | None, set[int]]:
    """The blocks and cut vertices :func:`_local_blocks` reads from the
    rows of ``subset`` indexed by node id: the blocks as sorted id lists in
    sorted order, the order of :func:`naive_block_cut_tree`, or None when
    the subset is disconnected.  On the reference local adjacency the same
    pass must give the same blocks, in the same order, and cut vertices."""
    nodes = sorted(set(subset))
    found, cut = _local_blocks(_induced_rows(g, nodes), nodes)
    local, local_cut = _local_blocks(local_adjacency(g, nodes), range(len(nodes)))
    assert found == (None if local is None else [[nodes[v] for v in b] for b in local])
    assert cut == {nodes[v] for v in local_cut}
    return (None if found is None else sorted(sorted(b) for b in found)), cut


def leaf_pick(g: Graph, subset) -> set[int]:
    """The leaf block the pipeline repairs in a round on ``subset``, picked
    from the blocks that meet the cut vertices once."""
    blocks, cut = blocks_by_id(g, subset)
    leaves = [b for b in blocks if len(cut.intersection(b)) == 1]
    return _first_leaf(leaves, cut)[0]


def assert_matches_naive(g: Graph, subset) -> tuple[list[list[int]], set[int]]:
    """:func:`blocks_by_id` of a connected ``subset`` against
    :func:`naive_block_cut_tree`: the same blocks and cut vertices, and
    the pipeline's leaf pick is the naive first leaf block.  Returns
    the blocks and cut vertices."""
    blocks, cut = blocks_by_id(g, subset)
    tree = naive_block_cut_tree(g, subset)
    assert [frozenset(b) for b in blocks] == list(tree.blocks)
    assert cut == tree.cut_vertices
    if tree.leaf_blocks:
        assert leaf_pick(g, subset) == tree.leaf_blocks[0]
    return blocks, cut


class TestBlockCutTree:
    def test_induced_path(self, p3):
        assert assert_matches_naive(p3, {0, 1, 2}) == ([[0, 1], [1, 2]], {1})
        assert naive_block_cut_tree(p3, {0, 1, 2}).leaf_blocks == ({0, 1}, {1, 2})

    def test_triangle_single_block(self):
        g = complete_graph(3)
        assert assert_matches_naive(g, range(3)) == ([[0, 1, 2]], set())
        assert naive_block_cut_tree(g, range(3)).leaf_blocks == ()

    def test_two_triangles_sharing_a_vertex(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert assert_matches_naive(g, range(5)) == ([[0, 1, 2], [2, 3, 4]], {2})
        assert len(naive_block_cut_tree(g, range(5)).leaf_blocks) == 2
        assert leaf_pick(g, range(5)) == {0, 1, 2}

    def test_disconnected_subset_rejected(self, p5):
        assert blocks_by_id(p5, {0, 4}) == (None, set())

    def test_singleton_subset(self, p5):
        assert assert_matches_naive(p5, {2}) == ([[2]], set())
        assert naive_block_cut_tree(p5, {2}).leaf_blocks == ()

    def test_cut_vertices_match_removal_on_midsize_instance(self):
        g = random_geometric(50, 0.22, 3).graph()
        for comp in _components(g, range(g.node_count)):
            if len(comp) == 1:
                continue
            _, cut = blocks_by_id(g, comp)
            for v in comp:
                rest = set(comp) - {v}
                removal_splits = len(_components(g, sorted(rest))) > 1
                assert (v in cut) == removal_splits

    @given(seeds)
    @settings(max_examples=40)
    def test_edges_partition_and_cut_vertices_match_removal(self, seed):
        g = random_graph(seed)
        for comp in _components(g, range(g.node_count)):
            blocks, cut = blocks_by_id(g, comp)
            in_block = sum(
                sum(1 for u in block for v in g.adjacency[u] if v in block and v > u)
                for block in blocks
            )
            induced_edges = sum(
                1 for u in comp for v in g.adjacency[u] if v in comp and v > u
            )
            assert in_block == induced_edges
            # cut vertex iff removing it disconnects the component
            for v in comp:
                rest = set(comp) - {v}
                if not rest:
                    continue
                removal_splits = len(_components(g, sorted(rest))) > 1
                assert (v in cut) == removal_splits

    def test_blocks_sharing_their_smallest_member(self):
        # three blocks meet at 0.  The DFS enters them through 0's
        # neighbours 2, 4 and 6 in that order, but the 4-cycle's second
        # member is 3, so it must sort before the triangle {0, 4, 5}
        edges = [(0, 6), (6, 3), (3, 7), (7, 0), (0, 4), (4, 5), (5, 0), (0, 2), (1, 5)]
        g = from_edge_list(8, edges)
        assert assert_matches_naive(g, range(8)) == (
            [[0, 2], [0, 3, 6, 7], [0, 4, 5], [1, 5]], {0, 5},
        )
        tree = naive_block_cut_tree(g, range(8))
        assert tree.leaf_blocks == ({0, 2}, {0, 3, 6, 7}, {1, 5})
        assert leaf_pick(g, range(8)) == {0, 2}
        for order in ([0, 7, 6, 5, 4, 3, 2, 1], [0, 3, 5, 1, 6, 2, 7, 4]):
            h = relabel(g, order)
            assert_matches_naive(h, range(8))

    @given(connected_graph())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_blocks_with_every_skip(self, g):
        n = g.node_count
        nodes = list(range(n))
        assert_matches_naive(g, nodes)
        # the plain block lists of every one-vertex-deleted subgraph and the
        # cut vertices read off the same pass of the graph's own adjacency
        for skip in range(n):
            rest = [v for v in nodes if v != skip]
            if not rest:
                continue
            blocks, cut = _local_blocks(g.adjacency, rest)
            if induced_connected(g, set(rest)):
                tree = naive_block_cut_tree(g, rest)
                ids = [frozenset(block) for block in blocks]
                assert sorted(ids, key=sorted) == list(tree.blocks)
                assert cut == tree.cut_vertices
            else:
                assert blocks is None and cut == set()


def _grow_tree(g: Graph, start, order) -> None:
    """Build the incremental block-cut tree from the block DFS of the
    connected set ``start``, then join each vertex of ``order`` with its
    neighbours in the set so far, checking the tree after every join."""
    nodes = sorted(set(start))
    blocks, _ = _local_blocks(_induced_rows(g, nodes), nodes)
    tree = _BlockCutTree(blocks, g.node_count)
    joined = set(nodes)
    assert_tree_matches(g, tree, joined)
    for x in order:
        near = [w for w in g.adjacency[x] if w in joined]
        tree.add(x, near)
        joined.add(x)
        assert_tree_matches(g, tree, joined)


def _join_order(g: Graph, start, pick) -> list[int]:
    """The vertices of ``start``'s component outside it, each adjacent
    to the set before it: ``pick(frontier)`` names the next one."""
    joined, order = set(start), []
    frontier = sorted({y for x in joined for y in g.adjacency[x]} - joined)
    while frontier:
        x = pick(frontier)
        order.append(x)
        joined.add(x)
        frontier = sorted((set(frontier) | set(g.adjacency[x])) - joined)
    return order


class TestIncrementalBlockCutTree:
    """The tree that diversification keeps, against the block DFS and the
    block twin after every vertex that joins, its first leaf included."""

    def test_pendant_on_a_lone_block_makes_both_leaves(self):
        # the triangle is the only block until 3 hangs off 2, and then
        # it is a leaf; 4 closes 2-3-4 into a second block
        g = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        _grow_tree(g, {0, 1, 2}, [3, 4])

    def test_root_turns_cut_and_back(self):
        # pendants at the root 0 make it a cut vertex, and 3, adjacent to
        # both, merges the two root blocks back into one
        g = from_edge_list(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        _grow_tree(g, {0}, [1, 2, 3])

    @given(seeds, st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_graphs(self, seed, data):
        g = random_graph(seed, max_nodes=12)
        component = max(_components(g, range(g.node_count)), key=len)
        start = [data.draw(st.sampled_from(component))]
        for x in start:
            start += [y for y in g.adjacency[x] if y not in start]
        start = start[: data.draw(st.integers(1, len(start)))]
        order = _join_order(g, start, lambda frontier: data.draw(st.sampled_from(frontier)))
        _grow_tree(g, start, order)

    @pytest.mark.parametrize("n, radius, seed", [(60, 0.25, 16), (120, 0.16, 22)])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_unit_disk_subsets(self, n, radius, seed, shuffled):
        g = random_geometric(n, radius, seed).graph()
        if shuffled:
            g = relabel(g, sorted(range(n), key=lambda v: splitmix64(seed, v)))
        assert is_connected(g)
        # a synergy backbone and a BFS prefix of a third of the graph,
        # grown by the vertices in a pseudo-random frontier order
        backbone = run_plutus(g, PlutusConfig(k=1, m=1)).dominating_set
        prefix = [n // 2]
        for x in prefix:
            prefix += [y for y in g.adjacency[x] if y not in prefix]
        for start in (backbone, prefix[: n // 3]):
            order = _join_order(g, start, lambda f: f[splitmix64(seed, len(f)) % len(f)])
            _grow_tree(g, start, order)


class TestIsMConnected:
    def test_triangle_two_connected(self):
        assert is_m_connected(complete_graph(3), range(3), 2)

    def test_path_not_two_connected(self, p3):
        assert not is_m_connected(p3, range(3), 2)

    def test_k4_three_connected(self, k4):
        assert is_m_connected(k4, range(4), 3)

    def test_small_sets_fail_higher_m(self, k4):
        assert is_m_connected(k4, {0}, 1)
        assert not is_m_connected(k4, {0}, 2)
        assert not is_m_connected(k4, {0, 1}, 2)
        assert not is_m_connected(k4, {0, 1, 2}, 3)

    def test_invalid_m(self, k4):
        with pytest.raises(GraphInputError):
            is_m_connected(k4, {0, 1}, 4)

    @given(seeds, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_removal_and_menger(self, seed, m):
        g = random_graph(seed, max_nodes=8)
        subset = [v for v in range(g.node_count) if splitmix_pick(seed, v)]
        if not subset:
            subset = [0]
        got = is_m_connected(g, subset, m)
        assert got == naive_m_connected(g, subset, m)
        assert got == menger_m_connected(g, subset, m)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_m(self, seed):
        g = random_graph(seed, max_nodes=8)
        subset = list(range(g.node_count))
        values = [is_m_connected(g, subset, m) for m in (1, 2, 3)]
        for lower, higher in zip(values, values[1:]):
            assert higher <= lower

    def test_m1_is_connectivity(self, p5):
        assert is_m_connected(p5, range(5), 1) == is_connected(p5)
        assert is_m_connected(p5, {2}, 1)


def splitmix_pick(seed: int, v: int) -> bool:
    from plutus.geometry import splitmix64

    return splitmix64(seed ^ 0xABCDEF, v) % 2 == 0


def prism_graph(rungs: int) -> Graph:
    """Two cycles 0..r-1 and r..2r-1 joined by the rungs (i, i + r)."""
    r = rungs
    edges = [(i, (i + 1) % r) for i in range(r)]
    edges += [(r + i, r + (i + 1) % r) for i in range(r)]
    edges += [(i, i + r) for i in range(r)]
    return from_edge_list(2 * r, edges)


def moebius_ladder(rungs: int) -> Graph:
    """A 2r-cycle with the long diagonals (i, i + r)."""
    n = 2 * rungs
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + rungs) for i in range(rungs)]
    return from_edge_list(n, edges)


def ladder_graph(rungs: int) -> Graph:
    """Two paths 0..r-1 and r..2r-1 joined by the rungs (i, i + r)."""
    r = rungs
    edges = [(i, i + 1) for i in range(r - 1)] + [(r + i, r + i + 1) for i in range(r - 1)]
    edges += [(i, i + r) for i in range(r)]
    return from_edge_list(2 * r, edges)


def place_pair(g: Graph, pair: tuple[int, int], slots: tuple[int, int]) -> Graph:
    """Relabel g so that ``pair`` takes the new ids ``slots``; the other
    nodes keep their relative order.  Node 0 is the root of the DFS."""
    rest = iter(v for v in range(g.node_count) if v not in pair)
    order = []
    for i in range(g.node_count):
        order.append(pair[slots.index(i)] if i in slots else next(rest))
    return relabel(g, order)


def _not_triconnected_families() -> dict[str, tuple[Graph, tuple[int, int]]]:
    """Graphs that are 2- but not 3-connected, each with one separation pair."""
    k5_pair = from_edge_list(
        8,
        [(u, v) for block in (range(5), range(3, 8)) for u in block for v in block if u < v],
    )
    cycle = [(i, (i + 1) % 10) for i in range(10)]
    return {
        "open-ladder": (ladder_graph(6), (2, 8)),
        "k5-k5-on-a-pair": (k5_pair, (3, 4)),
        "cycle-with-chord-pair": (from_edge_list(10, cycle + [(0, 5), (3, 8)]), (0, 2)),
        "k5-on-a-prism-edge": (
            from_edge_list(
                11, [*prism_graph(4).edges()] + [(u + 6, v + 6) for u, v in complete_graph(5).edges()]
            ),
            (6, 7),
        ),
    }


PAIR_SLOTS = {
    "lowest": lambda n: (0, 1),
    "highest": lambda n: (n - 2, n - 1),
    "root-and-last": lambda n: (0, n - 1),
    "middle": lambda n: (n // 3, 2 * n // 3),
}


@st.composite
def ring_with_chords(draw):
    """A cycle in a random node order plus random chords: 2-connected,
    often 3-connected, and rich in separation pairs of both kinds."""
    n = draw(st.integers(min_value=4, max_value=14))
    order = draw(st.permutations(range(n)))
    ring = [(order[i], order[(i + 1) % n]) for i in range(n)]
    node = st.integers(min_value=0, max_value=n - 1)
    chords = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    return from_edge_list(n, ring + [(u, v) for u, v in chords if u != v])


@st.composite
def sparse_graph(draw):
    """Any graph on up to 14 nodes with at most 3n edges."""
    n = draw(st.integers(min_value=1, max_value=14))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return from_edge_list(n, [(u, v) for u, v in pairs if u != v])


class TestTriconnectivity:
    """The m = 3 test of is_m_connected against the removal-subset and
    path-counting references and against the bad-point sweep."""

    @given(st.one_of(ring_with_chords(), sparse_graph()), st.integers(0, 2**16))
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_removal_and_menger(self, g, pick):
        subset = [v for v in range(g.node_count) if not (pick >> v) & 1 or v < 4]
        got = is_m_connected(g, subset, 3)
        assert got == naive_m_connected(g, subset, 3)
        assert got == menger_m_connected(g, subset, 3)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_small_graph(self, n):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = from_edge_list(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            assert is_m_connected(g, range(n), 3) == naive_m_connected(g, range(n), 3)

    @pytest.mark.parametrize("size", range(3, 8))
    @pytest.mark.parametrize("family", [wheel_graph, prism_graph, moebius_ladder])
    def test_triconnected_families(self, family, size):
        g = family(size)
        n = g.node_count
        shuffled = sorted(range(n), key=lambda v: splitmix64(size, v))
        for order in (list(range(n)), list(range(n))[::-1], shuffled):
            h = relabel(g, order)
            assert is_m_connected(h, range(n), 3)
            assert naive_m_connected(h, range(n), 3)

    @pytest.mark.parametrize("slots", sorted(PAIR_SLOTS))
    @pytest.mark.parametrize("family", sorted(_not_triconnected_families()))
    def test_separation_pair_anywhere(self, family, slots):
        g, pair = _not_triconnected_families()[family]
        n = g.node_count
        target = PAIR_SLOTS[slots](n)
        h = place_pair(g, pair, target)
        assert not is_connected(h, set(range(n)) - set(target))
        assert is_m_connected(h, range(n), 2)
        assert not is_m_connected(h, range(n), 3)
        assert not naive_m_connected(h, range(n), 3)

    @pytest.mark.parametrize("n, radius, seed", [
        (200, 0.15, 1), (200, 0.15, 3), (200, 0.15, 5), (300, 0.12, 2), (500, 0.1, 1),
        (500, 0.1, 2),
    ])
    def test_relabelled_unit_disk_graphs_match_sweep(self, n, radius, seed):
        g = random_geometric(n, radius, seed).graph()
        h = relabel(g, sorted(range(n), key=lambda v: splitmix64(seed, v)))
        for graph in (g, h):
            expected = sweep_lowest_bad_point(graph, range(n)) is None
            assert is_m_connected(graph, range(n), 3) == expected

    def test_stack_slot_restored_on_backtrack(self):
        # {8, 9} is the only separation pair.  It is found in a later
        # subtree of the DFS only if the candidate-stack slot a deeper
        # vertex of an earlier subtree overwrote is restored on backtrack
        # (a minimal graph found by search)
        g = from_edge_list(11, [
            (0, 8), (0, 9), (1, 2), (1, 8), (1, 9), (2, 4), (2, 10), (3, 5), (3, 8),
            (3, 10), (4, 6), (4, 10), (5, 7), (5, 10), (6, 7), (6, 9), (7, 10),
        ])
        assert not is_connected(g, set(range(11)) - {8, 9})
        assert is_m_connected(g, range(11), 2)
        assert not is_m_connected(g, range(11), 3)
        # the two members of that pair are the only bad points
        assert lowest_bad_point(g) == 8 == naive_lowest_bad_point(g, range(11))
        assert lowest_bad_point(relabel(g, [8] + [v for v in range(11) if v != 8])) == 0
        assert lowest_bad_point(relabel(g, [v for v in range(11) if v != 9] + [9])) == 8

    def test_deep_dfs_needs_no_recursion(self):
        # the DFS from node 0 walks around both rims, so its depth is
        # about n, far beyond the interpreter's recursion limit
        rungs = 2500
        n = 2 * rungs
        prism = prism_graph(rungs)
        broken = from_edge_list(n, [e for e in prism.edges() if e != (rungs // 2, rungs // 2 + rungs)])
        assert is_m_connected(prism, range(n), 3)
        assert not is_m_connected(ladder_graph(rungs), range(n), 3)
        assert not is_m_connected(broken, range(n), 3)
        # a path and a cycle of 5000 vertices: the DFS is one long root path
        nodes = list(range(n))
        path, cycle = path_graph(n), cycle_graph(n)
        blocks, cut = blocks_by_id(path, nodes)
        assert (len(blocks), len(cut)) == (n - 1, n - 2)
        assert sum(len(cut.intersection(b)) == 1 for b in blocks) == 2
        assert leaf_pick(path, nodes) == {0, 1}
        assert blocks_by_id(cycle, nodes) == ([nodes], set())
        for g, at_two in ((path, (1,)), (cycle, None)):
            assert disconnecting_set(g, nodes, 2) == at_two
            assert disconnecting_set(g, nodes, 3) == (0, 2)


def bad_points(g: Graph, subset=None) -> list[int] | None:
    """The separation-pair engine's bad points, read from the graph's own
    adjacency (None on a set of four or more that is not 2-connected).  On
    a subset the engine runs on the rows indexed by node id and on the
    reference local adjacency, and both must name the same vertices and
    record the same partner map."""
    if subset is None:
        return _bad_points(g.adjacency, range(g.node_count))[0]
    nodes = sorted(subset)
    bad, partners = _bad_points(_induced_rows(g, nodes), nodes)
    local, local_partners = _bad_points(local_adjacency(g, nodes), range(len(nodes)))
    assert bad == (None if local is None else [nodes[v] for v in local])
    assert partners == (
        None if local_partners is None
        else {nodes[a]: {nodes[b] for b in row} for a, row in local_partners.items()}
    )
    return bad


def lowest_bad_point(g: Graph, subset=None) -> int | None:
    """The first of :func:`bad_points`, or None when there is none; on a
    set that is not 2-connected, which the engine leaves to
    :func:`_connectivity_witness`, the first member of its m = 3 witness."""
    bad = bad_points(g, subset)
    if bad is None:
        nodes = list(range(g.node_count)) if subset is None else sorted(subset)
        return disconnecting_set(g, nodes, 3)[0]
    return next(iter(bad), None)


def disconnecting_set(g: Graph, nodes: list[int], m: int) -> tuple[int, ...] | None:
    """The ids of the witness :func:`_connectivity_witness` gives for a set
    of more than m ``nodes`` at m = 2 or 3, None when it is m-connected."""
    witness = _connectivity_witness(g, nodes, m)
    if witness is None:
        return None
    assert witness[0] == "disconnecting-set"
    return witness[1]


def every_graph(n: int):
    """Every labelled graph on n nodes."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield from_edge_list(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def every_graph_by_degree(n: int):
    """Every graph on n nodes up to isomorphism, each at least once: the
    labelled graphs whose degrees do not increase with the node id.  The
    masks are split into two halves whose packed degree vectors (four bits
    per node) are tabulated, so only the sums need testing."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    weights = [(1 << 4 * u) + (1 << 4 * v) for u, v in pairs]
    half = len(pairs) // 2

    def sums(ws):
        out = [0]
        for w in ws:
            out += [x + w for x in out]
        return out

    sorted_degrees = set()
    for degrees in itertools.combinations_with_replacement(range(n), n):
        sorted_degrees.add(sum(d << 4 * i for i, d in enumerate(sorted(degrees, reverse=True))))
    low_sums = sums(weights[:half])
    for high, high_sum in enumerate(sums(weights[half:])):
        for low, low_sum in enumerate(low_sums):
            if high_sum + low_sum in sorted_degrees:
                mask = high << half | low
                yield from_edge_list(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


class TestLowestBadPoint:
    """The lowest bad point named by the separation-pair engine (every bad
    point on the 2-connected graphs of up to seven nodes) against the
    removal-subset reference, and every bad point on large graphs against
    a sweep of the public m = 2 test."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_small_graph(self, n):
        # and every bad point of each 2-connected one
        for g in every_graph(n):
            assert lowest_bad_point(g) == naive_lowest_bad_point(g, range(n))
            if is_m_connected(g, range(n), 2):
                assert bad_points(g) == naive_bad_points(g, range(n))

    def test_every_two_connected_graph_on_seven_nodes(self):
        # each graph in a labelling with degrees falling and one with them
        # rising, so the DFS root is once a busiest and once a quietest node
        checked = 0
        for g in every_graph_by_degree(7):
            if not is_m_connected(g, range(7), 2):
                continue
            checked += 1
            assert bad_points(g) == naive_bad_points(g, range(7))
            h = relabel(g, list(range(6, -1, -1)))
            assert bad_points(h) == naive_bad_points(h, range(7))
        assert checked > 468  # the number of 2-connected graphs on 7 nodes

    @given(ring_with_chords())
    @settings(max_examples=300, deadline=None)
    def test_rings_with_chords(self, g):
        n = g.node_count
        assert lowest_bad_point(g) == naive_lowest_bad_point(g, range(n))

    @given(sparse_graph())
    @settings(max_examples=200, deadline=None)
    def test_any_graph_gets_a_bad_point_or_is_triconnected(self, g):
        # exact on graphs that are not 2-connected too
        n = g.node_count
        assume(n >= 1)
        bad = lowest_bad_point(g)
        assert bad == naive_lowest_bad_point(g, range(n))
        if bad is None:
            assert naive_m_connected(g, range(n), 3)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)],  # 0 pendant on the 4-cycle 1-2-3-4
        [(u, v) for u in range(1, 5) for v in range(u + 1, 5)],  # 0 isolated beside K4
    ])
    def test_second_lowest_when_the_rest_is_two_connected(self, edges):
        # the one vertex whose removal leaves a 2-connected rest is 0, so
        # the lowest bad point is 1, and (1, 2) is the first disconnecting pair
        g = from_edge_list(5, edges)
        assert is_m_connected(g, range(1, 5), 2)
        assert lowest_bad_point(g) == 1 == naive_lowest_bad_point(g, range(5))
        assert naive_disconnecting_set(g, range(5), 3) == (1, 2)

    def test_not_two_connected_exit_costs_at_most_three_palm_trees(self, monkeypatch):
        # a graph with a cut vertex: after the engine's palm tree, vertex 0
        # with two neighbours is pinned at once, and one tree of the rest
        # names its partner; a pendant vertex 0 leaves a 2-connected rest,
        # so a third tree, without 1, names the witness.  No block search.
        import plutus.graph

        trees = []
        blocks = []
        palm_tree = plutus.graph._palm_tree
        local_blocks = plutus.graph._local_blocks

        def counting(adj, members, fronds=None):
            # the adjacency read and the vertices of the set left out
            trees.append((adj, [v for v in range(5) if v not in members]))
            return palm_tree(adj, members, fronds)

        def counting_blocks(adj, members):
            blocks.append(members)
            return local_blocks(adj, members)

        monkeypatch.setattr(plutus.graph, "_palm_tree", counting)
        monkeypatch.setattr(plutus.graph, "_local_blocks", counting_blocks)
        nodes = list(range(5))
        bowtie = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert disconnecting_set(bowtie, nodes, 3) == (0, 2)
        assert trees == [(bowtie.adjacency, []), (bowtie.adjacency, [0])]
        trees.clear()
        pendant = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
        assert disconnecting_set(pendant, nodes, 3) == (1, 2)
        assert trees == [(pendant.adjacency, []), (pendant.adjacency, [0]), (pendant.adjacency, [1])]
        assert blocks == []

    @pytest.mark.parametrize("n, radius, seed", [
        (200, 0.15, 3), (300, 0.12, 2), (400, 0.1, 4), (500, 0.1, 1), (500, 0.1, 2),
    ])
    def test_relabelled_unit_disk_graphs(self, n, radius, seed):
        # the largest block of the graph, and the m = 2 backbone grown in a
        # 2-connected graph, which is full of bad points
        g = random_geometric(n, radius, seed).graph()
        h = relabel(g, sorted(range(n), key=lambda v: splitmix64(seed, v)))
        for graph in (g, h):
            biggest = max(_components(graph, range(n)), key=len)
            sets = [max(blocks_by_id(graph, biggest)[0], key=len)]
            if len(sets[0]) == n:
                sets.append(run_plutus(graph, PlutusConfig(k=2, m=2)).dominating_set)
            for subset in sets:
                assert bad_points(graph, subset) == sweep_bad_points(graph, subset)


class TestBadPoints:
    """Every bad point the engine marks, not only the lowest, against the
    removal-subset reference on 2-connected sets, and against the sweep of
    the public m = 2 test on a long ladder."""

    @given(seeds, st.integers(min_value=1, max_value=3), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, seed, edge_bias, whole):
        g = random_graph(seed, max_nodes=11, edge_bias=edge_bias)
        nodes = [v for v in range(g.node_count) if whole or splitmix_pick(seed, v)]
        assume(len(nodes) >= 4 and naive_m_connected(g, nodes, 2))
        assert bad_points(g, nodes) == naive_bad_points(g, nodes)

    @given(seeds, st.integers(min_value=1, max_value=3), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_none_exactly_when_not_two_connected(self, seed, edge_bias, whole):
        # the engine names bad points only on a 2-connected set; any other
        # set of four or more gets None, and its witness search goes on
        g = random_graph(seed, max_nodes=11, edge_bias=edge_bias)
        nodes = [v for v in range(g.node_count) if whole or splitmix_pick(seed, v)]
        assume(len(nodes) >= 4)
        two_connected = naive_m_connected(g, nodes, 2)
        expected = naive_bad_points(g, nodes) if two_connected else None
        assert bad_points(g, nodes) == expected

    @pytest.mark.parametrize("size", range(4, 9))
    @pytest.mark.parametrize("family, every", [
        (cycle_graph, True), (ladder_graph, None), (wheel_graph, False),
        (prism_graph, False), (moebius_ladder, False),
    ])
    def test_families(self, family, every, size):
        # every vertex of a cycle is bad, and none of a wheel, a prism or
        # a Moebius ladder; K4 is the wheel with a rim of three
        g = family(size)
        n = g.node_count
        shuffled = sorted(range(n), key=lambda v: splitmix64(size, v))
        for order in (list(range(n)), list(range(n))[::-1], shuffled):
            h = relabel(g, order)
            expected = naive_bad_points(h, range(n))
            assert bad_points(h) == expected
            if every is not None:
                assert expected == (list(range(n)) if every else [])
        assert bad_points(wheel_graph(3)) == [] == bad_points(complete_graph(4))

    def test_long_cycle_and_ladder(self):
        # one long root path: every slot of the candidate stack is in one
        # nested gap after another
        assert bad_points(cycle_graph(3000)) == list(range(3000))
        ladder = ladder_graph(150)
        assert bad_points(ladder) == sweep_bad_points(ladder, range(300))
        # the cycle's pairs pass the recording budget, so none are kept
        bad, partners = _bad_points(cycle_graph(3000).adjacency, range(3000))
        assert bad == list(range(3000)) and partners is None

    @given(seeds, st.integers(min_value=1, max_value=3), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_recorded_partners_are_the_separation_pairs(self, seed, edge_bias, whole):
        # recording names every pair whose removal splits the set, by the
        # reference, each from both ends, or none: past the budget of
        # |D| + E(D) distinct pairs (a pair found twice counts once) it
        # names none
        g = random_graph(seed, max_nodes=11, edge_bias=edge_bias)
        nodes = [v for v in range(g.node_count) if whole or splitmix_pick(seed, v)]
        assume(len(nodes) >= 4 and naive_m_connected(g, nodes, 2))
        rows = _induced_rows(g, nodes)
        bad, partners = _bad_points(rows, nodes)
        assert bad == naive_bad_points(g, nodes)
        pairs = {
            (a, b) for a, b in itertools.combinations(nodes, 2)
            if not induced_connected(g, set(nodes) - {a, b})
        }
        recorded = {(a, b) for a, row in (partners or {}).items() for b in row}
        budget = len(nodes) + sum(len(rows[v]) for v in nodes) // 2
        assert recorded in (set(), pairs | {(b, a) for a, b in pairs})
        assert len(pairs) <= budget or not recorded
        assert bool(recorded) == (0 < len(pairs) <= budget)
        assert (partners is None) == (not recorded)

    def test_pairs_hit_twice_count_once_against_the_budget(self):
        # 22 distinct separation pairs meet the budget of |D| + E(D) = 22
        # exactly, though the engine hits some of them more than once
        g = from_edge_list(10, [
            (0, 1), (0, 2), (0, 6), (1, 5), (1, 6), (2, 4), (3, 8), (3, 9),
            (4, 7), (4, 9), (5, 8), (7, 9),
        ])
        nodes = list(range(10))
        pairs = {
            (a, b) for a, b in itertools.combinations(nodes, 2)
            if not induced_connected(g, set(nodes) - {a, b})
        }
        assert len(pairs) == 10 + 12
        bad, partners = _bad_points(g.adjacency, nodes)
        assert bad == naive_bad_points(g, nodes)
        assert {(a, b) for a, row in partners.items() for b in row if a < b} == pairs

    @pytest.mark.parametrize("n", [7, 8])
    def test_budget_counts_only_edges_among_the_members(self, n):
        # the cycle C_n with a pendant non-member on every vertex: the
        # budget is n + n edges = 2n, so C_7 records its 14 pairs and C_8
        # none of its 20, on the graph's own adjacency as on the rows; a
        # budget counted from the full rows, n + 3n / 2, would keep C_8's
        cycle = [(v, (v + 1) % n) for v in range(n)]
        g = from_edge_list(2 * n, cycle + [(v, n + v) for v in range(n)])
        nodes = list(range(n))
        pairs = {(a, b) for a, b in itertools.combinations(nodes, 2) if 1 < b - a < n - 1}
        assert len(pairs) == {7: 14, 8: 20}[n]
        for adj in (g.adjacency, _induced_rows(g, nodes)):
            bad, partners = _bad_points(adj, nodes)
            assert bad == nodes
            if n == 8:
                assert partners is None
                continue
            assert {(a, b) for a, row in partners.items() for b in row if a < b} == pairs

    @pytest.mark.parametrize("n, radius, seed", [
        (500, 0.09, 28), (1000, 0.064, 18), (2000, 0.046, 36), (4000, 0.0325, 100),
    ])
    def test_one_palm_tree_per_member_on_the_m3_corpus(self, n, radius, seed):
        # the engine on sustainability's input (the k = 2, m = 2 backbone),
        # its output, that output less one member and a BFS prefix of it,
        # against the cut vertices of S - v from one block DFS per member
        # v: every member up to n = 2000, a seeded eighth of them at 4000
        g = random_geometric(n, radius, seed).graph()
        d2 = sorted(run_plutus(g, PlutusConfig(k=2, m=2)).dominating_set)
        d3 = sorted(sustainability(g, d2))
        rows = _induced_rows(g, d3)
        prefix = [d3[splitmix64(seed, 1) % len(d3)]]
        seen = set(prefix)
        for x in prefix:  # grows as it is read: a BFS of D3
            prefix += [y for y in rows[x] if y not in seen]
            seen.update(rows[x])
        drop = d3[splitmix64(seed, 0) % len(d3)]
        sets = [d2, d3, [v for v in d3 if v != drop], sorted(prefix[: len(d3) // 2])]
        for members in sets:
            rows = _induced_rows(g, members)
            bad, partners = _bad_points(rows, members)
            blocks, cut = _local_blocks(rows, members)
            assert is_m_connected(g, members, 3) == (bad == [])
            if len(members) >= 4 and (blocks is None or cut):  # not 2-connected
                assert (bad, partners) == (None, None)
                continue
            checked = [v for v in members if n <= 2000 or splitmix64(seed, v) % 8 == 0]
            cuts = {v: _local_blocks(rows, [u for u in members if u != v])[1] for v in checked}
            assert [v for v in checked if v in bad] == [v for v in checked if cuts[v]]
            if partners is not None:
                assert {v: partners.get(v, set()) for v in checked} == cuts
            elif n <= 2000:
                pairs = sum(map(len, cuts.values())) // 2
                assert pairs == 0 or pairs > len(members) + sum(map(len, rows)) // 2
            if n <= 2000:
                assert bad == [v for v in members if cuts[v]]


class TestDisconnectingSet:
    """The one routine behind the m = 2 and m = 3 verdicts and verify's
    witness, :func:`_connectivity_witness`, against trying every set of
    m - 1 members in order."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("m", [2, 3])
    def test_every_small_graph(self, n, m):
        nodes = list(range(n))
        for g in every_graph(n):
            found = disconnecting_set(g, nodes, m)
            assert found == naive_disconnecting_set(g, nodes, m)

    @given(seeds, st.integers(min_value=2, max_value=3))
    @settings(max_examples=200, deadline=None)
    def test_is_the_verdict_on_random_subsets(self, seed, m):
        g = random_graph(seed, max_nodes=12)
        nodes = [v for v in range(g.node_count) if splitmix_pick(seed, v)]
        assume(len(nodes) > m)
        found = disconnecting_set(g, nodes, m)
        assert found == naive_disconnecting_set(g, nodes, m)
        assert is_m_connected(g, nodes, m) == (found is None)


def check_palm_tree(adj: list[list[int]], members):
    """The palm tree of the graph on the sorted vertices ``members`` of
    ``adj``, whose rows may list other vertices too, against its
    definition, each part found by brute force; returns the tree."""
    n = len(adj)
    inside = set(members)
    fronds: list[list[int]] = [[] for _ in range(n)]
    tree = order, parent, depth, low = _palm_tree(adj, members, fronds)
    assert tree == _palm_tree(adj, members)
    if not members:
        assert order == []
        return tree
    component = {members[0]}
    todo = [members[0]]
    while todo:
        for y in adj[todo.pop()]:
            if y in inside and y not in component:
                component.add(y)
                todo.append(y)
    assert order[0] == members[0] and len(order) == len(component) and set(order) == component
    assert (parent[order[0]], depth[order[0]]) == (-1, 0)
    ancestors = {order[0]: set()}  # proper ancestors, filled in preorder
    for v in order[1:]:
        p = parent[v]
        assert v in adj[p] and depth[v] == depth[p] + 1
        ancestors[v] = ancestors[p] | {p}
    for v in range(n):
        if v not in component:
            assert (parent[v], depth[v]) == (-1, -1 if v in inside else n)
    expected = []
    for x in order:
        for y in adj[x]:
            if y in inside:
                assert y in ancestors[x] or x in ancestors[y]
                if y in ancestors[x] and y != parent[x]:
                    expected.append((depth[y], x))
    # each frond once, its deeper end listed under the shallower end's depth
    assert sorted((d, x) for d, row in enumerate(fronds) for x in row) == sorted(expected)
    for v in order:
        subtree = {w for w in order if w == v or v in ancestors[w]}
        leaving = [depth[y] for x in subtree for y in adj[x] if y in inside and y not in subtree]
        assert low[v] == min(leaving + [depth[v]])
    return tree


class TestPalmTree:
    """The one DFS behind the block lists, the cut vertices and the
    separation-pair engine."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_small_graph_and_skip(self, n):
        # every graph, whole and without each one vertex
        for g in every_graph(n):
            for skip in range(-1, n):
                check_palm_tree(g.adjacency, [v for v in range(n) if v != skip])

    @pytest.mark.parametrize("n, radius, seed", [(200, 0.15, 1), (300, 0.12, 2), (400, 0.1, 3)])
    def test_unit_disk_subsets(self, n, radius, seed):
        # a sampled subset and a 2-connected backbone, the m = 2 backbone
        # of the graph's largest block, each whole and without one member,
        # read from the graph's own adjacency and from the subset's rows
        # indexed by node id: the same palm tree as on the reference local
        # adjacency, relabelled, and the same block lists, bad points and
        # recorded partner map from either
        g = random_geometric(n, radius, seed).graph()
        sample = [v for v in range(n) if splitmix_pick(seed, v) or v % 3 == 0]
        block = sorted(max(_local_blocks(g.adjacency, range(n))[0], key=len))
        local = local_adjacency(g, block)
        h = from_edge_list(len(block), [(i, j) for i, row in enumerate(local) for j in row])
        backbone = [block[v] for v in sorted(run_plutus(h, PlutusConfig(k=2, m=2)).dominating_set)]
        recorded = []
        for nodes in (sample, backbone):
            rows = _induced_rows(g, nodes)
            for skip in (-1, 0, 1, len(nodes) // 2):
                members = [v for i, v in enumerate(nodes) if i != skip]
                tree = check_palm_tree(local_adjacency(g, members), range(len(members)))
                order, parent, depth, low = tree
                by_graph, by_rows = (_palm_tree(adj, members) for adj in (g.adjacency, rows))
                assert by_graph[0] == by_rows[0] == [members[v] for v in order]
                assert by_graph[1] == by_rows[1]
                assert [by_graph[1][v] for v in members] == [
                    p if p < 0 else members[p] for p in parent
                ]
                assert [by_graph[2][v] for v in members] == depth
                assert [by_rows[2][v] for v in members] == depth
                assert by_graph[3] == by_rows[3]
                assert [by_graph[3][v] for v in members] == low
                assert _local_blocks(g.adjacency, members) == _local_blocks(rows, members)
                found = [_bad_points(adj, members) for adj in (g.adjacency, rows)]
                assert found[0] == found[1]
                recorded.append(found[0][1] is not None)
        assert any(recorded)


class TestStrictBiconnectivity:
    @given(seeds)
    @settings(max_examples=40)
    def test_matches_two_connectivity(self, seed):
        g = random_graph(seed, max_nodes=8)
        subset = list(range(g.node_count))
        assert is_m_connected(g, subset, 2) == naive_m_connected(g, subset, 2)


class TestComponents:
    def test_components_sorted(self):
        g = from_edge_list(6, [(4, 5), (1, 2), (0, 2)])
        assert _components(g, range(6)) == [[0, 1, 2], [3], [4, 5]]

    def test_cycle_connected(self):
        assert is_connected(cycle_graph(5))

    def test_path_subset(self):
        assert not is_connected(path_graph(5), {0, 2})

    @given(seeds, st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_subsets(self, seed, data):
        # a random subset (unsorted, with repeats), the whole graph and a
        # singleton, against the set-based reference
        g = random_graph(seed, max_nodes=12)
        n = g.node_count
        subset = data.draw(st.lists(st.integers(0, n - 1)))
        for nodes in (subset, range(n), [data.draw(st.integers(0, n - 1))]):
            expected = naive_components(g, nodes)
            assert _components(g, sorted(set(nodes))) == expected
            assert is_connected(g, nodes) == (len(expected) <= 1)
        assert is_connected(g) == (len(naive_components(g, range(n))) <= 1)
