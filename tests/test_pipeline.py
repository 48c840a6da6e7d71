from __future__ import annotations

import itertools
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plutus import (
    DisconnectedInputError,
    EmptyGraphError,
    GraphInputError,
    GraphNotMConnectedError,
    PhaseTrace,
    PlutusConfig,
    PlutusError,
    PlutusResult,
    Role,
    brute_force_min_mcds,
    diversification,
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
    sustainability,
    synergy_layers,
)
import plutus.graph
from plutus import pipeline
from plutus.geometry import splitmix64
from plutus.graph import _induced_rows, _lex_shortest_path, _local_blocks
from plutus.pipeline import _alternate_pair_path, _augment_leaf_block, _first_leaf
from plutus.serialize import dumps, result_to_dict

from .conftest import complete_graph, cycle_graph, path_graph, wheel_graph
from .helpers import (
    _naive_round,
    assert_tree_matches,
    induced_connected,
    local_adjacency,
    naive_block_cut_tree,
    naive_components,
    naive_diversification,
    naive_domination,
    naive_greedy_mis,
    naive_lex_shortest_path,
    naive_lowest_bad_point,
    naive_m_connected,
    naive_run_plutus,
    naive_sustainability,
    random_connected_graph,
    random_graph,
    relabel,
)

seeds = st.integers(min_value=0, max_value=10**9)


class TestIsolation:
    def test_path_center(self, p3):
        mis, roles = isolation(p3)
        assert mis == frozenset({1})
        assert roles == (
            Role.DOMINATION_RELUCTANT,
            Role.DOMINATOR,
            Role.DOMINATION_RELUCTANT,
        )

    def test_single_node(self):
        mis, roles = isolation(from_edge_list(1, []))
        assert mis == frozenset({0})
        assert roles == (Role.DOMINATOR,)

    def test_cycle_alternation(self, c6):
        # all degree 2: tie goes to 0; then 2 (one reluctant neighbour,
        # lowest id); then 4 (two reluctant neighbours)
        mis, _ = isolation(c6)
        assert mis == frozenset({0, 2, 4})

    def test_complete_graph_single_dominator(self, k4):
        mis, _ = isolation(k4)
        assert mis == frozenset({0})

    def test_empty_graph(self):
        with pytest.raises(EmptyGraphError):
            isolation(from_edge_list(0, []))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedInputError):
            isolation(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_no_prone_roles_remain(self, w6):
        _, roles = isolation(w6)
        assert set(Role) == {Role.DOMINATOR, Role.DOMINATION_RELUCTANT}
        assert set(roles) == set(Role)

    @given(seeds)
    @settings(max_examples=50)
    def test_output_is_maximal_independent(self, seed):
        g = random_connected_graph(seed)
        mis, roles = isolation(g)
        ok, witness = is_maximal_independent_set(g, mis)
        assert ok, witness
        assert mis == frozenset(v for v, r in enumerate(roles) if r is Role.DOMINATOR)


class TestDomination:
    def test_path_promotes_connector(self, p5):
        assert domination(p5, {1, 3}) == frozenset({1, 2, 3})

    def test_star_single_dominator(self, star4):
        assert domination(star4, {0}) == frozenset({0})

    def test_cycle_with_skip_rule(self, c6):
        # pairs at distance 2 in (d, u, v) order: (0,2), (0,4), (2,4);
        # (0,2) promotes 1, (0,4) promotes 5, then 2 and 4 are already
        # connected through 1-0-5, so (2,4) is skipped
        assert domination(c6, {0, 2, 4}) == frozenset({0, 1, 2, 4, 5})

    def test_rejects_non_mis_input(self, p5):
        with pytest.raises(GraphInputError):
            domination(p5, {1, 2})
        with pytest.raises(GraphInputError):
            domination(p5, {1})  # not maximal: 3 and 4 uncovered

    def test_rejects_bool_node_id(self, k4):
        # {1} is a maximal independent set of K4, but True is not a node id
        with pytest.raises(GraphInputError):
            domination(k4, {True})

    def test_disconnected_graph_does_not_converge(self):
        # {0, 2} is a maximal independent set, but no path joins its members
        g = from_edge_list(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedInputError, match="did not converge to a single component"):
            domination(g, {0, 2})

    def test_reads_its_pairs_and_paths_without_a_path_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("domination ran a path search")

        g = random_geometric(120, 0.16, 22).graph()
        mis = isolation(g)[0]
        expected = naive_domination(g, mis)
        monkeypatch.setattr(pipeline, "_lex_shortest_path", no_search)
        monkeypatch.setattr(plutus.graph, "_lex_shortest_path", no_search)
        assert domination(g, mis) == expected

    def test_tied_three_hop_routes_take_the_smallest_path(self):
        # 0 and 1 are three hops apart through 2 (to 5 or 6) and through 3
        # (to 4 or 5): the smallest path goes through 2, then 5, the
        # smaller of 2's neighbours next to 1
        edges = [(0, 2), (0, 3), (2, 6), (2, 5), (3, 4), (3, 5), (4, 1), (5, 1), (6, 1)]
        g = from_edge_list(7, edges)
        path = naive_lex_shortest_path(g, (0,), (1,), lambda x: True)
        assert path == [0, 2, 5, 1]
        assert domination(g, {0, 1}) == frozenset(path) == naive_domination(g, {0, 1})

    @given(seeds)
    @settings(max_examples=50)
    def test_output_is_connected_dominating_set(self, seed):
        g = random_connected_graph(seed)
        mis, _ = isolation(g)
        cds = domination(g, mis)
        assert mis <= cds
        ok, witness = is_connected_dominating_set(g, cds)
        assert ok, witness


@given(seeds, st.data())
@settings(max_examples=200, deadline=None)
def test_domination_matches_the_pair_by_pair_reference(seed, data):
    # the isolation set, and a greedy maximal independent set over a drawn
    # order, are connected as the plain-BFS pair reference connects them
    g = random_connected_graph(seed, max_nodes=12)
    greedy: set[int] = set()
    for v in data.draw(st.permutations(range(g.node_count))):
        if greedy.isdisjoint(g.adjacency[v]):
            greedy.add(v)
    for mis in (isolation(g)[0], frozenset(greedy)):
        assert domination(g, mis) == naive_domination(g, mis)


class TestSynergy:
    def test_k1_is_identity(self, p5):
        cds = domination(p5, isolation(p5)[0])
        assert synergy_layers(p5, cds, 1)[0] == cds

    def test_complete_graph_second_layer(self, k5):
        assert synergy_layers(k5, {0}, 2)[0] == frozenset({0, 1})

    def test_cycle_vacuous_when_layers_exhaust(self, c6):
        assert synergy_layers(c6, {0, 1, 2, 3, 4}, 2)[0] == frozenset(range(6))

    def test_layers_include_first_isolation(self, c6):
        _, layers = synergy_layers(c6, {0, 1, 2, 3, 4}, 2)
        assert layers[0] == isolation(c6)[0]

    @given(seeds, st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_given_first_layer_matches_isolation(self, seed, k):
        g = random_connected_graph(seed)
        cds = domination(g, isolation(g)[0])
        given_layer = synergy_layers(g, cds, k, layer_one=isolation(g)[0])
        assert given_layer == synergy_layers(g, cds, k)

    def test_given_first_layer_is_checked(self, c6, p5):
        with pytest.raises(GraphInputError):
            synergy_layers(c6, {0, 1, 2, 3, 4}, 2, layer_one=[0, 6])
        with pytest.raises(GraphInputError):
            synergy_layers(c6, {0, 1, 2, 3, 4}, 2, layer_one={1, 5})
        # inside d = {1, 2, 3}, but not a maximal independent set of P5
        d = domination(p5, isolation(p5)[0])
        with pytest.raises(GraphInputError, match="not a maximal independent set"):
            synergy_layers(p5, d, 2, layer_one=[1])
        with pytest.raises(GraphInputError, match="adjacent-pair"):
            synergy_layers(p5, d, 2, layer_one=[1, 2])

    def test_requires_containing_first_layer(self, c6):
        # {1, 2, 3, 4, 5} is a CDS of C6 but misses isolation's {0, 2, 4}
        with pytest.raises(GraphInputError):
            synergy_layers(c6, {1, 2, 3, 4, 5}, 2)

    def test_rejects_non_cds(self, p5):
        with pytest.raises(DisconnectedInputError):
            synergy_layers(p5, {1, 3}, 1)  # dominating but induces two components
        with pytest.raises(GraphInputError):
            synergy_layers(p5, {0, 1}, 1)  # connected but leaves 3 and 4 undominated

    @given(seeds, st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_k_domination_and_layer_structure(self, seed, k):
        g = random_connected_graph(seed)
        cds = domination(g, isolation(g)[0])
        backbone, layers = synergy_layers(g, cds, k)
        ok, witness = is_k_dominating(g, backbone, k)
        assert ok, witness
        # layers pairwise disjoint, each maximal independent in its residual
        covered: set[int] = set()
        for layer in layers:
            assert not (layer & covered)
            residual = [v for v in range(g.node_count) if v not in covered]
            assert _layer_is_maximal_independent(g, layer, set(residual))
            covered |= layer

    def test_full_layers_are_k_dominating(self, k5):
        # every residual node joins a layer or keeps a neighbour per layer,
        # so the layers alone are k-dominating
        assert synergy_layers(k5, {0}, 3)[0] == frozenset({0, 1, 2})

    def test_early_stop_when_residual_exhausts(self, k5):
        # K5 yields singleton layers; asking for more layers than nodes
        # stops once everything is covered and holds vacuously
        backbone, layers = synergy_layers(k5, {0}, 7)
        assert backbone == frozenset(range(5))
        assert layers == tuple(frozenset({v}) for v in range(5))

    @given(seeds, st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_k_dominating_for_any_first_layer(self, seed, k, rnd):
        # layer one is any maximal independent set: greedy over a random order
        g = random_connected_graph(seed, max_nodes=14)
        order = list(range(g.node_count))
        rnd.shuffle(order)
        layer_one: set[int] = set()
        for v in order:
            if not any(w in layer_one for w in g.adjacency[v]):
                layer_one.add(v)
        backbone, layers = synergy_layers(
            g, domination(g, layer_one), k, layer_one=layer_one
        )
        assert layers[0] == layer_one
        assert len(layers) == k or backbone == frozenset(range(g.node_count))
        for v in range(g.node_count):
            if v not in backbone:
                assert all(any(w in layer for w in g.adjacency[v]) for layer in layers)
                assert sum(w in backbone for w in g.adjacency[v]) >= k


def _has_split_residual(g, k: int = 5) -> bool:
    """Some residual of layers 2..k (by the reference) has several
    components, one of which does not open with its lowest id."""
    covered = set(naive_greedy_mis(g, range(g.node_count)))
    for _ in range(2, k + 1):
        residual = {v for v in range(g.node_count) if v not in covered}
        components = naive_components(g, residual)
        degree = lambda v: sum(w in residual for w in g.adjacency[v])
        if len(components) > 1 and any(
            max(comp, key=degree) != comp[0] for comp in components
        ):
            return True
        covered |= set(naive_greedy_mis(g, residual))
    return False


_SPLIT_SEEDS = [
    seed for seed in range(400) if _has_split_residual(random_connected_graph(seed, 14))
]


def _grid(rows: int, cols: int):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return from_edge_list(rows * cols, edges)


def _complete_bipartite(a: int, b: int):
    return from_edge_list(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def _disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.node_count
    return from_edge_list(offset, edges)


_TIE_HEAVY = {
    **{f"C{n}": cycle_graph(n) for n in (3, 4, 5, 9, 16, 31)},
    **{f"grid{r}x{c}": _grid(r, c) for r, c in ((1, 7), (3, 3), (4, 6), (9, 9), (12, 20))},
    **{f"K{a},{b}": _complete_bipartite(a, b) for a, b in ((1, 5), (2, 2), (3, 4), (6, 6))},
}
# components of equal and of unequal top degree, two isolated nodes
_UNION = _disjoint_union(
    cycle_graph(6), _grid(3, 4), _complete_bipartite(2, 3), path_graph(4),
    _complete_bipartite(3, 3), cycle_graph(5), path_graph(1), path_graph(1),
)


def _assert_layers_match_reference(g, layers: int) -> None:
    """``layers`` rounds of :func:`pipeline._greedy_mis`, each on the nodes
    no earlier round took, match the per-component reference."""
    covered: set[int] = set()
    for _ in range(layers):
        residual = [v for v in range(g.node_count) if v not in covered]
        if not residual:
            return
        adj = {v: tuple(w for w in g.adjacency[v] if w not in covered) for v in residual}
        layer = frozenset(pipeline._greedy_mis(residual, adj))
        assert layer == frozenset(naive_greedy_mis(g, residual))
        covered |= layer


class TestGreedyMis:
    def test_split_residuals_are_common(self):
        assert len(_SPLIT_SEEDS) >= 50

    @given(
        st.one_of(seeds, st.sampled_from(_SPLIT_SEEDS)),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_isolation_and_layers_match_per_component_rounds(self, seed, k):
        g = random_connected_graph(seed, max_nodes=14)
        mis = isolation(g)[0]
        assert mis == frozenset(naive_greedy_mis(g, range(g.node_count)))
        _, layers = synergy_layers(g, domination(g, mis), k)
        covered: set[int] = set()
        for layer in layers:
            residual = [v for v in range(g.node_count) if v not in covered]
            assert layer == frozenset(naive_greedy_mis(g, residual))
            covered |= layer
        assert len(layers) == k or len(covered) == g.node_count

    @pytest.mark.parametrize("n, seed", [(1000, 1), (2000, 2), (4000, 3)])
    def test_relabelled_unit_disk_graphs(self, n, seed):
        g = random_geometric(n, 0.046 * (2000 / n) ** 0.5, seed).graph()
        h = relabel(g, sorted(range(n), key=lambda v: splitmix64(seed, v)))
        for graph in (g, h):
            _assert_layers_match_reference(graph, 3)

    @pytest.mark.parametrize("name", sorted(_TIE_HEAVY))
    def test_tie_heavy_graphs(self, name):
        _assert_layers_match_reference(_TIE_HEAVY[name], 4)

    @given(st.permutations(range(_UNION.node_count)))
    @settings(max_examples=100, deadline=None)
    def test_relabelled_disjoint_unions(self, order):
        _assert_layers_match_reference(relabel(_UNION, order), 4)

    def test_fallback_opens_components_by_degree(self):
        # P3 on 0-2, a star centred on 3, K_{3,3} on 9-14: the star opens
        # first, then K_{3,3} (10 and 11 win on count), then the path
        edges = [(0, 1), (1, 2)] + [(3, v) for v in range(4, 9)]
        edges += [(u, v) for u in (9, 10, 11) for v in (12, 13, 14)]
        g = from_edge_list(15, edges)
        picks = pipeline._greedy_mis(range(15), dict(enumerate(g.adjacency)))
        assert picks == [3, 9, 10, 11, 1]
        assert frozenset(picks) == frozenset(naive_greedy_mis(g, range(15)))


def _layer_is_maximal_independent(g, layer, residual: set[int]) -> bool:
    for u in layer:
        for v in g.adjacency[u]:
            if v in layer:
                return False
    for v in residual - set(layer):
        if not any(w in layer for w in g.adjacency[v] if w in residual):
            return False
    return True


class TestDiversification:
    def test_cycle_closes(self, c4):
        assert diversification(c4, {0, 1, 2}) == frozenset(range(4))

    def test_already_two_connected_unchanged(self):
        k3 = complete_graph(3)
        assert diversification(k3, range(3)) == frozenset(range(3))

    def test_pair_promotes_common_neighbour(self, k4):
        assert diversification(k4, {0, 1}) == frozenset({0, 1, 2})

    def test_pair_without_common_neighbour_takes_longer_route(self, c4):
        # 0 and 1 share no neighbour in C4; the alternate route 0-3-2-1
        # promotes both internals
        assert diversification(c4, {0, 1}) == frozenset(range(4))

    def test_singleton_grows(self, k4):
        assert diversification(k4, {0}) == frozenset({0, 1, 2})

    def test_infeasible_on_tree(self, p3):
        with pytest.raises(GraphNotMConnectedError) as info:
            diversification(p3, {0, 1, 2})
        assert info.value.witness == (0, 1)
        assert str(info.value) == "input graph is not 2-connected; stuck at [0, 1]"

    def test_disconnected_input_rejected(self, p5):
        with pytest.raises(DisconnectedInputError):
            diversification(p5, {0, 4})

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_two_connected_and_k_dominance_preserved(self, seed):
        g = random_connected_graph(seed)
        if not is_m_connected(g, range(g.node_count), 2):
            return
        cds = domination(g, isolation(g)[0])
        backbone = synergy_layers(g, cds, 2)[0]
        widened = diversification(g, backbone)
        assert backbone <= widened
        assert is_m_connected(g, widened, 2)
        if is_k_dominating(g, backbone, 2)[0]:
            assert is_k_dominating(g, widened, 2)[0]


class TestSustainability:
    def test_triangle_grows_to_k4(self, k4):
        assert sustainability(k4, {0, 1, 2}) == frozenset(range(4))

    def test_complete_graph_has_no_bad_points(self, k5):
        assert sustainability(k5, range(5)) == frozenset(range(5))

    def test_wheel_has_no_bad_points(self, w6):
        assert sustainability(w6, range(6)) == frozenset(range(6))

    def test_requires_two_connected_input(self, p5):
        with pytest.raises(GraphInputError):
            sustainability(p5, {1, 2, 3})

    def test_infeasible_when_graph_cannot_give_three_connectivity(self, c4):
        # C4 is 2-connected but nothing outside the cycle exists to repair
        # its bad points
        with pytest.raises(GraphNotMConnectedError) as info:
            sustainability(c4, range(4))
        assert (info.value.m, info.value.witness) == (3, (0,))
        assert str(info.value) == "input graph is not 3-connected; stuck at [0]"

    def test_ends_of_a_one_vertex_ear_can_turn_bad(self):
        # the first round repairs 1 with the ear 0-4-3.  4 has no third
        # backbone neighbour, so the good end 0 turns bad (4 hangs off 3
        # without it): the next round repairs 0, the lowest bad point, and
        # gets stuck there
        g = from_edge_list(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (2, 5), (3, 4), (3, 5)])
        assert naive_lowest_bad_point(g, {0, 1, 2, 3, 5}) == 1
        assert naive_lowest_bad_point(g, range(6)) == 0
        with pytest.raises(GraphNotMConnectedError) as info:
            sustainability(g, {0, 1, 2, 3, 5})
        assert info.value.witness == (0,)

    def test_vertices_of_a_longer_ear_can_turn_bad(self):
        # the triangle {1, 4, 5} takes the ear 4-2-5 for 1 and then the ear
        # 1-3-0-2 for 4; each of 0 and 3 leaves the other hanging, so 0 is
        # the next lowest bad point, where the phase gets stuck
        g = from_edge_list(6, [(0, 2), (0, 3), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (4, 5)])
        assert naive_lowest_bad_point(g, range(6)) == 0
        with pytest.raises(GraphNotMConnectedError) as info:
            sustainability(g, {1, 4, 5})
        assert info.value.witness == (0,)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_no_bad_point_remains(self, seed):
        g = random_connected_graph(seed)
        if not is_m_connected(g, range(g.node_count), 3):
            return
        cds = domination(g, isolation(g)[0])
        backbone = diversification(g, synergy_layers(g, cds, 2)[0])
        hardened = sustainability(g, backbone)
        assert backbone <= hardened
        assert naive_m_connected(g, hardened, 3)


class TestInfeasibilityWitnesses:
    """Every way an augmentation round can get stuck, with the witness and
    message it ends in.  Each graph is not m-connected."""

    @pytest.mark.parametrize("g, backbone, witness", [
        (path_graph(3), {0, 1, 2}, (0, 1)),  # the whole graph: its smallest leaf block
        (from_edge_list(2, []), {0}, (0,)),  # a lone vertex with no neighbour
        (from_edge_list(3, [(0, 1)]), {0, 1}, (0, 1)),  # a pair with no second route
        (path_graph(4), {0, 1, 2}, (0, 1)),  # the smallest leaf block
    ])
    def test_diversification(self, g, backbone, witness):
        with pytest.raises(GraphNotMConnectedError) as info:
            diversification(g, backbone)
        assert (info.value.m, info.value.witness) == (2, witness)
        assert str(info.value) == f"input graph is not 2-connected; stuck at {list(witness)}"

    @pytest.mark.parametrize("g, backbone", [
        (complete_graph(3), {0, 1, 2}),  # the whole graph
        (from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]), {0, 1, 2, 3}),
    ])
    def test_sustainability(self, g, backbone):
        # in the second graph the only outside vertex hangs off the bad point
        with pytest.raises(GraphNotMConnectedError) as info:
            sustainability(g, backbone)
        assert (info.value.m, info.value.witness) == (3, (0,))
        assert str(info.value) == "input graph is not 3-connected; stuck at [0]"


def _phase_outcome(phase, *args):
    """phase(*args), a backbone or a pipeline result, or the type, message
    and witness (None when it has none) of the error it raises."""
    try:
        return phase(*args)
    except PlutusError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def _draw_connected_set(g, data):
    """A prefix of the breadth-first order from a drawn start vertex."""
    order = [data.draw(st.integers(0, g.node_count - 1))]
    for x in order:
        order += [y for y in g.adjacency[x] if y not in order]
    return frozenset(order[: data.draw(st.integers(1, len(order)))])


@given(seeds, st.data())
@settings(max_examples=150, deadline=None)
def test_augmentation_ends_within_the_outside_count_plus_one(seed, data):
    # every repair path has an internal vertex, all of them outside the
    # backbone, so a phase from d repairs at most n - |d| times and its
    # last round, which ends it or gets stuck, comes within n - |d| + 1
    g = random_connected_graph(seed, max_nodes=14)
    d = _draw_connected_set(g, data)
    cases = [(diversification, d), (sustainability, d)]
    widened = _phase_outcome(diversification, g, d)
    if isinstance(widened, frozenset):
        cases.append((sustainability, widened))
    repair_path = pipeline._repair_path
    for phase, start_set in cases:
        paths = []

        def record_repair(*args):
            paths.append(repair_path(*args))
            return paths[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "_repair_path", record_repair)
            outcome = _phase_outcome(phase, g, start_set)
        repairs = [path for path in paths if path is not None]
        assert paths[len(repairs):] in ([], [None])  # only a stuck last round finds none
        grown = set(start_set)
        for path in repairs:
            ear = path[1:-1]
            assert ear and grown.isdisjoint(ear)
            grown.update(ear)
        assert len(repairs) <= g.node_count - len(start_set)
        if isinstance(outcome, frozenset):
            assert outcome == grown


@pytest.mark.parametrize(
    "phase, g, d",
    [
        (diversification, complete_graph(4), {0}),  # a lone member's pair route
        (diversification, cycle_graph(5), {0, 1, 2}),  # a leaf block
        (sustainability, wheel_graph(5), range(1, 6)),
    ],
)
def test_a_round_that_promotes_nothing_is_an_internal_error(monkeypatch, phase, g, d):
    # a repair path with no internal vertex leaves the backbone as it was,
    # so its round would repeat forever; the round step raises at the
    # first one, whichever of its two searches found the path
    leaf_block, pair_path = pipeline._augment_leaf_block, pipeline._alternate_pair_path

    def leaf_ends(*args):
        path = leaf_block(*args)
        return [path[0], path[-1]]

    def pair_ends(*args):
        path = pair_path(*args)
        return [path[0], path[-1]]

    monkeypatch.setattr(pipeline, "_augment_leaf_block", leaf_ends)
    monkeypatch.setattr(pipeline, "_alternate_pair_path", pair_ends)
    with pytest.raises(AssertionError, match="promoted nothing"):
        phase(g, d)


def _composed_phases(g, cfg):
    """The public phases composed in run_plutus's order, each fed the last
    one's backbone, as a result with zero times."""
    mis = isolation(g)[0]
    stages = [("isolation", mis), ("domination", domination(g, mis))]
    stages.append(("synergy", synergy_layers(g, stages[-1][1], cfg.k)[0]))
    if cfg.m >= 2:
        stages.append(("diversification", diversification(g, stages[-1][1])))
    if cfg.m == 3:
        stages.append(("sustainability", sustainability(g, stages[-1][1])))
    trace, before = [], frozenset()
    for name, backbone in stages:
        trace.append(PhaseTrace(name, len(backbone), tuple(sorted(backbone - before)), 0))
        before = backbone
    return PlutusResult(before, tuple(trace), g.node_count)


@given(seeds, st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_run_plutus_is_its_composed_phases(seed, k, m):
    # run_plutus checks nothing beyond emptiness and connectivity, so it
    # gives the composed phases' result or their error.  At k >= m every
    # outside vertex has at least m neighbours in an m-connected backbone,
    # which makes g m-connected: the phases raise exactly on the graphs
    # that are not.  At k < m they may solve such a graph, and raise only
    # on one of them
    g = random_connected_graph(seed, max_nodes=12)
    cfg = PlutusConfig(k=k, m=m)
    expected = _phase_outcome(_composed_phases, g, cfg)
    everything = range(g.node_count)
    try:
        result = run_plutus(g, cfg)
    except GraphNotMConnectedError as exc:
        assert expected == (GraphNotMConnectedError, str(exc), exc.witness)
        assert exc.witness and not naive_m_connected(g, everything, exc.m)
        assert k < m or not naive_m_connected(g, everything, m)
    else:
        assert result == expected
        assert is_k_dominating(g, result.dominating_set, k)[0]
        assert naive_m_connected(g, result.dominating_set, m)
        assert k < m or naive_m_connected(g, everything, m)


@given(seeds, st.integers(1, 3), st.sampled_from([2, 3]), st.data())
@settings(max_examples=200, deadline=None)
def test_stuck_phase_means_graph_not_m_connected(seed, edge_bias, m, data):
    # a direct phase call on a valid input raises GraphNotMConnectedError
    # only when the graph is not m-connected by the literal removal-subset
    # reference, which shares no code with the phase
    g = random_graph(seed, max_nodes=12, edge_bias=edge_bias)
    d = _draw_connected_set(g, data)
    phase = diversification
    if m == 3:
        phase = sustainability
        if not naive_m_connected(g, d, 2):
            d = _phase_outcome(diversification, g, d)
            if not isinstance(d, frozenset):
                return
    _check_stuck_phase(g, phase, d, m)


def _check_stuck_phase(g, phase, d, m):
    try:
        backbone = phase(g, d)
    except GraphNotMConnectedError as exc:
        assert exc.m == m
        assert list(exc.witness) == sorted(set(exc.witness))
        assert not naive_m_connected(g, range(g.node_count), m)
        if m == 3:
            # the witness is the stuck round's bad point a, possibly one
            # that sustainability promoted; the round is stuck because
            # G - a - c is disconnected for a cut vertex c of D - a
            (bad,) = exc.witness
            assert not naive_m_connected(g, [v for v in range(g.node_count) if v != bad], 2)
    else:
        assert naive_m_connected(g, backbone, m)


@given(seeds, st.integers(1, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_sustainability_matches_the_round_by_round_reference(seed, edge_bias, data):
    # the candidates carried between rounds change no round: the backbone,
    # or the error with its message and witness, is that of the loop that
    # finds each round's lowest bad point by the removal-subset reference
    g = random_graph(seed, max_nodes=12, edge_bias=edge_bias)
    d = _draw_connected_set(g, data)
    if not naive_m_connected(g, d, 2):
        d = _phase_outcome(diversification, g, d)
        assume(isinstance(d, frozenset))
    expected = _phase_outcome(naive_sustainability, g, d)
    assert _phase_outcome(sustainability, g, d) == expected


@given(seeds, st.integers(1, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_diversification_matches_the_round_by_round_reference(seed, edge_bias, data):
    # the backbone, or the error with its message and witness, is that of
    # the loop that repairs each round's first leaf block by the naive
    # block-cut tree; a drawn set may also be disconnected
    g = random_graph(seed, max_nodes=12, edge_bias=edge_bias)
    if data.draw(st.booleans()):
        d = _draw_connected_set(g, data)
    else:
        d = data.draw(st.sets(st.integers(0, g.node_count - 1), min_size=1))
    expected = _phase_outcome(naive_diversification, g, d)
    assert _phase_outcome(diversification, g, d) == expected


@given(seeds, st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_run_plutus_matches_the_whole_pipeline_reference(seed, k, m, data):
    # the result file's bytes, or the error with its message and witness,
    # are those of the pipeline composed from the slow references alone;
    # an arbitrary graph may be disconnected
    if data.draw(st.booleans()):
        g = random_connected_graph(seed, max_nodes=12)
    else:
        g = random_graph(seed, max_nodes=12, edge_bias=data.draw(st.integers(1, 3)))
    cfg = PlutusConfig(k=k, m=m)

    def outcome(run):
        found = _phase_outcome(run, g, cfg)
        return result_to_dict(found, cfg) if isinstance(found, PlutusResult) else found

    assert outcome(run_plutus) == outcome(naive_run_plutus)


def test_stuck_sustainability_witness_may_be_a_promoted_vertex():
    # the BFS prefix {1, 2, 4} from 4 is not 2-connected; diversification
    # makes it {1, 2, 4, 6}, and sustainability gets stuck at vertex 0,
    # which it promoted itself
    g = random_graph(1_000_000, max_nodes=12, edge_bias=3)
    d = diversification(g, {1, 2, 4})
    assert d == {1, 2, 4, 6}
    with pytest.raises(GraphNotMConnectedError) as info:
        sustainability(g, d)
    assert info.value.witness == (0,)
    _check_stuck_phase(g, sustainability, d, 3)


def _count_builds(monkeypatch):
    """Record every induced-adjacency build of a phase, by the pipeline or
    by a graph routine it calls, as ``("rows", members, rows)``."""
    builds = []
    induced_rows = pipeline._induced_rows

    def record_rows(graph, nodes):
        builds.append(("rows", list(nodes), induced_rows(graph, nodes)))
        return builds[-1][2]

    monkeypatch.setattr(pipeline, "_induced_rows", record_rows)
    monkeypatch.setattr(plutus.graph, "_induced_rows", record_rows)
    return builds


def _recorded_rounds(monkeypatch, phase, g, backbone):
    """Run ``phase`` (diversification or sustainability) and return, per
    round, the sorted backbone, the bad point it repairs (an id, or None
    in the last round and in every diversification round), the leaf block
    handed to the round step (``_repair_path``) as a frozenset of ids
    (None in a round on at most two members) and the promoted path (None
    in the last round); and the phase's calls in order: "engine" for a
    bad-point pass, "stale" for a candidate test that finds its candidate
    good and "round" for one that opens a round.

    At m = 2 a round opens with each leaf query of the block-cut tree
    (``first_leaf``), the last one finding the backbone 2-connected, and
    the tree's blocks and cut vertices must then be those of the backbone
    so far.  At m = 3 a round opens with each split of the backbone minus
    a candidate (``_split_without``) that finds the candidate bad, and
    the last round is the backbone returned.  The cut vertex handed with a
    leaf must lie in it and disconnect the round's set.

    Diversification builds no adjacency: its one block DFS reads the
    graph's own with the sorted input as members.  In sustainability each
    engine pass, split and block DFS must see the one adjacency the phase
    keeps: rows equal to a fresh reference local adjacency mapped to ids,
    over the sorted backbone so far, the input plus every promoted path.
    The member list is that backbone, without the split's candidate for
    the block DFS of a split; and no other adjacency is built."""
    rounds: list[list] = []
    calls: list[str] = []
    kept = []  # the adjacency each call reads
    splitting = []  # the candidate of the split under way
    bad_points = pipeline._bad_points
    local_blocks = pipeline._local_blocks
    split_without = pipeline._split_without
    repair_path = pipeline._repair_path
    builds = _count_builds(monkeypatch)

    def grown():
        nodes = set(backbone)
        for _, _, _, path in rounds:
            nodes.update(path[1:-1])
        return sorted(nodes)

    def check_adjacency(adj, members, without=()):
        nodes = grown()
        assert list(members) == [v for v in nodes if v not in without]
        fresh = local_adjacency(g, nodes)
        assert [adj[v] for v in nodes] == [[nodes[j] for j in row] for row in fresh]
        assert all(adj[v] == [] for v in range(g.node_count) if v not in nodes)
        kept.append(adj)

    def record_bad(adj, members):
        check_adjacency(adj, members)
        calls.append("engine")
        return bad_points(adj, members)

    def record_blocks(adj, members):
        if phase is diversification:
            assert adj is g.adjacency and list(members) == grown()
        else:
            check_adjacency(adj, members, splitting)
        return local_blocks(adj, members)

    def record_split(adj, members, v, *rest):
        check_adjacency(adj, members)
        splitting[:] = [v]
        split = split_without(adj, members, v, *rest)
        calls.append("stale" if split is None else "round")
        if split is not None:
            rounds.append([list(members), v, None, None])
        return split

    class RecordedTree(pipeline._BlockCutTree):
        __slots__ = ()

        def first_leaf(self):
            nodes = grown()
            assert_tree_matches(g, self, nodes)
            calls.append("round")
            rounds.append([nodes, None, None, None])
            return super().first_leaf()

    def record_repair(graph, nodes, bad, leaf, c):
        path = repair_path(graph, nodes, bad, leaf, c)
        if isinstance(leaf, pipeline._Remainder):
            leaf = frozenset(v for v in rounds[-1][0] if v not in leaf.rest and v != bad)
        if leaf is not None:
            rest = set(rounds[-1][0]) - {bad}
            assert c in leaf and not induced_connected(g, rest - {c})
            leaf = frozenset(leaf)
        rounds[-1][2:] = leaf, path
        return path

    monkeypatch.setattr(pipeline, "_bad_points", record_bad)
    monkeypatch.setattr(pipeline, "_local_blocks", record_blocks)
    monkeypatch.setattr(pipeline, "_split_without", record_split)
    monkeypatch.setattr(pipeline, "_BlockCutTree", RecordedTree)
    monkeypatch.setattr(pipeline, "_repair_path", record_repair)
    result = phase(g, backbone)
    if phase is sustainability:
        rounds.append([grown(), None, None, None])
    assert rounds[-1][0] == sorted(result)
    assert [kind for kind, _, _ in builds] == ([] if phase is diversification else ["rows"])
    assert all(adj is builds[0][2] for adj in kept)
    return rounds, calls


class TestSustainabilityRounds:
    """Every bad point sustainability repairs is the lowest one of that
    round's backbone, by the removal-subset reference, and the leaf block
    and path of the round are those of the reference round on the
    backbone minus it.  The bad point is also what a sweep returns that
    skips the members found good in earlier rounds, unless a later path
    ended at them: an open ear between two other members keeps the
    backbone minus any such member 2-connected.  The phase opens with one
    bad-point pass and runs another right after each round whose ear has
    two or more vertices, and never otherwise: a candidate test that finds
    its candidate good drops it and tests the next one.  Rounds are
    answered from the partners, or by the block DFS of the backbone minus
    the candidate where the engine's budget or the work cap sends them."""

    def check(self, monkeypatch, g, backbone=None):
        if backbone is None:
            backbone = run_plutus(g, PlutusConfig(k=2, m=2)).dominating_set
        rounds, calls = _recorded_rounds(monkeypatch, sustainability, g, backbone)
        assert rounds[-1][1] is None
        assert calls[0] == "engine"
        opened = 0
        for before, call in zip(calls, calls[1:]):
            long_ear = False
            if before == "round":
                long_ear = len(rounds[opened][3]) > 3
                opened += 1
            assert (call == "engine") == long_ear
        known_good: set[int] = set()
        for nodes, bad, leaf, path in rounds:
            assert bad == naive_lowest_bad_point(g, nodes)
            swept = next(
                (v for v in nodes
                 if v not in known_good and not naive_m_connected(g, set(nodes) - {v}, 2)),
                None,
            )
            assert swept == bad
            known_good.update(v for v in nodes if swept is None or v < swept)
            if path is not None:
                known_good -= {path[0], path[-1]}
                members = set(nodes)
                stuck, expected = _naive_round(g, members - {bad}, lambda x: x not in members)
                assert path == expected
                assert leaf == (None if len(nodes) <= 3 else stuck)
        return rounds, calls

    @pytest.mark.parametrize("n, radius, seed", [(40, 0.3, 11), (60, 0.25, 16), (120, 0.16, 22)])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_unit_disk_graphs(self, monkeypatch, n, radius, seed, shuffled):
        g = random_geometric(n, radius, seed).graph()
        if shuffled:
            g = relabel(g, sorted(range(n), key=lambda v: splitmix64(seed, v)))
        assert is_m_connected(g, range(n), 3)
        rounds, _ = self.check(monkeypatch, g)
        assert len(rounds) > 3

    def test_fewer_engine_passes_than_rounds(self, monkeypatch):
        # the candidates carried between rounds spare most passes
        g = random_geometric(120, 0.16, 22).graph()
        rounds, calls = self.check(monkeypatch, g)
        assert calls.count("engine") < len(rounds) - 1

    def test_backbones_that_fall_back_to_the_block_dfs(self, monkeypatch):
        for g, d in [*_past_budget_graphs(12), _hub_over_a_cycle()]:
            with pytest.MonkeyPatch.context() as patch:
                rounds, _ = self.check(patch, g, d)
            assert len(rounds) > 3

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, seed):
        g = random_graph(seed, max_nodes=12, edge_bias=3)
        assume(is_m_connected(g, range(g.node_count), 3))
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check(monkeypatch, g)


def _past_budget_graphs(n):
    """A cycle of n vertices and a ladder of two n-vertex rails, each as
    the backbone range(size) of a graph with one repair vertex beside
    each backbone vertex v, joined to v, to the next one and to the one
    halfway round.  A cycle has n (n - 3) / 2 separation pairs, and a
    ladder whose rungs stand eight rail edges apart about 2.5 per vertex,
    both past the engine's budget of |D| + E(D)."""
    rails = [(i, i + 1) for i in range(n - 1)] + [(n + i, n + i + 1) for i in range(n - 1)]
    ladder = rails + [(0, n), (n - 1, 2 * n - 1)] + [(i, n + i) for i in range(8, n - 1, 8)]
    cycle = [(i, (i + 1) % n) for i in range(n)]
    for edges, size in ((cycle, n), (ladder, 2 * n)):
        repairs = [(size + v, w) for v in range(size) for w in (v, (v + 1) % size, (v + size // 2) % size)]
        yield from_edge_list(2 * size, edges + repairs), range(size)


def _hub_over_a_cycle():
    """A 16-cycle with a hub on every fourth vertex, as the backbone
    range(17), and a repair vertex beside each cycle vertex.  Vertex 0's
    partners lie along two arcs, and their searches read more entries
    than the block DFS of D - 0, so its test falls back to it."""
    n = 16
    edges = [(i, (i + 1) % n) for i in range(n)] + [(n, i) for i in range(0, n, 4)]
    repairs = [(n + 1 + i, (i + j) % n) for i in range(n) for j in (0, 1, n // 2)]
    return from_edge_list(2 * n + 1, edges + repairs), range(n + 1)


def _partner_rounds(g, d):
    """Run sustainability on ``d`` and return its outcome and one entry
    per candidate test: the candidate, how its test was answered
    ("partners", "dfs" or "stale") and whether a search hit the work cap.

    At each test, while the phase holds a partner map, the map must hold
    every separation pair of the backbone, by the removal-subset
    reference.  After every test that held a map, answered by the partner
    route or by the block DFS it fell back to, the candidate's partners
    must be exactly the cut vertices of the backbone minus it by
    :func:`naive_block_cut_tree`: none when the candidate was stale."""
    tests = []
    split_without = pipeline._split_without
    local_blocks = pipeline._local_blocks
    small_sides = pipeline._small_sides
    route: list = []

    def record_blocks(adj, members):
        route.append("dfs")
        return local_blocks(adj, members)

    def record_sides(*args):
        found = small_sides(*args)
        if found is None:
            route.append("capped")
        return found

    def record_split(adj, members, v, partners, work):
        nodes = set(members)
        if partners is not None:
            for a, b in itertools.combinations(sorted(nodes), 2):
                if not induced_connected(g, nodes - {a, b}):
                    assert b in partners.get(a, ()) and a in partners.get(b, ())
        route.clear()
        split = split_without(adj, members, v, partners, work)
        how = "dfs" if "dfs" in route else "stale" if split is None else "partners"
        if partners is not None:
            rest = nodes - {v}
            expected = naive_block_cut_tree(g, rest).cut_vertices if len(rest) > 2 else set()
            assert partners.get(v, set()) == expected
        tests.append((v, how, "capped" in route))
        return split

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(pipeline, "_split_without", record_split)
        monkeypatch.setattr(pipeline, "_local_blocks", record_blocks)
        monkeypatch.setattr(pipeline, "_small_sides", record_sides)
        return _phase_outcome(sustainability, g, d), tests


class TestPartnerRounds:
    """The partner route of a sustainability round: the map of separation
    pairs the engine records and the ears keep, and the interleaved
    searches that find the small sides of each pair.  Every outcome must
    be that of the round-by-round reference."""

    @given(seeds, st.integers(1, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_partners_are_the_cut_vertices_of_each_round(self, seed, edge_bias, data):
        g = random_graph(seed, max_nodes=12, edge_bias=edge_bias)
        d = _draw_connected_set(g, data)
        if not naive_m_connected(g, d, 2):
            d = _phase_outcome(diversification, g, d)
            assume(isinstance(d, frozenset))
        outcome, _ = _partner_rounds(g, d)
        assert outcome == _phase_outcome(naive_sustainability, g, d)

    @pytest.mark.parametrize("n", [12, 40])
    def test_cycle_and_ladder_past_the_budget(self, n):
        # the first pass records no pairs, and rounds take the block DFS
        # until a pass on a grown backbone fits the budget
        for g, d in _past_budget_graphs(n):
            outcome, tests = _partner_rounds(g, d)
            assert outcome == _phase_outcome(naive_sustainability, g, d)
            bad, pairs = pipeline._bad_points(local_adjacency(g, d), d)
            assert bad == list(d) and pairs is None and tests[0][1] == "dfs"

    def test_an_ear_makes_its_ends_a_pair(self):
        # {0, 2} does not separate D = {0, 1, 2, 3}; the round on its bad
        # point 1 adds the ear 0-4-2, and 4 has no other backbone
        # neighbour, so {0, 2} separates 4 from {1, 3}.  No engine pass
        # comes between, so only the ear's update records the pair, and
        # the next round takes the partner route from it.
        g = from_edge_list(7, [
            (0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5),
            (1, 6), (2, 3), (2, 4), (2, 6), (3, 5), (3, 6), (4, 6),
        ])
        d = {0, 1, 2, 3}
        assert induced_connected(g, d - {0, 2})
        outcome, tests = _partner_rounds(g, d)
        assert outcome == _phase_outcome(naive_sustainability, g, d)
        assert [(v, how) for v, how, _ in tests[:2]] == [(1, "partners"), (0, "partners")]

    def test_a_long_ear_records_the_pairs_again(self, monkeypatch):
        # D is the 4-cycle 0-1-2-3 and its lowest bad point is 0.  The
        # leaf {1, 2} of D - 0 reaches 3 only by the ear 1-4-5-3, which
        # makes {1, 3}, {1, 5} and {3, 4} the pairs of the grown backbone,
        # so one more engine pass records them; the hub 6 then repairs
        # bad point 1 by a one-vertex ear, and the phase ends
        g = from_edge_list(7, [
            (0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 3),
            (6, 0), (6, 2), (6, 4), (6, 5),
        ])
        d = {0, 1, 2, 3}
        recorded = []
        bad_points = pipeline._bad_points

        def record(rows, members):
            bad, partners = bad_points(rows, members)
            copied = {v: set(w) for v, w in (partners or {}).items()}
            recorded.append((list(members), list(bad), copied))
            return bad, partners

        monkeypatch.setattr(pipeline, "_bad_points", record)
        outcome, tests = _partner_rounds(g, d)
        assert outcome == frozenset(range(7)) == naive_sustainability(g, d)
        assert [members for members, _, _ in recorded] == [[0, 1, 2, 3], [0, 1, 2, 3, 4, 5]]
        members, bad, partners = recorded[1]
        assert bad_points(_induced_rows(g, members), members) == (bad, partners)
        assert bad == [1, 3, 4, 5]
        assert partners == {1: {3, 5}, 3: {1, 4}, 4: {3}, 5: {1}}
        # the entry map and the recorded one each answer a round
        assert [(v, how) for v, how, _ in tests[:2]] == [(0, "partners"), (1, "partners")]

    def test_a_hub_over_a_cycle_hits_the_work_cap(self):
        g, d = _hub_over_a_cycle()
        outcome, tests = _partner_rounds(g, d)
        assert outcome == _phase_outcome(naive_sustainability, g, d)
        assert (0, "dfs", True) in tests
        assert any(how == "partners" for _, how, _ in tests)
        # each fallback DFS leaves vertex 0 only the partners that still
        # separate, so its searches hit the cap twice, not three times;
        # once repaired it tests good and leaves the candidates, and so it
        # does again after a one-vertex ear ending at it pushes it back
        assert [how for v, how, _ in tests if v == 0] == [
            "dfs", "dfs", "partners", "partners", "stale", "stale"
        ]

    def test_last_two_searches_finish_in_the_same_pass(self):
        # D is the 4-cycle 1-5-3-7 and its lowest bad point is 1.  D - 1
        # is the path 5-3-7 with partner 3, whose two searches, from 5 and
        # from 7, both finish in the first pass: one of them must stay the
        # large side, or no block is left to name by exclusion.
        g = from_edge_list(8, [(1, 5), (5, 3), (3, 7), (7, 1), (0, 1), (0, 3), (0, 5), (0, 7)])
        d = {1, 3, 5, 7}
        outcome, tests = _partner_rounds(g, d)
        assert outcome == frozenset({0, 1, 3, 5, 7}) == naive_sustainability(g, d)
        assert tests[0] == (1, "partners", False)

    def test_a_split_with_no_top_level_partner_is_an_internal_error(self, monkeypatch):
        # some partner of v is in no other partner's small side, as
        # _split_without proves; searches that put each of 0's partners
        # 2, 3 and 4 in C_6 in the small sides of the other two break
        # that, and the split raises rather than name no leaf
        g = cycle_graph(6)
        members = list(range(6))
        partners = {0: {2, 3, 4}, 2: {0}, 3: {0}, 4: {0}}

        def crossed_sides(adj, v, c, work):
            return partners[v] - {c}, 0, 2

        monkeypatch.setattr(pipeline, "_small_sides", crossed_sides)
        with pytest.raises(AssertionError, match=r"^no partner of 0 is top-level: \[2, 3, 4\]$"):
            pipeline._split_without(_induced_rows(g, members), members, 0, partners, 100)


def _tree_of_blocks(seed):
    """A seeded tree of 2-6 blocks, each hung from a vertex of an earlier
    one, plus one extra vertex joined to 2-6 random draws (repeats merge)
    and to a vertex other than the cut vertex of each leaf block, so the
    graph is 2-connected; relabelled.  A block is a cycle, a clique or a
    wheel of 2-14 vertices (a clique when it has at most three)."""
    draw = itertools.count(1)
    rand = lambda bound: splitmix64(seed, next(draw)) % bound
    n, blocks, edges = 1, [], []
    for _ in range(2 + rand(5)):
        size, kind = 2 + rand(13), rand(3)
        block = [rand(n), *range(n, n + size - 1)]
        n += size - 1
        wheel = kind == 2 and size >= 4
        ring = block[:-1] if wheel else block
        if kind == 1 or size <= 3:
            edges += itertools.combinations(block, 2)
        else:
            edges += [(v, ring[j - 1]) for j, v in enumerate(ring)]
            edges += [(block[-1], v) for v in ring] if wheel else []
        blocks.append(block)
    joints = {b[0] for b in blocks[1:]}
    near = set()
    for block in blocks:
        inner = [v for v in block if v not in joints]
        if len(inner) == len(block) - 1:  # a leaf
            near.add(inner[rand(len(inner))])
    for _ in range(2 + rand(5)):
        near.add(rand(n))
    g = from_edge_list(n + 1, edges + [(n, v) for v in near])
    return relabel(g, sorted(range(n + 1), key=lambda v: splitmix64(seed, 1000 + v)))


def test_partner_route_agrees_with_the_block_dfs(monkeypatch):
    # for every bad point v of a 2-connected graph whose entry pass
    # records the partner map, the partner route with unlimited work runs
    # no block DFS of D - v, as some partner is always top-level, and
    # names the same leaf, cut vertex and component count as the DFS
    local_blocks = pipeline._local_blocks
    searched = []

    def count_blocks(adj, members):
        searched.append(members)
        return local_blocks(adj, members)

    def key(split, members, v):
        leaf, c, parts = split
        if isinstance(leaf, pipeline._Remainder):
            leaf = set(members) - leaf.rest - {v}
        return (None if leaf is None else sorted(leaf)), c, parts

    monkeypatch.setattr(pipeline, "_local_blocks", count_blocks)
    graphs = [random_graph(seed, 12, 3) for seed in range(1000)]
    graphs += [_tree_of_blocks(seed) for seed in range(300)]
    splits = 0
    for g in graphs:
        members = list(range(g.node_count))
        rows = _induced_rows(g, members)
        bad, partners = pipeline._bad_points(rows, members)
        if not bad or not partners:
            continue
        for v in bad:
            expected = pipeline._split_without(rows, members, v, None, 0)
            searched.clear()
            mapped = {u: set(p) for u, p in partners.items()}
            split = pipeline._split_without(rows, members, v, mapped, float("inf"))
            assert searched == [] and key(split, members, v) == key(expected, members, v)
            splits += 1
    assert splits > 1000


@pytest.mark.parametrize("n, radius, seed, rounds", [
    (500, 0.09, 28, 35), (1000, 0.064, 18, 63), (2000, 0.046, 36, 96), (4000, 0.0325, 100, 167),
])
def test_one_engine_pass_per_phase_on_the_m3_corpus(monkeypatch, n, radius, seed, rounds):
    # on the unit-disk corpus at k = 2 no round's ear has two vertices, so
    # the entry pass is the phase's only one: every later candidate test
    # is answered from the partners, or by one block DFS
    g = random_geometric(n, radius, seed).graph()
    backbone = run_plutus(g, PlutusConfig(k=2, m=2)).dominating_set
    bad_points = pipeline._bad_points
    split_without = pipeline._split_without
    passes, opened = [], []

    def count_passes(*args):
        passes.append(args)
        return bad_points(*args)

    def count_rounds(*args):
        split = split_without(*args)
        if split is not None:
            opened.append(args[2])
        return split

    monkeypatch.setattr(pipeline, "_bad_points", count_passes)
    monkeypatch.setattr(pipeline, "_split_without", count_rounds)
    sustainability(g, backbone)
    assert (len(passes), len(opened)) == (1, rounds)


def test_partner_route_on_every_backbone_of_the_oracle_corpus(monkeypatch):
    # the twelve small-oracle graphs of the benchmark at k = 2, m = 3:
    # every engine pass records the pairs, however small the backbone,
    # so only 8 of the 138 candidate tests run a block DFS of D - v
    bad_points = pipeline._bad_points
    split_without = pipeline._split_without
    local_blocks = pipeline._local_blocks
    passes, tests, searched = [], [], []

    def count_passes(*args):
        passes.append(args)
        return bad_points(*args)

    def count_tests(*args):
        tests.append(args)
        return split_without(*args)

    def count_blocks(adj, members):
        if adj is not g.adjacency:  # not diversification's entry: a block DFS of D - v
            searched.append(members)
        return local_blocks(adj, members)

    monkeypatch.setattr(pipeline, "_bad_points", count_passes)
    monkeypatch.setattr(pipeline, "_split_without", count_tests)
    monkeypatch.setattr(pipeline, "_local_blocks", count_blocks)
    for n, bases in ((18, (2, 4, 10, 12)), (19, (2, 4, 10, 11)), (20, (2, 4, 10, 11))):
        for seed in bases:
            g = random_geometric(n, 0.45, seed).graph()
            run_plutus(g, PlutusConfig(k=2, m=3))
    assert (len(tests), len(passes), len(searched)) == (138, 12, 8)


@pytest.mark.parametrize("n, radius, seed, searches, read", [
    (500, 0.09, 28, 66, 3986), (1000, 0.064, 18, 137, 11621),
    (2000, 0.046, 36, 217, 24342), (4000, 0.0325, 100, 371, 65534),
])
def test_repaired_pairs_are_not_searched_again_on_the_m3_corpus(
    monkeypatch, n, radius, seed, searches, read
):
    # every round's one-vertex ear joins the only two sides of its pair
    # {bad point, cut vertex}, so the round retires the pair, and no later
    # test of the bad point searches it again: at the parent of this rule
    # the same phases ran 101 / 200 / 313 / 538 small-side searches,
    # reading 5862 / 17734 / 38880 / 102741 adjacency entries
    g = random_geometric(n, radius, seed).graph()
    backbone = run_plutus(g, PlutusConfig(k=2, m=2)).dominating_set
    small_sides = pipeline._small_sides
    reads = []

    def count_reads(*args):
        found = small_sides(*args)
        reads.append(0 if found is None else found[1])  # None: past the work cap
        return found

    monkeypatch.setattr(pipeline, "_small_sides", count_reads)
    sustainability(g, backbone)
    assert (len(reads), sum(reads)) == (searches, read)


def test_every_leaf_round_tests_membership_in_one_side(monkeypatch):
    # a round that reconnects a leaf block lists one side of its path
    # search and hands it the other as one membership test (_Excluding)
    # of the backbone: a leaf of at most half the round's set is listed
    # against the rest of the set, and a larger leaf, like a leaf named by
    # exclusion (a partner-route _Remainder), is the test, searched back
    # from the rest, listed (for a listed leaf, by one set difference).
    # The rule is the same in both phases and on both routes of a
    # sustainability round: the partner route, and the block DFS it falls
    # back to past the engine's budget or the work cap
    g = random_geometric(120, 0.16, 22).graph()
    excluding = pipeline._Excluding
    split_without = pipeline._split_without
    augment_leaf_block = pipeline._augment_leaf_block
    local_blocks = pipeline._local_blocks
    built, route, sides = [], [], []

    def count_excluding(*args):
        built.append(args)
        return excluding(*args)

    def record_sides(graph, leaf, c, backbone, bad):
        before = len(built)
        path = augment_leaf_block(graph, leaf, c, backbone, bad)
        ((tested, skip),) = built[before:]
        if isinstance(leaf, pipeline._Remainder):
            kind, members = "remainder", backbone - leaf.rest - {bad}
        else:
            kind = "big" if 2 * len(leaf) > len(backbone) - (bad >= 0) else "small"
            members = leaf
        admitted = {y for y in backbone if y not in skip}
        assert tested is backbone
        assert admitted == (backbone - members - {bad} if kind == "small" else members - {c})
        sides.append((route[-1] if route else "tree", kind))
        return path

    def record_blocks(adj, members):
        route.append("dfs")
        return local_blocks(adj, members)

    def record_split(*args):
        route[:] = ["partners"]
        return split_without(*args)

    monkeypatch.setattr(pipeline, "_Excluding", count_excluding)
    monkeypatch.setattr(pipeline, "_augment_leaf_block", record_sides)
    for k in (1, 2):
        diversification(g, run_plutus(g, PlutusConfig(k=k, m=1)).dominating_set)
    assert set(sides) == {("tree", "small"), ("tree", "big")}

    monkeypatch.setattr(pipeline, "_local_blocks", record_blocks)
    monkeypatch.setattr(pipeline, "_split_without", record_split)
    partner_sides = {("partners", "remainder"), ("partners", "small")}
    dfs_sides = {("dfs", "small"), ("dfs", "big")}
    cases = [
        (udg, run_plutus(udg, PlutusConfig(k=2, m=2)).dominating_set, partner_sides)
        for udg in (g, random_geometric(40, 0.3, 11).graph())
    ]
    cycle, _ = _past_budget_graphs(12)  # the ladder's rounds take the same sides
    cases.append((*cycle, dfs_sides))
    cases.append((*_hub_over_a_cycle(), dfs_sides | {("partners", "remainder")}))
    for g, backbone, seen in cases:
        sides.clear()
        sustainability(g, backbone)
        assert set(sides) == seen


class TestDiversificationRounds:
    """Every leaf block diversification repairs is the smallest-member leaf
    of that round's backbone by the naive block-cut tree, and the path it
    promotes is the one simple-path enumeration finds for that leaf.  A
    lone member adopts its smallest neighbour and a pair takes the shortest
    route that avoids its own edge."""

    def check(self, monkeypatch, g, k):
        backbone = run_plutus(g, PlutusConfig(k=k, m=1)).dominating_set
        rounds, calls = _recorded_rounds(monkeypatch, diversification, g, backbone)
        assert set(calls) == {"round"}
        assert rounds[-1][3] is None
        assert naive_m_connected(g, rounds[-1][0], 2)
        for nodes, bad, leaf, path in rounds[:-1]:
            assert bad is None
            members = set(nodes)
            outside = lambda x: x not in members
            u, v = nodes[0], nodes[-1]
            if len(nodes) == 1:
                assert leaf is None and path == [u, g.adjacency[u][0], u]
            elif len(nodes) == 2:
                without_uv = from_edge_list(
                    g.node_count, [e for e in g.edges() if set(e) != {u, v}]
                )
                assert leaf is None
                assert path == naive_lex_shortest_path(without_uv, (u,), (v,), outside)
            else:
                tree = naive_block_cut_tree(g, nodes)
                assert leaf == tree.leaf_blocks[0]
                expected = naive_lex_shortest_path(
                    g, leaf - tree.cut_vertices, members - leaf, outside
                )
                assert path == expected
        return rounds

    @pytest.mark.parametrize("n, radius, seed", [(40, 0.3, 11), (60, 0.25, 16), (120, 0.16, 22)])
    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("k", [1, 2])
    def test_unit_disk_graphs(self, monkeypatch, n, radius, seed, shuffled, k):
        g = random_geometric(n, radius, seed).graph()
        if shuffled:
            g = relabel(g, sorted(range(n), key=lambda v: splitmix64(seed, v)))
        assert is_m_connected(g, range(n), 2)
        assert len(self.check(monkeypatch, g, k)) > 1

    @given(seeds, st.sampled_from([1, 2]))
    @settings(max_examples=100, deadline=None)
    def test_random_graphs(self, seed, k):
        g = random_graph(seed, max_nodes=12)
        assume(is_m_connected(g, range(g.node_count), 2))
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check(monkeypatch, g, k)


def test_diversification_runs_one_block_dfs_per_phase(monkeypatch):
    # the entry block DFS is the connectivity check and seeds the block-cut
    # tree; every later round reads its leaf from the tree, so each phase
    # runs exactly one block DFS, on the graph's own adjacency, and builds
    # no induced rows
    g = random_geometric(120, 0.16, 22).graph()
    local_blocks = pipeline._local_blocks
    first_leaf = pipeline._BlockCutTree.first_leaf
    for k in (1, 2):
        backbone = run_plutus(g, PlutusConfig(k=k, m=1)).dominating_set
        decomposed, rounds = [], []

        def record_blocks(adj, members):
            decomposed.append((adj, list(members)))
            return local_blocks(adj, members)

        def record_round(tree):
            rounds.append(tree)
            return first_leaf(tree)

        with pytest.MonkeyPatch.context() as patch:
            builds = _count_builds(patch)
            patch.setattr(pipeline, "_local_blocks", record_blocks)
            patch.setattr(pipeline._BlockCutTree, "first_leaf", record_round)
            grown = diversification(g, backbone)
        assert len(rounds) > 1 and len(grown) > len(backbone)
        assert builds == []
        assert decomposed == [(g.adjacency, sorted(backbone))]


def test_sustainability_builds_its_induced_graph_once(monkeypatch):
    # the entry check is the first engine pass, over the rows the loop
    # then keeps; every engine pass and every candidate test, on either
    # route, reads those rows, and every block DFS is that of a candidate
    # test, over its set without the candidate
    g = random_geometric(120, 0.16, 22).graph()
    backbone = run_plutus(g, PlutusConfig(k=2, m=2)).dominating_set
    local_blocks = pipeline._local_blocks
    bad_points = pipeline._bad_points
    split_without = pipeline._split_without
    checks = []
    splitting = []  # the members and candidate of the split under way

    def record_blocks(adj, members):
        assert list(members) == [u for u in splitting[0] if u != splitting[1]]
        checks.append(("blocks", adj, splitting[1]))
        return local_blocks(adj, members)

    def record_bad(adj, members):
        checks.append(("bad", adj, None))
        return bad_points(adj, members)

    def record_split(adj, members, v, *rest):
        checks.append(("split", adj, v))
        splitting[:] = list(members), v
        return split_without(adj, members, v, *rest)

    with pytest.MonkeyPatch.context() as patch:
        builds = _count_builds(patch)
        patch.setattr(pipeline, "_local_blocks", record_blocks)
        patch.setattr(pipeline, "_bad_points", record_bad)
        patch.setattr(pipeline, "_split_without", record_split)
        grown = sustainability(g, backbone)
    assert [(kind, members) for kind, members, _ in builds] == [("rows", sorted(backbone))]
    assert [kind for kind, _, _ in checks[:2]] == ["bad", "split"]
    assert any(kind == "blocks" for kind, _, _ in checks)
    assert all(adj is builds[0][2] for _, adj, _ in checks)
    assert is_m_connected(g, grown, 3) and len(grown) > len(backbone)
    builds = _count_builds(monkeypatch)
    # a set that is disconnected, has a cut vertex or is too small is
    # rejected after the same single build
    for g, rejected in (
        (path_graph(5), {0, 1, 3, 4}),
        (path_graph(5), {0, 1, 2, 3}),
        (path_graph(5), {1, 2, 3}),
        (complete_graph(4), {0, 1}),
    ):
        builds.clear()
        with pytest.raises(GraphInputError, match="^sustainability requires a 2-connected input set$"):
            sustainability(g, rejected)
        assert [kind for kind, _, _ in builds] == ["rows"]


class TestAugmentationPaths:
    """Both augmentation steps take the lexicographically smallest
    shortest path through vertices outside the backbone, checked against
    simple-path enumeration on random graphs with random blocked sets,
    each a forbidden set plus the complement of a constraint."""

    @given(st.data())
    @settings(max_examples=300)
    def test_leaf_block_path(self, data):
        g = random_connected_graph(data.draw(seeds))
        assume(g.node_count >= 3)
        nodes = st.integers(0, g.node_count - 1)
        base = data.draw(st.sets(nodes, min_size=3))
        assume(is_connected(g, base))
        tree = naive_block_cut_tree(g, base)
        assume(tree.leaf_blocks)
        blocked = base | data.draw(st.sets(nodes))
        constraint = data.draw(st.sets(nodes))
        blocked |= set(range(g.node_count)) - constraint
        leaf = tree.leaf_blocks[0]
        sources, targets = leaf - tree.cut_vertices, base - leaf
        expected = naive_lex_shortest_path(g, sources, targets, lambda x: x not in blocked)
        assert _lex_shortest_path(g, sources, targets, blocked) == expected
        members = sorted(base)
        blocks, cut = _local_blocks(_induced_rows(g, members), members)
        leaves = [b for b in blocks if len(cut.intersection(b)) == 1]
        assert sorted(map(frozenset, leaves), key=sorted) == list(tree.leaf_blocks)
        (c,) = leaf & tree.cut_vertices
        assert _first_leaf(leaves, cut) == (leaf, c)
        expected = naive_lex_shortest_path(g, sources, targets, lambda x: x not in base)
        assert _augment_leaf_block(g, leaf, c, base, -1) == expected

    @given(st.data())
    @settings(max_examples=300)
    def test_alternate_pair_path(self, data):
        g = random_connected_graph(data.draw(seeds))
        nodes = st.integers(0, g.node_count - 1)
        u, v = data.draw(st.sampled_from(list(g.edges())))
        if data.draw(st.booleans()):
            u, v = v, u
        blocked = {u, v} | data.draw(st.sets(nodes))
        constraint = data.draw(st.sets(nodes))
        blocked |= set(range(g.node_count)) - constraint
        # the second route must not be the edge itself: search without it
        without_uv = from_edge_list(
            g.node_count, [e for e in g.edges() if set(e) != {u, v}]
        )
        expected = naive_lex_shortest_path(without_uv, (u,), (v,), lambda x: x not in blocked)
        assert _alternate_pair_path(g, u, v, blocked) == expected

    @given(st.data())
    @settings(max_examples=100)
    def test_lone_member_adopts_smallest_allowed_neighbour(self, data):
        g = random_connected_graph(data.draw(seeds))
        v = data.draw(st.integers(0, g.node_count - 1))
        allowed = data.draw(st.sets(st.integers(0, g.node_count - 1))) - {v}
        blocked = set(range(g.node_count)) - allowed
        adopted = [w for w in g.adjacency[v] if w in allowed]
        expected = [v, adopted[0], v] if adopted else None
        assert _alternate_pair_path(g, v, v, blocked) == expected

    def test_every_leaf_form_takes_the_same_path(self):
        # a leaf of D - v reaches the round step listed, searched from when
        # it holds at most half the round's set and named by exclusion of
        # the rest when larger, or as a _Remainder of the rest: each form,
        # and a listed leaf forced past the half-size switch, takes the
        # path simple-path enumeration finds
        class Claimed(set):
            """A listed leaf that reports a chosen size."""

            def __len__(self):
                return self.size

        taken = set()
        for seed in range(300):
            g = random_connected_graph(seed, 14)
            try:
                backbone = set(run_plutus(g, PlutusConfig(k=1, m=2)).dominating_set)
            except GraphNotMConnectedError:
                continue
            members = sorted(backbone)
            outside = lambda x: x not in backbone
            for v in members:
                tree = naive_block_cut_tree(g, backbone - {v})
                for leaf in tree.leaf_blocks:
                    (c,) = leaf & tree.cut_vertices
                    rest = backbone - leaf - {v}
                    expected = naive_lex_shortest_path(g, leaf - {c}, rest, outside)
                    large = 2 * len(leaf) > len(backbone) - 1
                    forced = Claimed(leaf)
                    forced.size = 0 if large else len(backbone)
                    for form in (set(leaf), forced, pipeline._Remainder(rest, c, v, members)):
                        assert _augment_leaf_block(g, form, c, backbone, v) == expected
                    taken.add((large, expected is not None))
        assert taken == {(False, True), (True, True), (False, False), (True, False)}


class TestRunPlutus:
    def test_path_trace(self, p3):
        result = run_plutus(p3, PlutusConfig(k=1, m=1))
        assert result.dominating_set == frozenset({1})
        assert [t.size for t in result.phase_trace] == [1, 1, 1]
        assert [t.name for t in result.phase_trace] == [
            "isolation",
            "domination",
            "synergy",
        ]

    def test_complete_graph_full_pipeline(self, k4):
        result = run_plutus(k4, PlutusConfig(k=1, m=3))
        assert result.dominating_set == frozenset(range(4))
        assert [t.name for t in result.phase_trace] == [
            "isolation",
            "domination",
            "synergy",
            "diversification",
            "sustainability",
        ]

    def test_stuck_round_rejects_weak_graph(self, p3):
        with pytest.raises(GraphNotMConnectedError):
            run_plutus(p3, PlutusConfig(k=1, m=3))
        with pytest.raises(GraphNotMConnectedError):
            run_plutus(p3, PlutusConfig(k=1, m=2))

    def test_isolation_rejects_disconnected(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedInputError, match="^isolation requires a connected graph$"):
            run_plutus(g, PlutusConfig())

    def test_empty_graph(self):
        with pytest.raises(EmptyGraphError, match="^isolation needs at least one node$"):
            run_plutus(from_edge_list(0, []), PlutusConfig())

    def test_checks_connectivity_of_the_whole_graph_once(self, monkeypatch):
        # isolation's check is the run's only whole-graph component search
        g = random_geometric(200, 0.16, 1).graph()
        components = plutus.graph._components
        whole_graph = []

        def counting(graph, nodes):
            if len(nodes) == graph.node_count:
                whole_graph.append(nodes)
            return components(graph, nodes)

        monkeypatch.setattr(plutus.graph, "_components", counting)
        run_plutus(g, PlutusConfig(k=2, m=2))
        assert len(whole_graph) == 1

    def test_roles_match_backbone(self, c6):
        cfg = PlutusConfig(k=1, m=1)
        result = run_plutus(c6, cfg)
        roles = result_to_dict(result, cfg)["roles"]
        assert set(roles) == {str(v) for v in range(c6.node_count)}
        dominators = {int(v) for v, r in roles.items() if r == Role.DOMINATOR.value}
        assert dominators == set(result.dominating_set)
        assert set(roles.values()) == {
            Role.DOMINATOR.value,
            Role.DOMINATION_RELUCTANT.value,
        }

    def test_phase_times_on_trace_only(self, k4):
        result = run_plutus(k4, PlutusConfig(k=1, m=3))
        assert all(isinstance(t.micros, int) and t.micros >= 0 for t in result.phase_trace)
        slower = tuple(replace(t, micros=t.micros + 10**6) for t in result.phase_trace)
        assert replace(result, phase_trace=slower) == result
        text = repr(result_to_dict(result, PlutusConfig(k=1, m=3)))
        assert "micros" not in text

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_composed_phases_reproduce_run_plutus(self, m):
        # on every graph, whether the phases solve it or not: run_plutus
        # has no input checks of its own, so an empty or disconnected
        # graph gets isolation's error, message and witness
        graphs = [from_edge_list(0, [])]
        for seed in range(300):
            graphs += [random_connected_graph(seed), random_graph(seed, max_nodes=12, edge_bias=1)]
        cfg = PlutusConfig(k=2, m=m)
        solved = disconnected = 0
        for g in graphs:
            outcome = _phase_outcome(run_plutus, g, cfg)
            assert outcome == _phase_outcome(_composed_phases, g, cfg)
            solved += isinstance(outcome, PlutusResult)
            disconnected += outcome == (
                DisconnectedInputError, "isolation requires a connected graph", None
            )
        assert solved >= 10 and disconnected >= 20

    @pytest.mark.parametrize("m, backbone", [(2, {0, 1, 2}), (3, {0, 1, 2, 3})])
    def test_graph_that_is_not_m_connected_can_hold_a_backbone(self, m, backbone):
        # K4 with 4 hanging off 0 is not 2-connected, but at k = 1 < m the
        # phases build an optimal backbone; at k = 2 the pendant must join
        # it, so none exists and diversification gets stuck
        g = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
        assert not is_m_connected(g, range(5), 2)
        result = run_plutus(g, PlutusConfig(k=1, m=m))
        assert result.dominating_set == frozenset(backbone)
        assert is_m_connected_k_dominating(g, backbone, 1, m).overall
        assert brute_force_min_mcds(g, 1, m).optimum_size == len(backbone)
        with pytest.raises(GraphNotMConnectedError) as info:
            run_plutus(g, PlutusConfig(k=2, m=m))
        assert (info.value.m, info.value.witness) == (2, (0, 1))
        assert not brute_force_min_mcds(g, 2, m).feasible

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_isolation_runs_once(self, m, monkeypatch):
        import plutus.pipeline

        calls = []

        def counting(g):
            calls.append(g)
            return isolation(g)

        monkeypatch.setattr(plutus.pipeline, "isolation", counting)
        runs = 0
        for seed in range(120):
            g = random_connected_graph(seed)
            if m >= 2 and not is_m_connected(g, range(g.node_count), m):
                continue
            run_plutus(g, PlutusConfig(k=2, m=m))
            runs += 1
        assert runs >= 5
        assert len(calls) == runs

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_reused_first_layer_keeps_result_bytes(self, m, monkeypatch):
        import plutus.pipeline

        def recomputing(g, d, k, *, layer_one=None):
            return synergy_layers(g, d, k)

        cfg = PlutusConfig(k=2, m=m)
        results = []
        for seed in range(120):
            g = random_connected_graph(seed, max_nodes=12)
            if m >= 2 and not is_m_connected(g, range(g.node_count), m):
                continue
            results.append((g, dumps(result_to_dict(run_plutus(g, cfg), cfg))))
        assert len(results) >= 5
        monkeypatch.setattr(plutus.pipeline, "synergy_layers", recomputing)
        for g, text in results:
            assert dumps(result_to_dict(run_plutus(g, cfg), cfg)) == text

    def test_config_validation(self):
        with pytest.raises(GraphInputError):
            PlutusConfig(k=0)
        with pytest.raises(GraphInputError):
            PlutusConfig(m=4)

    @given(seeds, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_monotone_trace_and_certificate(self, seed, k, m):
        g = random_connected_graph(seed)
        if m >= 2 and not is_m_connected(g, range(g.node_count), m):
            return
        result = run_plutus(g, PlutusConfig(k=k, m=m))
        sizes = [t.size for t in result.phase_trace]
        assert sizes == sorted(sizes)
        grown: set[int] = set()
        for t in result.phase_trace:
            assert not (set(t.added) & grown)
            grown |= set(t.added)
            assert len(grown) == t.size
        assert grown == set(result.dominating_set)
        assert is_k_dominating(g, result.dominating_set, k)[0]
        assert is_m_connected(g, result.dominating_set, m)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, seed):
        g = random_connected_graph(seed)
        cfg = PlutusConfig(k=2, m=1)
        assert run_plutus(g, cfg) == run_plutus(g, cfg)


@pytest.mark.parametrize("value", [True, 2.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda g, v: PlutusConfig(k=v),
        lambda g, v: synergy_layers(g, range(g.node_count), v),
        lambda g, v: is_k_dominating(g, {0}, v),
        lambda g, v: brute_force_min_mcds(g, v, 1),
        lambda g, v: PlutusConfig(m=v),
        lambda g, v: is_m_connected(g, range(g.node_count), v),
        lambda g, v: brute_force_min_mcds(g, 1, v),
    ],
    ids=["config-k", "synergy-k", "k-dominating-k", "oracle-k",
         "config-m", "m-connected-m", "oracle-m"],
)
def test_k_and_m_must_be_genuine_ints(call, value, k4):
    with pytest.raises(GraphInputError):
        call(k4, value)


@pytest.mark.parametrize(
    "call",
    [domination, diversification, lambda g, s: is_m_connected(g, s, 2)],
    ids=["domination", "diversification", "m-connected"],
)
def test_empty_set_is_input_error(call, k4):
    with pytest.raises(GraphInputError, match="must be non-empty"):
        call(k4, [])


def test_non_int_members_rejected_before_sorting(k4):
    with pytest.raises(GraphInputError):
        is_k_dominating(k4, [1, "a"], 1)
    with pytest.raises(GraphInputError):
        diversification(k4, [[1]])
