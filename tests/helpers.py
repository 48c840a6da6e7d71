"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the library's own algorithms: the
m-connectivity twin enumerates removal subsets literally, the path
counter runs unit-capacity augmentation on a vertex-split digraph
(Menger's view of connectivity), the shortest-path twin enumerates
simple paths, the stretch twin runs two BFSs per source, the unit-disk
twin compares every pair of points, the block twin runs the
dict-based edge-stack DFS, the independent-set twin runs the greedy
rounds separately on each component, the domination twin finds its pairs
by one plain BFS per member and tests them against the components, the
diversification twin repairs the first leaf block of the block twin round
by round, the sustainability twin repairs the removal-subset lowest bad
point round by round, the pipeline twin composes the independent-set,
domination, diversification and sustainability twins, and the oracle
twin tries every subset against the package's checkers.  The local
adjacency relabels an induced subgraph onto local indices: the
traversals run on it too, and must agree with their runs on the rows
indexed by node id.  There are two exceptions.  The bad-point sweep
runs the package's m = 2 test once per member: it is independent of the
m = 3 engine it checks.  The block-cut tree check holds the incremental
tree to the package's block DFS as well as to the block twin.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import NamedTuple

from plutus import Graph, OracleResult, from_edge_list, is_k_dominating, is_m_connected
from plutus.graph import DistanceReport, _BlockCutTree, _induced_rows, _local_blocks
from plutus.geometry import splitmix64


def random_graph(seed: int, max_nodes: int = 9, edge_bias: int = 2) -> Graph:
    """Deterministic small random graph from a seed; edge present when a
    splitmix64 draw mod ``edge_bias + 1`` is nonzero."""
    n = 2 + splitmix64(seed, 0) % (max_nodes - 1)
    edges = []
    counter = 1
    for u in range(n):
        for v in range(u + 1, n):
            if splitmix64(seed, counter) % (edge_bias + 1):
                edges.append((u, v))
            counter += 1
    return from_edge_list(n, edges)


def random_connected_graph(seed: int, max_nodes: int = 9) -> Graph:
    """Deterministic connected random graph: a scrambled spanning path plus
    random extra edges."""
    n = 2 + splitmix64(seed, 0) % (max_nodes - 1)
    order = sorted(range(n), key=lambda v: splitmix64(seed, 100 + v))
    edges = [(order[i], order[i + 1]) for i in range(n - 1)]
    counter = 1
    for u in range(n):
        for v in range(u + 1, n):
            if splitmix64(seed, counter) % 3 == 0:
                edges.append((u, v))
            counter += 1
    return from_edge_list(n, edges)


def relabel(g: Graph, order: list[int]) -> Graph:
    """The same graph with old node order[i] renamed to i."""
    new = {old: i for i, old in enumerate(order)}
    return from_edge_list(g.node_count, [(new[u], new[v]) for u, v in g.edges()])


def naive_from_points(points, radius: float) -> Graph:
    """The unit-disk graph by comparing every pair of points with the
    closed-disk test on squared float differences, ``x_i - x_j`` for
    i < j."""
    pts = [(float(x), float(y)) for x, y in points]
    r2 = radius * radius
    edges = []
    for i in range(len(pts)):
        xi, yi = pts[i]
        for j in range(i + 1, len(pts)):
            dx = xi - pts[j][0]
            dy = yi - pts[j][1]
            if dx * dx + dy * dy <= r2:
                edges.append((i, j))
    return from_edge_list(len(pts), edges)


def _distances_from(g: Graph, source: int, expandable) -> list[int | None]:
    dist: list[int | None] = [None] * g.node_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        if x != source and not expandable(x):
            continue
        d = dist[x] + 1
        for y in g.adjacency[x]:
            if dist[y] is None:
                dist[y] = d
                queue.append(y)
    return dist


def naive_backbone_stretch(g: Graph, s) -> tuple[float, DistanceReport | None]:
    """Worst routed-to-plain distance ratio and its first pair (u, v) in
    lexicographic order, from one plain and one routed BFS per source; a
    routed path may leave only the source and backbone members."""
    members = set(s)
    worst: DistanceReport | None = None
    worst_ratio = 1.0
    for u in range(g.node_count):
        plain = _distances_from(g, u, lambda x: True)
        routed = _distances_from(g, u, lambda x: x in members)
        for v in range(u + 1, g.node_count):
            if plain[v] is None:
                continue
            ratio = routed[v] / plain[v]
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst = DistanceReport((u, v), plain[v], routed[v])
    return worst_ratio, worst


def induced_connected(g: Graph, nodes: set[int]) -> bool:
    if not nodes:
        return False
    start = next(iter(sorted(nodes)))
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in g.adjacency[x]:
            if y in nodes and y not in seen:
                seen.add(y)
                queue.append(y)
    return seen == nodes


def _greedy_mis_component(comp, adj) -> list[int]:
    """Greedy independent-set rounds on one connected component, every
    node of which starts prone.

    The maximum-degree node (tie: lowest id) becomes a dominator and its
    prone neighbours turn reluctant; then, while prone nodes remain, the
    prone node with the most reluctant neighbours (tie: lowest id) is
    promoted the same way.
    """
    prone = set(comp)
    reluctant_neighbors = {v: 0 for v in comp}
    dominators: list[int] = []

    def promote(v: int) -> None:
        prone.discard(v)
        dominators.append(v)
        for w in adj[v]:
            if w in prone:
                prone.discard(w)
                for x in adj[w]:
                    reluctant_neighbors[x] += 1

    first = None
    best_degree = -1
    for v in comp:
        if len(adj[v]) > best_degree:
            best_degree = len(adj[v])
            first = v
    promote(first)
    while prone:
        pick = None
        best = -1
        for v in sorted(prone):
            if reluctant_neighbors[v] > best:
                best = reluctant_neighbors[v]
                pick = v
        promote(pick)
    return dominators


def local_adjacency(g: Graph, nodes) -> list[list[int]]:
    """Induced adjacency relabelled onto local indices 0..len(nodes)-1,
    the reference the rows indexed by node id are checked against.

    ``nodes`` must be sorted, so local order mirrors node-id order and
    neighbour lists stay sorted; the traversals take ``range(len(nodes))``
    as their members on it.
    """
    index = [-1] * g.node_count
    for i, v in enumerate(nodes):
        index[v] = i
    return [[index[w] for w in g.adjacency[v] if index[w] >= 0] for v in nodes]


def naive_components(g: Graph, nodes) -> list[list[int]]:
    """Connected components of the subgraph induced by ``nodes``, each
    sorted, in ascending order of their smallest member."""
    unseen = set(nodes)
    components = []
    while unseen:
        comp = [min(unseen)]
        unseen.discard(comp[0])
        for x in comp:
            for y in g.adjacency[x]:
                if y in unseen:
                    unseen.discard(y)
                    comp.append(y)
        components.append(sorted(comp))
    return components


def naive_greedy_mis(g: Graph, nodes) -> list[int]:
    """The independent set that isolation and each synergy layer build on
    the subgraph induced by ``nodes``: the greedy rounds run separately on
    each of its connected components."""
    residual = set(nodes)
    adj = {v: [w for w in g.adjacency[v] if w in residual] for v in residual}
    mis: list[int] = []
    for comp in naive_components(g, residual):
        mis.extend(_greedy_mis_component(comp, adj))
    return mis


def naive_biconnected_components(g: Graph, nodes) -> list[frozenset[int]]:
    """Vertex sets of the biconnected components of the connected
    subgraph induced by ``nodes``, by the articulation-point DFS with an
    edge stack over a dict adjacency."""
    member = set(nodes)
    adj = {v: [w for w in g.adjacency[v] if w in member] for v in nodes}
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    parent: dict[int, int] = {}
    ptr: dict[int, int] = {}
    edge_stack: list[tuple[int, int]] = []
    blocks: list[frozenset[int]] = []
    counter = 0
    root = min(member)
    disc[root] = low[root] = counter
    counter += 1
    ptr[root] = 0
    stack = [root]
    while stack:
        x = stack[-1]
        row = adj[x]
        advanced = False
        while ptr[x] < len(row):
            y = row[ptr[x]]
            ptr[x] += 1
            if y not in disc:
                parent[y] = x
                disc[y] = low[y] = counter
                counter += 1
                ptr[y] = 0
                edge_stack.append((x, y))
                stack.append(y)
                advanced = True
                break
            if y != parent.get(x) and disc[y] < disc[x]:
                edge_stack.append((x, y))
                if disc[y] < low[x]:
                    low[x] = disc[y]
        if advanced:
            continue
        stack.pop()
        p = parent.get(x)
        if p is None:
            continue
        if low[x] < low[p]:
            low[p] = low[x]
        if low[x] >= disc[p]:
            members: set[int] = set()
            while True:
                a, b = edge_stack.pop()
                members.add(a)
                members.add(b)
                if (a, b) == (p, x):
                    break
            blocks.append(frozenset(members))
    return blocks


class NaiveBlockCutTree(NamedTuple):
    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    leaf_blocks: tuple[frozenset[int], ...]


def naive_block_cut_tree(g: Graph, nodes) -> NaiveBlockCutTree:
    """The block-cut tree of a connected induced subgraph from
    :func:`naive_biconnected_components`: blocks sorted by their sorted
    members, cut vertices in two or more blocks, leaf blocks holding
    exactly one cut vertex."""
    nodes = sorted(set(nodes))
    if len(nodes) == 1:
        return NaiveBlockCutTree((frozenset(nodes),), frozenset(), ())
    blocks = sorted(naive_biconnected_components(g, nodes), key=sorted)
    membership: dict[int, int] = {}
    for block in blocks:
        for v in block:
            membership[v] = membership.get(v, 0) + 1
    cut_vertices = frozenset(v for v, count in membership.items() if count >= 2)
    leaves = () if len(blocks) == 1 else tuple(b for b in blocks if len(b & cut_vertices) == 1)
    return NaiveBlockCutTree(tuple(blocks), cut_vertices, leaves)


def assert_tree_matches(g: Graph, tree, nodes) -> None:
    """A :class:`plutus.graph._BlockCutTree` of the connected set ``nodes``
    against :func:`_local_blocks` and :func:`naive_block_cut_tree`: the
    same blocks and cut vertices, read off the tree's blocks and the
    blocks each vertex heads (the root is a cut vertex when it heads two),
    and its first leaf is the naive first leaf block with its cut vertex.
    A lone vertex is no block of the tree."""
    nodes = sorted(nodes)
    blocks = sorted(sorted(tree.members[b]) for b, up in enumerate(tree.up) if up == b)
    cut = {v for v, heads in enumerate(tree.heads) if heads > (v == tree.root)}
    naive = naive_block_cut_tree(g, nodes)
    if len(nodes) == 1:
        assert (blocks, cut, _BlockCutTree.first_leaf(tree)) == ([], set(), None)
        return
    found, found_cut = _local_blocks(_induced_rows(g, nodes), nodes)
    assert blocks == sorted(sorted(b) for b in found) == [sorted(b) for b in naive.blocks]
    assert cut == found_cut == naive.cut_vertices
    leaf = _BlockCutTree.first_leaf(tree)
    if naive.leaf_blocks:
        first = naive.leaf_blocks[0]
        assert leaf == (first, *(first & naive.cut_vertices))
    else:
        assert leaf is None


def naive_lowest_bad_point(g: Graph, subset) -> int | None:
    """Lowest member whose removal leaves the rest not 2-connected, by
    :func:`naive_m_connected`; None when there is none."""
    nodes = set(subset)
    return next((v for v in sorted(nodes) if not naive_m_connected(g, nodes - {v}, 2)), None)


def naive_bad_points(g: Graph, subset) -> list[int]:
    """Every member whose removal leaves the rest not 2-connected, by
    :func:`naive_m_connected`, in ascending order."""
    nodes = set(subset)
    return [v for v in sorted(nodes) if not naive_m_connected(g, nodes - {v}, 2)]


def sweep_bad_points(g: Graph, subset) -> list[int]:
    """:func:`naive_bad_points` by one public m = 2 test per member, like
    :func:`sweep_lowest_bad_point`."""
    nodes = set(subset)
    if len(nodes) < 4:
        return sorted(nodes)
    return [v for v in sorted(nodes) if not is_m_connected(g, nodes - {v}, 2)]


def sweep_lowest_bad_point(g: Graph, subset) -> int | None:
    """Lowest member whose removal leaves the rest not 2-connected, by one
    public m = 2 test per member; None when there is none.  Independent of
    the separation-pair engine, and fast enough for a few hundred nodes,
    where :func:`naive_lowest_bad_point` is not."""
    nodes = set(subset)
    if len(nodes) < 4:
        return min(nodes, default=None)
    return next((v for v in sorted(nodes) if not is_m_connected(g, nodes - {v}, 2)), None)


def naive_disconnecting_set(g: Graph, subset, m: int) -> tuple[int, ...] | None:
    """Lexicographically first set of m-1 members whose removal leaves the
    rest disconnected, found by trying every such set in order; None when
    there is none."""
    nodes = set(subset)
    for removed in combinations(sorted(nodes), m - 1):
        if not induced_connected(g, nodes - set(removed)):
            return removed
    return None


def naive_m_connected(g: Graph, subset, m: int) -> bool:
    """Literal removal-subset semantics: connected after deleting any m-1
    members; sets of at most m vertices never qualify for m >= 2."""
    nodes = set(subset)
    if m == 1:
        return induced_connected(g, nodes)
    if len(nodes) <= m:
        return False
    return naive_disconnecting_set(g, nodes, m) is None


def naive_lex_shortest_path(g: Graph, sources, targets, allowed) -> list[int] | None:
    """Minimum (length, vertex sequence) over the simple paths from a
    source to a target whose internal vertices all satisfy ``allowed``;
    None when there is none.  Paths are enumerated one length at a time,
    so the first length that reaches a target holds the answer."""
    ends = set(targets)
    paths = [[s] for s in sorted(set(sources))]
    while paths:
        done = [p for p in paths if p[-1] in ends]
        if done:
            return min(done)
        paths = [
            p + [y]
            for p in paths
            if len(p) == 1 or allowed(p[-1])
            for y in g.adjacency[p[-1]]
            if y not in p
        ]
    return None


def naive_domination(g: Graph, mis) -> frozenset[int]:
    """Domination pair by pair from the references: the member pairs
    within three hops, by one plain BFS per member, are visited in
    (distance, u, v) order; a pair that :func:`naive_components` of the
    growing backbone already joins is skipped, and any other has the
    interior of its :func:`naive_lex_shortest_path` promoted."""
    members = sorted(set(mis))
    pairs = []
    for u in members:
        dist = _distances_from(g, u, lambda x: True)
        pairs += [
            (dist[v], u, v) for v in members if v > u and dist[v] is not None and dist[v] <= 3
        ]
    backbone = set(members)
    for _, u, v in sorted(pairs):
        if any(u in comp and v in comp for comp in naive_components(g, backbone)):
            continue
        backbone.update(naive_lex_shortest_path(g, [u], [v], lambda x: True)[1:-1])
    return frozenset(backbone)


def _naive_round(g: Graph, base: set[int], allowed) -> tuple[frozenset[int], list[int] | None]:
    """One augmentation round on ``base`` from the references: the stuck
    set it repairs, and the path that repairs it through vertices that
    satisfy ``allowed`` (None when there is none).  A lone member adopts
    its smallest allowed neighbour, a pair takes its shortest second route
    and a larger set reconnects the first leaf block of
    :func:`naive_block_cut_tree` to the rest, by
    :func:`naive_lex_shortest_path`."""
    if len(base) == 1:
        (u,) = base
        w = min((w for w in g.adjacency[u] if allowed(w)), default=None)
        return frozenset(base), None if w is None else [u, w, u]
    if len(base) == 2:
        u, v = sorted(base)
        without_uv = from_edge_list(g.node_count, [e for e in g.edges() if set(e) != {u, v}])
        return frozenset(base), naive_lex_shortest_path(without_uv, (u,), (v,), allowed)
    tree = naive_block_cut_tree(g, base)
    leaf = tree.leaf_blocks[0]
    return leaf, naive_lex_shortest_path(g, leaf - tree.cut_vertices, base - leaf, allowed)


def naive_diversification(g: Graph, d) -> frozenset[int]:
    """Diversification round by round from the references: while the
    backbone D is not 2-connected, :func:`_naive_round` repairs D through
    outside vertices.  It raises the package's errors, with their messages
    and witnesses, where the phase raises them: a set that is not
    connected and a round with no path, whose witness is the stuck set."""
    from plutus import DisconnectedInputError, GraphNotMConnectedError

    nodes = set(d)
    if not induced_connected(g, nodes):
        raise DisconnectedInputError("input set does not induce a connected subgraph")
    while not naive_m_connected(g, nodes, 2):
        stuck, path = _naive_round(g, nodes, lambda x: x not in nodes)
        if path is None:
            raise GraphNotMConnectedError(2, tuple(sorted(stuck)))
        nodes.update(path[1:-1])
    return frozenset(nodes)


def naive_sustainability(g: Graph, d) -> frozenset[int]:
    """Sustainability round by round from the references: each round
    repairs :func:`naive_lowest_bad_point` a of the backbone D by
    :func:`_naive_round` on D - a, through outside vertices.  It raises
    the package's errors, with their messages and witnesses, where the
    phase raises them: a set that is not 2-connected and a round with no
    path."""
    from plutus import GraphInputError, GraphNotMConnectedError

    nodes = set(d)
    if not naive_m_connected(g, nodes, 2):
        raise GraphInputError("sustainability requires a 2-connected input set")
    while (bad := naive_lowest_bad_point(g, nodes)) is not None:
        _, path = _naive_round(g, nodes - {bad}, lambda x: x not in nodes)
        if path is None:
            raise GraphNotMConnectedError(3, (bad,))
        nodes.update(path[1:-1])
    return frozenset(nodes)


def naive_run_plutus(g: Graph, cfg):
    """The whole pipeline from the references alone: isolation and every
    synergy layer by :func:`naive_greedy_mis`, then
    :func:`naive_domination`, and :func:`naive_diversification` and
    :func:`naive_sustainability` as ``cfg.m`` asks.  It
    raises the package's errors, with their messages and witnesses, where
    the pipeline raises them, and its trace has zero times."""
    from plutus import DisconnectedInputError, EmptyGraphError, PhaseTrace, PlutusResult

    if g.node_count == 0:
        raise EmptyGraphError("isolation needs at least one node")
    everything = range(g.node_count)
    if len(naive_components(g, everything)) > 1:
        raise DisconnectedInputError("isolation requires a connected graph")
    mis = frozenset(naive_greedy_mis(g, everything))
    stages = [("isolation", mis), ("domination", naive_domination(g, mis))]
    covered = set(mis)
    for _ in range(2, cfg.k + 1):
        covered.update(naive_greedy_mis(g, [v for v in everything if v not in covered]))
    stages.append(("synergy", frozenset(covered | stages[-1][1])))
    if cfg.m >= 2:
        stages.append(("diversification", naive_diversification(g, stages[-1][1])))
    if cfg.m == 3:
        stages.append(("sustainability", naive_sustainability(g, stages[-1][1])))
    trace, before = [], frozenset()
    for name, backbone in stages:
        trace.append(PhaseTrace(name, len(backbone), tuple(sorted(backbone - before)), 0))
        before = backbone
    return PlutusResult(before, tuple(trace), g.node_count)


def vertex_disjoint_paths(g: Graph, nodes: set[int], s: int, t: int, cap: int) -> int:
    """Number of internally vertex-disjoint s-t paths in the induced
    subgraph, counted up to ``cap`` by unit-capacity augmentation on the
    standard vertex-split digraph (s and t uncapacitated).  The direct
    edge, when present, counts as one path."""
    order = sorted(nodes)
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    n_in = lambda i: 2 * i
    n_out = lambda i: 2 * i + 1
    arcs: dict[int, dict[int, int]] = {}

    def add_arc(a: int, b: int, capacity: int) -> None:
        arcs.setdefault(a, {})[b] = capacity
        arcs.setdefault(b, {}).setdefault(a, 0)

    for v in order:
        i = index[v]
        add_arc(n_in(i), n_out(i), cap if v in (s, t) else 1)
    for v in order:
        for w in g.adjacency[v]:
            if w in nodes:
                add_arc(n_out(index[v]), n_in(index[w]), 1)
    source, sink = n_out(index[s]), n_in(index[t])
    flow = 0
    while flow < cap:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            x = queue.popleft()
            for y, capacity in arcs.get(x, {}).items():
                if capacity > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if sink not in parent:
            break
        node = sink
        while parent[node] is not None:
            prev = parent[node]
            arcs[prev][node] -= 1
            arcs[node][prev] += 1
            node = prev
        flow += 1
    return flow


def menger_m_connected(g: Graph, subset, m: int) -> bool:
    """m-connectivity via path counting: at least m internally disjoint
    paths between every pair (sets of at most m vertices excluded for
    m >= 2, singletons connected for m = 1)."""
    nodes = set(subset)
    if m == 1:
        return induced_connected(g, nodes)
    if len(nodes) <= m:
        return False
    order = sorted(nodes)
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if vertex_disjoint_paths(g, nodes, order[i], order[j], m) < m:
                return False
    return True


def naive_min_mcds(g: Graph, k: int, m: int, size_cap: int | None = None) -> OracleResult:
    """The exhaustive oracle by plain enumeration: every subset in
    ascending size, lexicographic within one size, tried against the
    k-domination and m-connectivity checkers until one passes."""
    n = g.node_count
    cap = n if size_cap is None else min(size_cap, n)
    examined = 0
    for size in range(1, cap + 1):
        for combo in combinations(range(n), size):
            examined += 1
            if is_k_dominating(g, combo, k)[0] and is_m_connected(g, combo, m):
                return OracleResult(size, frozenset(combo), examined)
    return OracleResult(None, None, examined)


def replay_witness(g: Graph, subset: set[int], k: int, witness: tuple) -> None:
    """Re-derive a checker's failure verdict from its witness alone."""
    tag = witness[0]
    if tag == "deficient":
        _, v, count = witness
        assert v not in subset
        assert sum(1 for w in g.adjacency[v] if w in subset) == count < k
    elif tag == "undominated":
        v = witness[1]
        assert v not in subset
        assert not any(w in subset for w in g.adjacency[v])
    elif tag == "too-small":
        assert witness[1] == len(subset)
    elif tag == "disconnecting-set":
        removed = set(witness[1])
        assert removed <= subset
        assert not induced_connected(g, subset - removed)
    elif tag == "disconnected":
        component = set(witness[1])
        assert component < subset
        for u in component:
            for w in g.adjacency[u]:
                assert w not in subset - component
    elif tag == "adjacent-pair":
        _, u, v = witness
        assert u in subset and v in subset and v in g.adjacency[u]
    elif tag == "addable-vertex":
        v = witness[1]
        assert v not in subset
        assert not any(w in subset for w in g.adjacency[v])
    else:
        raise AssertionError(f"unknown witness {witness}")
