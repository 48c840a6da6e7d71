"""The Plutus greedy pipeline: five phases that grow a dominating set into
an m-connected k-dominating backbone.

    isolation       greedy maximal independent set via role propagation
    domination      connect independent dominators into a CDS
    synergy         stack k disjoint independent layers (k-dominating)
    diversification augment leaf blocks until the backbone is 2-connected
    sustainability  repair bad points until the backbone is 3-connected

Isolation and every synergy layer are one greedy independent-set
routine, :func:`_greedy_mis`; diversification and sustainability each
run their own loop over one round step, :func:`_repair_path`, which gets
stuck only on a graph that is not m-connected, and the phase then raises
:class:`GraphNotMConnectedError`, the pipeline's only refusal of a
connected graph.  Phases only ever add
vertices; a dominator never loses its role.  All tie-breaks (degree
picks, block picks, path choices) go to the lowest node id, so a run is a
pure deterministic function of (graph, config).  The pipeline is
single-threaded; callers wanting parallelism run independent instances
concurrently.
"""

from __future__ import annotations

import heapq
import time
from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Iterable, Sequence

from .errors import (
    DisconnectedInputError,
    EmptyGraphError,
    GraphInputError,
    GraphNotMConnectedError,
)
from .graph import (
    Graph,
    _BlockCutTree,
    _as_subset,
    _bad_points,
    _check_k,
    _check_m,
    _induced_rows,
    _lex_shortest_path,
    _local_blocks,
    _small_sides,
    is_connected,
)
from .verify import is_connected_dominating_set, is_maximal_independent_set


class Role(Enum):
    """Role of a node with respect to a dominating set: members are
    dominators, every other node is reluctant."""

    DOMINATOR = "dominator"
    DOMINATION_RELUCTANT = "reluctant"


@dataclass(frozen=True)
class PlutusConfig:
    """Targets for a pipeline run: k-dominance multiplicity and
    connectivity level m (at most 3)."""

    k: int = 1
    m: int = 1

    def __post_init__(self) -> None:
        _check_k(self.k)
        _check_m(self.m)


@dataclass(frozen=True)
class PhaseTrace:
    """One executed phase: backbone size after it, the vertices it added,
    and its wall time in microseconds.  The time is left out of equality
    and of the result JSON, so both stay deterministic."""

    name: str
    size: int
    added: tuple[int, ...]
    micros: int = field(compare=False)


@dataclass(frozen=True)
class PlutusResult:
    """Backbone plus provenance: the per-phase growth trace and the node
    count of the graph it was built on.  Every node outside
    ``dominating_set`` ends the run reluctant."""

    dominating_set: frozenset[int]
    phase_trace: tuple[PhaseTrace, ...]
    node_count: int


def _greedy_mis(nodes: Iterable[int], adj: Sequence[Sequence[int]]) -> list[int]:
    """Greedy independent-set rounds over ``nodes``, every one of which
    starts prone; ``adj[v]`` lists v's neighbours among them.

    Each round promotes the prone node with the most reluctant neighbours
    (tie: lowest id) to dominator and turns its prone neighbours reluctant.
    When that count is 0 for every prone node, the highest-degree prone
    node (tie: lowest id) is promoted instead.  A prone node is never
    adjacent to a dominator, so a connected component that has a dominator
    and still holds prone nodes has a prone node next to a reluctant one:
    the fallback fires exactly when every started component is finished,
    and then starts a new one.  Each component's picks depend only on its
    own state, so the set equals independent per-component rounds, each
    opened by the component's highest-degree node.

    The prone nodes with a positive count sit in a lazy heap keyed on
    (-count, id), packed into the one int ``id - count * span`` (every id
    is below ``span``): a round pushes one entry per prone node whose count
    it raised, and a pop drops entries whose node is no longer prone.
    Counts only grow, so a node's newest entry pops before its stale ones,
    and the first entry of a prone node is the round's pick.  The fallback
    walks a pointer along the nodes sorted by (-degree, id), past those no
    longer prone.  Every raise is one neighbour of a newly reluctant node,
    so the routine costs O((n + E) log n) for n nodes and E edges.
    """
    prone = set(nodes)
    span = max(prone, default=0) + 1
    reluctant_neighbors = [0] * span
    by_degree = sorted(prone, key=lambda v: v - len(adj[v]) * span)
    next_opener = 0
    heap: list[int] = []
    dominators: list[int] = []
    while prone:
        pick = None
        while heap:
            v = heapq.heappop(heap) % span
            if v in prone:
                pick = v
                break
        if pick is None:
            while by_degree[next_opener] not in prone:
                next_opener += 1
            pick = by_degree[next_opener]
        prone.discard(pick)
        dominators.append(pick)
        raised: set[int] = set()
        for w in adj[pick]:
            if w in prone:
                prone.discard(w)
                row = adj[w]
                for x in row:
                    reluctant_neighbors[x] += 1
                raised.update(row)
        for x in raised & prone:
            heapq.heappush(heap, x - reluctant_neighbors[x] * span)
    return dominators


def isolation(g: Graph) -> tuple[frozenset[int], tuple[Role, ...]]:
    """Phase 1: carve a maximal independent dominator set out of a
    connected graph.

    Every node starts prone; greedy rounds (see :func:`_greedy_mis`) run
    until no prone node remains.  The returned set is independent (a prone
    node is never adjacent to a dominator) and maximal (every non-member
    ends up reluctant, i.e. adjacent to a member), so the roles follow from
    it: members are dominators and every other node is reluctant.
    """
    if g.node_count == 0:
        raise EmptyGraphError("isolation needs at least one node")
    if not is_connected(g):
        raise DisconnectedInputError("isolation requires a connected graph")
    nodes = range(g.node_count)
    mis = frozenset(_greedy_mis(nodes, g.adjacency))
    roles = tuple(Role.DOMINATOR if v in mis else Role.DOMINATION_RELUCTANT for v in nodes)
    return mis, roles


def domination(g: Graph, mis: Iterable[int]) -> frozenset[int]:
    """Phase 2: connect the independent dominators into a connected
    dominating set.

    Dominator pairs within three hops are visited in ascending
    (distance, smaller id, larger id) order; a pair whose endpoints
    already share a component of the growing backbone is skipped, and
    otherwise the internal vertices of the lexicographically smallest
    shortest path between them are promoted.

    The pairs come from set unions.  With ``near[x]`` the dominators
    adjacent to x, the dominators two hops from u are the union of
    ``near[x]`` over u's neighbours x (none is one hop away), and those
    three hops away are the union over u's ball of radius two, less
    those.  A pair's path is read off directly: at two hops the smallest
    common neighbour; at three, the smallest neighbour x of u with a
    neighbour next to v, then the smallest such neighbour of x.
    """
    members = _as_subset(g, mis)
    if not members:
        raise GraphInputError("mis must be non-empty")
    independent, witness = is_maximal_independent_set(g, members)
    if not independent:
        raise GraphInputError(f"input is not a maximal independent set: {witness}")

    adj = g.adjacency
    member = set(members)
    near = [member.intersection(row) for row in adj]
    two_hops: list[tuple[int, int]] = []
    three_hops: list[tuple[int, int]] = []
    for u in members:
        two = set().union(*[near[x] for x in adj[u]])
        ball = set(adj[u]).union(*[adj[x] for x in adj[u]])
        three = set().union(*[near[y] for y in ball]) - two
        two_hops += [(u, v) for v in sorted(two) if v > u]
        three_hops += [(u, v) for v in sorted(three) if v > u]

    dominating = set(members)
    parent = list(range(g.node_count))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for hops, pairs in ((2, two_hops), (3, three_hops)):
        for u, v in pairs:
            if find(u) == find(v):
                continue
            ends = set(adj[v])
            if hops == 2:
                path = [next(x for x in adj[u] if x in ends)]
            else:
                x = next(x for x in adj[u] if not ends.isdisjoint(adj[x]))
                path = [x, min(ends.intersection(adj[x]))]
            for w in path:
                if w not in dominating:
                    dominating.add(w)
                    for y in adj[w]:
                        if y in dominating:
                            parent[find(w)] = find(y)
    roots = {find(v) for v in dominating}
    if len(roots) > 1:
        raise DisconnectedInputError(
            "dominator set did not converge to a single component"
        )
    return frozenset(dominating)


def synergy_layers(
    g: Graph, d: Iterable[int], k: int, *, layer_one: Iterable[int] | None = None
) -> tuple[frozenset[int], tuple[frozenset[int], ...]]:
    """Phase 3 with its layer decomposition exposed.

    Layer 1 is ``layer_one``, a maximal independent set of g inside ``d``
    (default ``isolation(g)[0]``; a caller that already holds the isolation
    output passes it to save the second run).  Layer i is the greedy
    maximal independent set (:func:`_greedy_mis`) of the subgraph induced
    by the nodes in no earlier layer.  Layers are unioned into the
    backbone; the loop stops early once that residual empties.

    The backbone is k-dominating by construction.  A node outside it is in
    no layer, so it belonged to the residual of every layer; each layer is
    maximal in its residual, so the node has a neighbour in every layer,
    and the layers are disjoint: k backbone neighbours.  If the residual
    empties first, every node is in the backbone and k-dominance holds
    vacuously.
    """
    _check_k(k)
    nodes = _as_subset(g, d)
    is_cds, witness = is_connected_dominating_set(g, nodes)
    if not is_cds:
        error = DisconnectedInputError if witness[0] == "disconnected" else GraphInputError
        raise error(f"input set is not a connected dominating set: {witness}")
    if layer_one is None:
        layer_one = isolation(g)[0]
    else:
        layer_one = frozenset(_as_subset(g, layer_one))
        independent, witness = is_maximal_independent_set(g, layer_one)
        if not independent:
            raise GraphInputError(f"layer_one is not a maximal independent set: {witness}")
    if not layer_one <= set(nodes):
        raise GraphInputError("input set must contain the first independent layer")

    layers: list[frozenset[int]] = [layer_one]
    covered = set(layer_one)
    for _ in range(2, k + 1):
        residual = [v for v in range(g.node_count) if v not in covered]
        if not residual:
            break
        layer = frozenset(_greedy_mis(residual, _induced_rows(g, residual)))
        layers.append(layer)
        covered |= layer
    return frozenset(covered.union(nodes)), tuple(layers)


class _Excluding:
    """Membership in ``backbone`` outside ``skip``: a side of a path
    search given as a membership test (see :func:`graph._lex_shortest_path`)."""

    __slots__ = ("backbone", "skip")

    def __init__(self, backbone: set[int], skip: set[int] | frozenset[int]):
        self.backbone = backbone
        self.skip = skip

    def __contains__(self, y: int) -> bool:
        return y in self.backbone and y not in self.skip


class _Remainder:
    """The leaf block of D - v that no small side holds, named by exclusion
    (see :func:`_split_without`): its members are those of D - v outside
    ``rest``, the small sides of its cut vertex ``c``, listed.  ``head`` is
    the block's two smallest members, read by walking the sorted
    ``members`` past ``rest`` and v: the leaf's key in :func:`_first_leaf`."""

    __slots__ = ("rest", "c", "head")

    def __init__(self, rest: set[int], c: int, v: int, members: list[int]):
        self.rest = rest
        self.c = c
        self.head = list(islice((u for u in members if u not in rest and u != v), 2))


def _first_leaf(leaves: list, cut: set[int]) -> tuple[set[int] | _Remainder, int]:
    """The leaf with the smallest sorted members, ``min(leaves,
    key=sorted)``, keyed on the two smallest members of each: a leaf has
    at least two and two blocks share at most one vertex, so no two
    leaves tie on both.  Returned with its cut vertex: the one of ``cut``
    in it, or a :class:`_Remainder`'s own."""
    leaf = min(leaves, key=lambda b: b.head if isinstance(b, _Remainder) else sorted(b)[:2])
    if isinstance(leaf, _Remainder):
        return leaf, leaf.c
    (c,) = cut.intersection(leaf)
    return set(leaf), c


def _augment_leaf_block(
    g: Graph,
    leaf: set[int] | _Remainder,
    c: int,
    backbone: set[int],
    bad: int,
) -> list[int] | None:
    """The shortest path in g from a member of the leaf block ``leaf``
    other than its cut vertex c to any vertex of the round's set, the
    members of ``backbone`` other than ``bad``, outside the leaf, whose
    internal vertices all lie outside ``backbone``; None when there is
    none.

    The search runs from the smaller side, so a round pays for that side,
    and the other side is a membership test (:class:`_Excluding`).  A
    listed leaf of at most half the set is searched from, against the rest
    of the set.  A larger leaf is named by exclusion, as a
    :class:`_Remainder` is: the set outside c and the rest, which is
    listed (for a listed leaf, by one set difference) and searched back
    from."""
    if isinstance(leaf, _Remainder) or 2 * len(leaf) > len(backbone) - (bad >= 0):
        rest = leaf.rest if isinstance(leaf, _Remainder) else backbone.difference(leaf, (bad,))
        return _lex_shortest_path(g, _Excluding(backbone, rest | {bad, c}), rest, backbone)
    sources = [v for v in leaf if v != c]
    return _lex_shortest_path(g, sources, _Excluding(backbone, leaf | {bad}), backbone)


def _split_without(
    rows: list[list[int]],
    members: list[int],
    v: int,
    partners: dict[int, set[int]] | None,
    work: int,
) -> tuple[set[int] | _Remainder | None, int, int] | None:
    """The first leaf block (:func:`_first_leaf`) of the 2-connected
    backbone D minus its member v, that leaf's cut vertex c, and the number
    of components of D - {v, c}; (None, -1, 0) when H = D - v has at most
    two members; or None when H has three or more and is 2-connected.

    With a partner map, whose recorded partners of v include every cut
    vertex of H, the split costs the small sides only: for each partner c,
    :func:`graph._small_sides` lists the components of H - c, all but the
    large side L(c).  A pair that no longer separates is dropped; with no
    partner left v is not a bad point.  The partners left are the cut
    vertices of H.  The top-level ones, in no other partner's small side,
    are the cut vertices of one block B0, a leaf when it has one cut
    vertex, named as a :class:`_Remainder`.  Every other leaf is X + c for
    a small side X of c that holds no cut vertex, and each such X + c is
    a leaf.  A connected X with no cut vertex lies in one block B, and
    B - c is connected, so B = X + c, whose one cut vertex is c.  A leaf L
    with cut vertex c keeps every edge of L - c, whose vertices are no cut
    vertices, so L - c is a whole component of H - c; were it L(c), every
    other cut vertex would lie in a small side of c, so that c is the only
    top-level partner and L is B0.

    Some partner is top-level.  Let each cut vertex c of H point at the
    block where L(c) starts.  Were none top-level, the pointers would give
    two sink blocks, and the cut vertices a and b beside them, on the path
    between the sinks, would point away from each other.  Every running
    search expands one vertex per pass, so a component of k vertices
    finishes within k passes.  L(b) is reached only through b, by one
    search, so the component of H - a that holds b needs |L(b)| + 1 passes
    or more; L(a) finishes no earlier, so |L(a)| >= |L(b)| + 1, and by
    symmetry |L(b)| >= |L(a)| + 1, a contradiction.  So an empty top is
    an internal error, raised as AssertionError.

    The block DFS of H runs for two causes: there is no map (past the
    engine's budget, or fewer than four members), or the searches read
    ``work`` adjacency entries.  With a map, v's partners then become the
    cut vertices it names.  The components of D - {v, c} are as many as
    the blocks of H that hold c.
    """
    if len(members) <= 3:
        return None, -1, 0
    if partners is not None:
        sides: dict[int, list[list[int]]] = {}
        for c in sorted(partners.get(v, ())):
            found = _small_sides(rows, v, c, work)
            if found is None:
                break  # the searches cost as much as the block DFS
            small, read = found
            work -= read
            if small:
                sides[c] = small
            else:  # {v, c} no longer separates
                partners[v].discard(c)
                partners[c].discard(v)
        else:
            if not sides:
                return None
            inside = {x for small in sides.values() for side in small for x in side}
            top = [c for c in sides if c not in inside]
            if not top:
                raise AssertionError(f"no partner of {v} is top-level: {sorted(sides)}")
            cut = set(sides)
            leaves: list = [
                side + [c] for c, small in sides.items() for side in small if cut.isdisjoint(side)
            ]
            if len(top) == 1:
                # inside is the top one's small sides: every other partner
                # lies in one, and so do its own, which miss the top one
                leaves.append(_Remainder(inside, top[0], v, members))
            leaf, c = _first_leaf(leaves, cut)
            return leaf, c, len(sides[c]) + 1
    blocks, cut = _local_blocks(rows, [u for u in members if u != v])
    if partners is not None:
        partners[v] = set(cut)
    if not cut:
        return None
    leaf, c = _first_leaf([b for b in blocks if len(cut.intersection(b)) == 1], cut)
    return leaf, c, sum(c in b for b in blocks)


def _alternate_pair_path(g: Graph, u: int, v: int, backbone: set[int]) -> list[int] | None:
    """Shortest second route between two adjacent members of ``backbone``
    through vertices outside it: a path from u to an outside neighbour of
    v, then v, so its length is at least two.  The length-2 case promotes
    the lowest-id common neighbour, closing a triangle.  With u = v it is
    the walk u, w, u through the smallest outside neighbour w of a lone
    member."""
    path = _lex_shortest_path(g, (u,), set(g.adjacency[v]).difference(backbone), backbone)
    return None if path is None else path + [v]


def _repair_path(
    g: Graph, backbone: set[int], bad: int, leaf: set[int] | _Remainder | None, c: int
) -> list[int] | None:
    """One augmentation round: the path whose internal vertices, all
    outside ``backbone``, the round promotes; None when there is none.

    The round's set is the members of ``backbone`` other than ``bad`` (-1
    at m = 2).  With ``leaf`` None it has at most two members: a lone
    vertex adopts its smallest neighbour and a pair is joined by its
    shortest alternate route (:func:`_alternate_pair_path`, a common
    neighbour when one exists).  Otherwise the leaf block ``leaf``, with
    cut vertex c, is reconnected to the rest (:func:`_augment_leaf_block`).
    Both routes hand ``backbone`` to the path search as the set its
    internal vertices avoid.  A round gets stuck only when g is not
    m-connected: otherwise G - c (G - a - c at m = 3, with bad point a) is
    connected, so a path leaves the block through outside vertices.

    Every ear has an internal vertex, so every round promotes at least
    one vertex, and a phase that starts from d ends within n - |d| + 1
    rounds.  A pair's path has at least two edges, and a leaf block's
    path is not one edge: its source is no cut vertex, so its neighbours
    in the set lie in the leaf.  A path with no internal vertex would
    break this and raises AssertionError.
    """
    if leaf is None:
        base = sorted(backbone.difference((bad,)))
        path = _alternate_pair_path(g, base[0], base[-1], backbone)
    else:
        path = _augment_leaf_block(g, leaf, c, backbone, bad)
    if path is not None and not path[1:-1]:
        raise AssertionError(f"augmentation round promoted nothing: path {path}")
    return path


def diversification(g: Graph, d: Iterable[int]) -> frozenset[int]:
    """Phase 4: grow the backbone until it is 2-connected (at least three
    vertices, no cut vertex).

    One block DFS, at entry, rejects a set that does not induce a
    connected subgraph and seeds a block-cut tree of the backbone
    (:class:`graph._BlockCutTree`), which each promoted vertex then joins
    with its backbone neighbours.  Each round reads the smallest leaf
    block and its cut vertex from the tree and reconnects it to the rest
    through promoted outside vertices; backbones of one or two vertices
    are grown directly (:func:`_repair_path`).  Three or more members with
    no leaf, a single block, end the phase.  A stuck round raises
    :class:`GraphNotMConnectedError` with the stuck set as witness.
    Additions never reduce any outside node's dominator count, so
    k-dominance survives the phase.
    """
    members = _as_subset(g, d)
    if not members:
        raise GraphInputError("backbone must be non-empty")
    blocks, _ = _local_blocks(g.adjacency, members)
    if blocks is None:
        raise DisconnectedInputError("input set does not induce a connected subgraph")
    tree = _BlockCutTree(blocks, g.node_count)
    backbone = set(members)
    while True:
        found = tree.first_leaf()
        if found is None and len(backbone) > 2:
            return frozenset(backbone)
        leaf, c = found or (None, -1)
        path = _repair_path(g, backbone, -1, leaf, c)
        if path is None:
            raise GraphNotMConnectedError(2, tuple(sorted(backbone if leaf is None else leaf)))
        for x in path[1:-1]:
            tree.add(x, [w for w in g.adjacency[x] if w in backbone])
            backbone.add(x)


def sustainability(g: Graph, d: Iterable[int]) -> frozenset[int]:
    """Phase 5: grow the 2-connected backbone until it is 3-connected.

    A backbone vertex is a bad point when removing it leaves the rest not
    2-connected; a 2-connected backbone with no bad point is 3-connected.
    Each round repairs the backbone minus its lowest bad point v as
    diversification repairs a backbone, with paths avoiding v entirely
    (:func:`_repair_path`); a stuck round raises
    :class:`GraphNotMConnectedError` with v as witness.

    The induced adjacency is kept for the whole phase: each promoted
    vertex gets its row and is inserted into its neighbours' rows.  The
    loop keeps a min-heap of candidates and a map of separation pairs:
    the partners of each vertex.  Its invariant: the heap holds every bad
    point, and the map, unless the engine recorded none, every separation
    pair.  One pass of :func:`graph._bad_points` sets both exactly at
    entry, and rejects a set that is not 2-connected.  A round tests the
    lowest candidate v by splitting the backbone minus v
    (:func:`_split_without`), which the repair needs anyway: from v's
    partners, at the cost of the small sides, or by the block DFS of the
    backbone minus v when the engine's budget left no map.  v is the
    round's bad point when that set has a cut vertex or fewer than three
    vertices; otherwise v is good and is popped, and an empty heap ends
    the phase.  A pair leaves the map only when it no longer separates:
    when a split finds so, or when a round's one-vertex ear joins the only
    two components of the backbone minus {v, c}, v the round's bad point
    and c its leaf's cut vertex, which the split counted; then no later
    test of v searches that pair again.  An ear keeps the invariant.  For
    a vertex y off the ear and its ends, D' - y is D - y plus an ear,
    2-connected when D - y is, so only the ear and its ends can turn bad.
    A one-vertex ear x is not bad (D' - x is D),
    so only its ends are pushed; and {p, q}, its ends, is the one pair it
    can add, when x has no other backbone neighbour, so the map gets it
    then.  After a longer ear one more engine pass sets both exactly.  So
    the engine runs at entry and after each ear of two or more vertices,
    and any other round costs its small sides, or at most one block DFS.
    """
    members = _as_subset(g, d)
    rows = _induced_rows(g, members)
    backbone = set(members)
    volume = sum(len(rows[v]) for v in members)  # adjacency entries of the backbone
    heap, partners = _bad_points(rows, members)  # ascending: a heap already
    # the engine finds four or more members that are not 2-connected;
    # below four, only a triangle (six adjacency entries) is
    if heap is None or volume < 6:
        raise GraphInputError("sustainability requires a 2-connected input set")
    while heap:
        bad = heap[0]
        split = _split_without(rows, members, bad, partners, volume)
        if split is None:
            heapq.heappop(heap)  # the candidate is good
            continue
        leaf, c, parts = split
        path = _repair_path(g, backbone, bad, leaf, c)
        if path is None:
            raise GraphNotMConnectedError(3, (bad,))
        ear = path[1:-1]
        backbone.update(ear)
        for x in ear:
            rows[x] = [w for w in g.adjacency[x] if w in backbone]
            volume += len(rows[x])
            insort(members, x)
        for x in ear:
            for w in rows[x]:
                if w not in ear:
                    insort(rows[w], x)
                    volume += 1
        if len(ear) > 1:
            heap, partners = _bad_points(rows, members)
            continue
        p, q = path[0], path[-1]
        if partners is not None:
            if parts == 2:  # the ear joins the two sides of {bad, c}
                partners[bad].discard(c)
                partners[c].discard(bad)
            if len(rows[ear[0]]) == 2:
                partners.setdefault(p, set()).add(q)
                partners.setdefault(q, set()).add(p)
        for x in (p, q):
            if x not in heap:
                heapq.heappush(heap, x)
    return frozenset(backbone)


def run_plutus(g: Graph, cfg: PlutusConfig) -> PlutusResult:
    """Run the public phases in order; phases after synergy run only when
    the connectivity target asks for them.  The input checks are the
    first phase's: isolation rejects an empty or disconnected graph.  Only
    a stuck round raises :class:`GraphNotMConnectedError`, on a graph
    that is not m-connected: at k >= m such a graph holds no backbone, at
    k < m the phases may still build one.  The result records the
    backbone and one trace entry, with its wall time, per executed phase.
    """
    # isolation grows the empty backbone: its trace entry lists its set
    phases = [
        ("isolation", lambda d: isolation(g)[0]),
        ("domination", lambda d: domination(g, d)),
        ("synergy", lambda d: synergy_layers(g, d, cfg.k, layer_one=trace[0].added)[0]),
    ]
    if cfg.m >= 2:
        phases.append(("diversification", lambda d: diversification(g, d)))
    if cfg.m == 3:
        phases.append(("sustainability", lambda d: sustainability(g, d)))

    backbone: frozenset[int] = frozenset()
    trace: list[PhaseTrace] = []
    for name, phase in phases:
        t0 = time.perf_counter()
        grown = phase(backbone)
        micros = int((time.perf_counter() - t0) * 1_000_000)
        trace.append(PhaseTrace(name, len(grown), tuple(sorted(grown - backbone)), micros))
        backbone = grown
    return PlutusResult(backbone, tuple(trace), g.node_count)
