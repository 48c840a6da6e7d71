"""The Plutus greedy pipeline: five phases that grow a dominating set into
an m-connected k-dominating backbone.

    isolation       greedy maximal independent set via role propagation
    domination      connect independent dominators into a CDS
    synergy         stack k disjoint independent layers (k-dominating)
    diversification augment leaf blocks until the backbone is 2-connected
    sustainability  repair bad points until the backbone is 3-connected

Isolation and every synergy layer are one greedy independent-set
routine, :func:`_greedy_mis`; diversification and sustainability are one
augmentation loop, :func:`_augment`, run at m = 2 and at m = 3, which
gets stuck only on a graph that is not m-connected and then raises
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
import itertools
import time
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

from .errors import (
    DisconnectedInputError,
    EmptyGraphError,
    GraphInputError,
    GraphNotMConnectedError,
    IterationCapExceededError,
)
from .graph import (
    Graph,
    _as_subset,
    _bad_points,
    _check_k,
    _check_m,
    _induced_rows,
    _is_int,
    _lex_shortest_path,
    _local_blocks,
    is_connected,
)
from .verify import is_connected_dominating_set, is_maximal_independent_set


class Role(Enum):
    """Role of a node with respect to a dominating set: members are
    dominators, every other node is reluctant."""

    DOMINATOR = "dominator"
    DOMINATION_RELUCTANT = "reluctant"


def _check_cap(cap: object) -> None:
    """An augmentation cap is None (10 * node count) or a positive int."""
    if cap is not None and (not _is_int(cap) or cap < 1):
        raise GraphInputError(f"iteration cap must be positive, got {cap!r}")


@dataclass(frozen=True)
class PlutusConfig:
    """Targets for a pipeline run: k-dominance multiplicity, connectivity
    level m (at most 3) and the augmentation-loop safety cap (None means
    10 * node count).  A phase that starts from d ends within
    n - |d| + 1 rounds (see :func:`_augment`), so the default never fires."""

    k: int = 1
    m: int = 1
    max_augmentation_iterations: int | None = None

    def __post_init__(self) -> None:
        _check_k(self.k)
        _check_m(self.m)
        _check_cap(self.max_augmentation_iterations)


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


def _mis_pairs_within(g: Graph, mis: Sequence[int], limit: int) -> list[tuple[int, int, int]]:
    """(distance, u, v) for independent-set pairs with hop distance <= limit,
    found by a depth-limited BFS from each member."""
    members = set(mis)
    pairs: list[tuple[int, int, int]] = []
    for u in sorted(mis):
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            d = dist[x]
            if d == limit:
                continue
            for y in g.adjacency[x]:
                if y not in dist:
                    dist[y] = d + 1
                    queue.append(y)
                    if y in members and y > u:
                        pairs.append((d + 1, u, y))
    pairs.sort()
    return pairs


def domination(g: Graph, mis: Iterable[int]) -> frozenset[int]:
    """Phase 2: connect the independent dominators into a connected
    dominating set.

    Dominator pairs within three hops are visited in ascending
    (distance, smaller id, larger id) order; a pair whose endpoints
    already share a component of the growing backbone is skipped, and
    otherwise the internal vertices of the deterministic shortest path
    between them are promoted.
    """
    members = _as_subset(g, mis)
    if not members:
        raise GraphInputError("mis must be non-empty")
    independent, witness = is_maximal_independent_set(g, members)
    if not independent:
        raise GraphInputError(f"input is not a maximal independent set: {witness}")

    dominating = set(members)
    parent = list(range(g.node_count))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for _, u, v in _mis_pairs_within(g, members, 3):
        if find(u) == find(v):
            continue
        path = _lex_shortest_path(g, (u,), (v,), lambda x: True)
        for w in path[1:-1]:
            if w not in dominating:
                dominating.add(w)
                for x in g.adjacency[w]:
                    if x in dominating:
                        parent[find(w)] = find(x)
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


def _augment_leaf_block(
    g: Graph,
    leaves: list[list[int]],
    cut: set[int],
    base: set[int],
    allowed: Callable[[int], bool],
) -> tuple[frozenset[int], list[int] | None]:
    """The smallest-member leaf block of ``base`` from its ``leaves``, the
    blocks of ids meeting its cut vertices ``cut`` once; and the shortest
    path in g from a non-cut member of that leaf to any base vertex
    outside it, whose internal vertices all satisfy ``allowed`` (None when
    there is none), the ones to promote."""
    leaf = min(leaves, key=sorted)
    ids = frozenset(leaf)
    sources = [v for v in leaf if v not in cut]
    return ids, _lex_shortest_path(g, sources, base - ids, allowed)


def _alternate_pair_path(
    g: Graph, u: int, v: int, allowed: Callable[[int], bool]
) -> list[int] | None:
    """Shortest second route between two adjacent backbone members, which
    ``allowed`` must reject: a path from u to an allowed neighbour of v,
    then v, so its length is at least two.  The length-2 case promotes the
    lowest-id common neighbour, closing a triangle.  With u = v it is the
    walk u, w, u through the smallest allowed neighbour w of a lone member."""
    path = _lex_shortest_path(g, (u,), [w for w in g.adjacency[v] if allowed(w)], allowed)
    return None if path is None else path + [v]


def _augment(
    g: Graph,
    members: list[int],
    rows: list[list[int]],
    max_iterations: int | None,
    m: int,
) -> frozenset[int]:
    """The augmentation loop of diversification (m = 2) and sustainability
    (m = 3): grow the backbone until it is m-connected.

    The caller passes the backbone as its sorted member list and its
    induced adjacency indexed by node id (:func:`graph._induced_rows`);
    both are kept for the whole phase: each promoted vertex gets its row
    and is inserted into its neighbours' rows and into the list.  Each
    round names the set to repair, the backbone for m = 2 and the backbone
    minus its lowest bad point for m = 3, and splits it into blocks and
    cut vertices (:func:`graph._local_blocks`); at m = 2 three or more
    members with no cut vertex end the loop.  A lone vertex adopts its
    smallest neighbour, a pair is joined by its shortest alternate route
    (a common neighbour when one exists) and a larger set has its smallest
    leaf block reconnected to the rest, always through vertices outside
    the backbone.  A disconnected first set and a cap other than None or a
    positive int are input errors.  A round gets stuck only when g is not
    m-connected: otherwise G - c (G - a - c at m = 3, with bad point a) is
    connected for the leaf block's cut vertex c, so a path leaves the
    block through outside vertices.  So a stuck round raises
    :class:`GraphNotMConnectedError`, with the stuck set as witness at
    m = 2 and the bad point at m = 3.

    At m = 3 the loop keeps a min-heap of candidates that holds every bad
    point, filled by one pass of :func:`graph._bad_points`.  A round tests
    the lowest candidate v with the block DFS of the backbone minus v it
    needs anyway: v is the round's bad point when that set is split, has a
    cut vertex or has fewer than three vertices.  Otherwise v is stale and
    one more pass refills the heap exactly, so the next test succeeds and
    an empty heap ends the phase.  Adding the ear is settled without a
    DFS: only the ear and its two ends can turn bad, and they are pushed
    unless a one-vertex ear x shows they cannot (see the loop).  The
    repaired point a leaves the heap when x is adjacent to a non-cut
    member of every leaf block of D - a, which makes D' - a 2-connected.
    A round thus costs one block DFS plus, when its candidate was stale,
    one block DFS and one engine pass.

    Every ear has an internal vertex, so every round that does not end the
    loop promotes at least one vertex from outside the backbone: a phase
    ends within n - |backbone| + 1 rounds, and a cap of at least that
    changes nothing.
    """
    _check_cap(max_iterations)
    phase = "diversification" if m == 2 else "sustainability"
    cap = 10 * g.node_count if max_iterations is None else max_iterations
    backbone = set(members)
    outside = lambda x: x not in backbone
    bad = -1
    heap = [] if m == 2 else _bad_points(rows, members)  # ascending: a heap already
    for iterations in itertools.count(1):
        if m == 2:
            # one block decomposition per round answers both
            # "2-connected?" and "which leaf block?"
            blocks, cut = _local_blocks(rows, members)
        else:
            while heap:
                bad = heap[0]
                blocks, cut = _local_blocks(rows, members, bad)
                if blocks is None or cut or len(members) <= 3:
                    break
                heap = _bad_points(rows, members)  # bad was stale: refill exactly
            else:
                break  # no bad point: the backbone is 3-connected
        base = backbone if bad < 0 else backbone - {bad}
        if blocks is None:
            raise DisconnectedInputError("input set does not induce a connected subgraph")
        if m == 2 and len(base) >= 3 and not cut:
            break
        if iterations > cap:
            raise IterationCapExceededError(phase, cap)
        leaves = [b for b in blocks if len(cut.intersection(b)) == 1]
        witness = base
        if len(base) <= 2:
            path = _alternate_pair_path(g, min(base), max(base), outside)
        else:
            witness, path = _augment_leaf_block(g, leaves, cut, base, outside)
        if path is None:
            raise GraphNotMConnectedError(m, tuple(sorted(witness)) if m == 2 else (bad,))
        ear = path[1:-1]
        backbone.update(ear)
        for x in ear:
            rows[x] = [w for w in g.adjacency[x] if w in backbone]
            insort(members, x)
        for x in ear:
            for w in rows[x]:
                if w not in ear:
                    insort(rows[w], x)
        if m == 2:
            continue
        # Keep every bad point of the grown backbone among the candidates.
        # Only the ear and its ends can turn bad.  A one-vertex ear x never
        # is (the backbone without it is the old one), its ends stay as
        # they were when x has a third backbone neighbour, and it leaves
        # the backbone minus bad 2-connected when it meets every leaf
        # block of the old one off its cut vertex.
        maybe_bad = [path[0], path[-1], *ear]
        if len(ear) == 1:
            reach = set(rows[ear[0]])
            maybe_bad = maybe_bad[:2] if len(reach) < 3 else []
            reach -= cut
            if all(not reach.isdisjoint(b) for b in leaves):
                heapq.heappop(heap)
        for x in maybe_bad:
            if x not in heap:
                heapq.heappush(heap, x)
    return frozenset(backbone)


def diversification(
    g: Graph, d: Iterable[int], max_iterations: int | None = None
) -> frozenset[int]:
    """Phase 4: grow the backbone until it is 2-connected (at least three
    vertices, no cut vertex).

    Each round decomposes the backbone into blocks and reconnects the
    smallest leaf block to the rest through promoted outside vertices;
    backbones of one or two vertices are grown directly (see
    :func:`_augment`); the first decomposition also rejects a set that
    does not induce a connected subgraph.  Additions never reduce any
    outside node's dominator count, so k-dominance survives the phase.
    """
    members = _as_subset(g, d)
    if not members:
        raise GraphInputError("backbone must be non-empty")
    return _augment(g, members, _induced_rows(g, members), max_iterations, 2)


def sustainability(
    g: Graph, d: Iterable[int], max_iterations: int | None = None
) -> frozenset[int]:
    """Phase 5: grow the 2-connected backbone until it is 3-connected.

    A backbone vertex is a bad point when removing it leaves the rest not
    2-connected; a 2-connected backbone with no bad point is 3-connected.
    Rounds pick the lowest-id bad point v and run the diversification
    augmentation on the backbone minus v, with paths avoiding v entirely
    (see :func:`_augment`).  The input must be 2-connected; that check is
    one block DFS of the induced adjacency the loop then keeps.
    """
    members = _as_subset(g, d)
    rows = _induced_rows(g, members)
    blocks, cut = _local_blocks(rows, members)
    if len(members) <= 2 or blocks is None or cut:
        raise GraphInputError("sustainability requires a 2-connected input set")
    return _augment(g, members, rows, max_iterations, 3)


def run_plutus(g: Graph, cfg: PlutusConfig) -> PlutusResult:
    """Run the public phases in order; phases after synergy run only when
    the connectivity target asks for them.  The input checks are the
    first phase's: isolation rejects an empty or disconnected graph.  Only
    a stuck round raises :class:`GraphNotMConnectedError`, on a graph
    that is not m-connected: at k >= m such a graph holds no backbone, at
    k < m the phases may still build one.  The result records the
    backbone and one trace entry, with its wall time, per executed phase.
    """
    cap = cfg.max_augmentation_iterations
    phases = [
        ("isolation", lambda d: isolation(g)[0]),
        ("domination", lambda d: domination(g, d)),
        (
            "synergy",
            lambda d: synergy_layers(g, d, cfg.k, layer_one=grown_by["isolation"])[0],
        ),
    ]
    if cfg.m >= 2:
        phases.append(("diversification", lambda d: diversification(g, d, cap)))
    if cfg.m == 3:
        phases.append(("sustainability", lambda d: sustainability(g, d, cap)))

    backbone: frozenset[int] = frozenset()
    grown_by: dict[str, frozenset[int]] = {}
    trace: list[PhaseTrace] = []
    for name, phase in phases:
        t0 = time.perf_counter()
        grown = grown_by[name] = phase(backbone)
        micros = int((time.perf_counter() - t0) * 1_000_000)
        trace.append(PhaseTrace(name, len(grown), tuple(sorted(grown - backbone)), micros))
        backbone = grown
    return PlutusResult(backbone, tuple(trace), g.node_count)
