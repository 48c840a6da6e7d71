"""Independent checkers for backbone properties, plus an exhaustive
small-instance oracle for minimum m-connected k-dominating sets.

Checkers return ``(passed, witness)`` where a failing witness is a small
tagged tuple that, replayed against the graph, reproduces the violation:

    ("adjacent-pair", u, v)        two set members joined by an edge
    ("addable-vertex", v)          an outsider with no neighbour in the set
    ("undominated", v)             an outsider with no dominator neighbour
    ("deficient", v, count)        an outsider with count < k dominators
    ("disconnected", component)    one component of a split induced subgraph
    ("disconnecting-set", nodes)   m-1 vertices whose removal splits the set
    ("too-small", size)            a set of at most m vertices (never
                                   m-connected for m >= 2)

The oracle keeps its validity tests self-contained (bitmask arithmetic:
bit-sliced neighbour counts and breadth-first search on masks, no shared
code with the checkers or the pipeline) so that oracle versus pipeline
comparisons stay two independent routes.  One search answers all its
questions: is there a valid set of a given size that holds some nodes
and avoids some others?  It picks the free nodes in Cuthill-McKee order,
which keeps each node's neighbours close to it, and prunes by counts
alone: a depth with ``left`` picks to go gives a vertex at most ``left``
more chosen neighbours, which bounds (a) whether a vertex can still reach
its need, (b) the candidates of the last pick and (c) the picks at every
depth (see ``_find_set``).  One question per size finds the minimum size;
the lexicographically first witness of that size is then built node by
node, one question per node that the last set found does not hold (see
``brute_force_min_mcds``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .errors import GraphInputError, OracleSizeError
from .graph import (
    DistanceReport,
    Edge,
    Graph,
    _as_subset,
    _check_k,
    _check_m,
    _connectivity_witness,
    _is_int,
)

Witness = tuple
ORACLE_NODE_LIMIT = 20


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: Witness | None


@dataclass(frozen=True)
class VerificationReport:
    """Conjunction of named checks; every failed check carries a witness."""

    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(check.passed for check in self.checks)


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the exhaustive search: the minimum valid set size and one
    witness of that size, or infeasibility up to the size cap."""

    optimum_size: int | None
    optimum_witness: frozenset[int] | None
    sets_examined: int

    @property
    def feasible(self) -> bool:
        return self.optimum_size is not None


def is_maximal_independent_set(g: Graph, s: Iterable[int]) -> tuple[bool, Witness | None]:
    """No edge inside the set, and no outside vertex addable without one."""
    nodes = _as_subset(g, s)
    members = set(nodes)
    for u in nodes:
        for v in g.adjacency[u]:
            if v in members and v > u:
                return False, ("adjacent-pair", u, v)
    short = _short_of_k(g, members, 1)
    if short is not None:
        return False, ("addable-vertex", short[0])
    return True, None


def _short_of_k(g: Graph, members: set[int], k: int) -> tuple[int, int] | None:
    """The lowest vertex outside ``members`` with fewer than k neighbours
    in it, and that count; None when there is none.  The one domination
    scan behind maximality, domination and k-domination."""
    adj = g.adjacency
    for v in range(g.node_count):
        if v in members:
            continue
        row = adj[v]
        if members.isdisjoint(row):
            return v, 0
        if k > 1:
            count = len(members.intersection(row))
            if count < k:
                return v, count
    return None


def is_connected_dominating_set(g: Graph, s: Iterable[int]) -> tuple[bool, Witness | None]:
    """Every outside vertex has a neighbour in the set and the induced
    subgraph is connected, the witness of a split set coming from
    :func:`graph._connectivity_witness` at m = 1."""
    witness = _cds_witness(g, _as_subset(g, s))
    return witness is None, witness


def _cds_witness(g: Graph, members: list[int]) -> Witness | None:
    """:func:`is_connected_dominating_set`'s witness for the ascending,
    already validated ids ``members``: one domination scan, then one
    component search."""
    if not members:
        raise GraphInputError("set must be non-empty")
    short = _short_of_k(g, set(members), 1)
    if short is not None:
        return ("undominated", short[0])
    return _connectivity_witness(g, members, 1)


def is_k_dominating(g: Graph, s: Iterable[int], k: int) -> tuple[bool, Witness | None]:
    """Every vertex outside the set has at least k neighbours inside it."""
    _check_k(k)
    short = _short_of_k(g, set(_as_subset(g, s)), k)
    if short is not None:
        return False, ("deficient", *short)
    return True, None


def is_m_connected_k_dominating(
    g: Graph, s: Iterable[int], k: int, m: int
) -> VerificationReport:
    """The full backbone certificate: k-domination of the outside plus
    m-connectivity of the induced subgraph, whose verdict and witness come
    from one call of :func:`graph._connectivity_witness`."""
    nodes = _as_subset(g, s)
    _check_k(k)
    _check_m(m)
    short = _short_of_k(g, set(nodes), k)
    witness_m = _connectivity_witness(g, nodes, m)
    return VerificationReport(
        (
            CheckResult("k-dominating", short is None, short and ("deficient", *short)),
            CheckResult("m-connected", witness_m is None, witness_m),
        )
    )


# Memory budget of one stretch pass over ``width`` sources, in bits:
# n * width, the bits of one array of a ``width``-bit mask per vertex
# (2**26 bits is 8 MiB), may not exceed it.
_STRETCH_BUDGET = 1 << 26


def backbone_stretch(g: Graph, s: Iterable[int]) -> tuple[float, DistanceReport | None]:
    """Worst ratio, over all node pairs, of the shortest path routed with
    all internal vertices inside the backbone to the true shortest path.

    The backbone must be a connected dominating set (validated once: one
    domination scan and one component search), which makes every routed
    distance finite.  Returns (1.0, None) when no pair has a ratio above
    1; otherwise the ratio and the lexicographically first pair (u, v),
    u < v, that attains it.

    A level-synchronous BFS from a block of sources at once, one bit
    each, grows every vertex's masks of the sources within plain and
    within routed distance d (see :func:`_stretch_block`, which gets the
    member set to shrink its routed sweep).  Every routed distance is at
    most ``reach`` (:func:`_routed_reach`, three O(n + E) searches shared
    by all blocks), which cuts both searches short.  The blocks keep to
    the memory budget ``_STRETCH_BUDGET`` (see :func:`_source_blocks`),
    so a graph of up to 8192 nodes takes one pass; the answer does not
    depend on the width.
    """
    nodes = _as_subset(g, s)
    witness = _cds_witness(g, nodes)
    if witness is not None:
        raise GraphInputError(f"backbone is not a connected dominating set: {witness}")
    n = g.node_count
    members = set(nodes)
    relays = [tuple(w for w in row if w in members) for row in g.adjacency]
    reach = _routed_reach(g.adjacency, members, nodes[0])
    worst: tuple[int, int, Edge | None] = (1, 1, None)
    bounds = _source_blocks(n)
    for lo, hi in zip(bounds, bounds[1:]):
        worst = _stretch_block(g.adjacency, relays, members, lo, hi, reach, worst)
    d_backbone, d_g, pair = worst
    if pair is None:
        return 1.0, None
    return d_backbone / d_g, DistanceReport(pair, d_g, d_backbone)


def _routed_reach(adjacency: Sequence[Sequence[int]], members: set[int], lowest: int) -> int:
    """An upper bound on every routed distance: twice the routed
    eccentricity of a member x, since a routed path u -> x and one
    x -> v join into a routed walk u -> v.  It tries the member
    ``lowest``, the member farthest from it and the member halfway along
    the search tree between the two, one O(n + E) search each, and keeps
    the smallest eccentricity."""
    order, dist, parent = _routed_search(adjacency, members, lowest)
    far = next(v for v in reversed(order) if v in members)
    middle = far
    for _ in range(dist[far] // 2):
        middle = parent[middle]
    eccentricity = dist[order[-1]]
    for x in (far, middle):
        order, dist, _ = _routed_search(adjacency, members, x)
        eccentricity = min(eccentricity, dist[order[-1]])
    return 2 * eccentricity


def _routed_search(
    adjacency: Sequence[Sequence[int]], members: set[int], x: int
) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first order, routed distance and search-tree parent from
    the member x, leaving members only."""
    dist = [-1] * len(adjacency)
    parent = dist[:]
    dist[x] = 0
    order = [x]
    for w in order:
        if w in members:
            d = dist[w] + 1
            for y in adjacency[w]:
                if dist[y] < 0:
                    dist[y] = d
                    parent[y] = w
                    order.append(y)
    return order, dist, parent


def _source_blocks(n: int) -> list[int]:
    """Bounds 0 = b_0 < b_1 < ... < b_p = n of the source blocks of an
    n-node stretch search: the fewest passes whose width keeps
    n * width within ``_STRETCH_BUDGET``, their widths differing by at
    most one."""
    widest = max(1, _STRETCH_BUDGET // n)
    passes = -(-n // widest)
    return [i * n // passes for i in range(passes + 1)]


def _stretch_block(
    adjacency: Sequence[Sequence[int]],
    relays: Sequence[Sequence[int]],
    members: set[int],
    lo: int,
    hi: int,
    reach: int,
    worst: tuple[int, int, Edge | None],
) -> tuple[int, int, Edge | None]:
    """Fold the pairs (u, v), lo <= u < hi and u < v, into ``worst``, the
    (d_backbone, d_g, pair) of the largest ratio seen so far, given that
    no routed distance exceeds ``reach``.

    Source u is bit u - lo.  ``plain[v]`` holds the sources within
    distance ``level`` of v and ``routed[v]`` those within routed distance
    ``level``; a routed path may leave a source or a member (``relays[v]``
    lists v's member neighbours).  Both distances are symmetric, so u can
    be the source of every pair.  Masks only grow and routed lies within
    plain, so a plain level adds ``new ^ (old | routed[v])`` to v's pairs
    that route further: ``pending[v] = [a, unrouted, mask_a, ...]``, where
    mask_d, as it entered, holds those at plain distance d, and
    ``unrouted`` those not routed yet.  A routed level tests ``unrouted``
    once; the first mask_d, d <= level * d_g // d_backbone, with a newly
    routed source has the only ratio that can raise or tie the worst.
    Leading masks with no unrouted source go.  A pair at plain distance a
    routes at most ``reach``, so it can tie the worst only while a <=
    ``cap`` = reach * d_g // d_backbone.  The worst only rises, so the
    plain search stops at the first level past ``cap``, and masks past it
    go whenever the worst rises.  Then no pair enters ``pending`` again
    and a non-member's routed mask is read by no other vertex, so the
    routed sweep keeps members and pending vertices only, until nothing
    is pending.  Ties keep the first pair.

    One call costs O(L * (n + E)) ORs of (hi - lo)-bit masks, L <= reach
    the largest routed distance of a pair within ``cap``.  It holds
    ``plain``, ``routed``, one sweep's grown masks and ``pending``: up to
    one unrouted and ``cap`` level masks per vertex.
    """
    n = len(adjacency)
    full = (1 << (hi - lo)) - 1
    # One hop is one hop on both routes, because a source may be left.
    plain = [0] * n
    for u in range(lo, hi):
        for w in (u, *adjacency[u]):
            plain[w] |= 1 << (u - lo)
    routed = plain[:]
    pending: dict[int, list[int]] = {}
    plain_live = routed_live = [v for v in range(n) if plain[v] != full]
    d_backbone, d_g, pair = worst
    cap = reach * d_g // d_backbone
    # no routed distance exceeds reach, so no later level settles a pair
    for level in range(2, reach + 1):
        if not (plain_live or pending):
            break
        amax = level * d_g // d_backbone
        grown = routed[:]
        for v in routed_live:
            mask = routed[v]
            for w in relays[v]:
                mask |= routed[w]
            grown[v] = mask
            entries = pending.get(v)
            hit = entries and mask & entries[1]
            if not hit:
                continue
            unrouted = entries[1]
            first = entries[0]
            if first <= amax:
                for a in range(first, min(amax + 1, first + len(entries) - 2)):
                    found = entries[a - first + 2] & hit
                    if found:
                        u = lo + (found & -found).bit_length() - 1
                        if a * d_backbone < level * d_g or (u, v) < pair:
                            d_backbone, d_g, pair, amax = level, a, (u, v), a
                        break
            entries[1] = unrouted = unrouted ^ hit
            if not unrouted:
                del pending[v]
                continue
            while not entries[2] & unrouted:
                del entries[2]
                entries[0] += 1
        routed = grown
        if reach * d_g // d_backbone < cap:
            cap = reach * d_g // d_backbone
            # no pending entry yet holds a plain distance past level - 1
            for v in list(pending) if cap < level - 1 else ():
                entries = pending[v]
                keep = max(2, cap - entries[0] + 3)
                for mask in entries[keep:]:
                    entries[1] &= ~mask
                del entries[keep:]
                if not entries[1]:
                    del pending[v]
        if level > cap:
            # the cutoff never rises again, so the plain search is done
            plain_live, plain = [], []
        grown = plain[:]
        for v in plain_live:
            old = mask = plain[v]
            for w in adjacency[v]:
                mask |= plain[w]
            grown[v] = mask
            if v > lo:
                fresh = mask ^ (old | routed[v])
                if fresh and v < hi:
                    fresh &= (1 << (v - lo)) - 1
                if fresh:
                    entries = pending.setdefault(v, [level, 0])
                    entries[1] |= fresh
                    # a zero mask for each level that added nothing
                    while len(entries) < level - entries[0] + 2:
                        entries.append(0)
                    entries.append(fresh)
        plain = grown
        plain_live = [v for v in plain_live if plain[v] != full]
        routed_live = [v for v in routed_live if routed[v] != full
                       and (plain_live or v in members or v in pending)]
    return d_backbone, d_g, pair


def _mask_connected(adj_masks: list[int], mask: int) -> bool:
    lowest = mask & -mask
    reach = lowest
    frontier = lowest
    while frontier:
        grown = 0
        m = frontier
        while m:
            bit = m & -m
            grown |= adj_masks[bit.bit_length() - 1]
            m ^= bit
        frontier = grown & mask & ~reach
        reach |= frontier
    return reach == mask


def _mask_m_connected(adj_masks: list[int], mask: int, m: int) -> bool:
    """G[mask] is connected and, for m >= 2, stays connected after the
    removal of any m - 1 members.  For m >= 2 every member must already
    have at least m member neighbours, so the set has more than m."""
    if m == 1:
        return _mask_connected(adj_masks, mask)
    bits = []
    probe = mask
    while probe:
        bit = probe & -probe
        bits.append(bit)
        probe ^= bit
    if m == 2:
        return all(_mask_connected(adj_masks, mask ^ bit) for bit in bits)
    return all(
        _mask_connected(adj_masks, mask ^ bits[i] ^ bits[j])
        for i in range(len(bits))
        for j in range(i + 1, len(bits))
    )


def _add_vertex(levels: tuple[int, ...], nbrs: int) -> tuple[int, ...]:
    """Bit-sliced counters after one more vertex with neighbour mask
    ``nbrs``: ``levels[i]`` holds the vertices with at least i + 1
    neighbours counted, saturating at ``len(levels)``."""
    grown = [levels[0] | nbrs]
    for i in range(1, len(levels)):
        grown.append(levels[i] | (levels[i - 1] & nbrs))
    return tuple(grown)


def _reach(prefix: tuple[int, ...], rest: tuple[int, ...], need: int, left: int) -> int:
    """The vertices with at least ``need`` neighbours counted by two sets
    of counters together: a from ``prefix`` and need - a <= ``left`` from
    ``rest``."""
    mask = prefix[need - 1]
    if need <= left:
        mask |= rest[need - 1]
    for a in range(max(1, need - left), need):
        mask |= prefix[a - 1] & rest[need - a - 1]
    return mask


def _short(levels: tuple[int, ...], need: int, left: int) -> int:
    """The vertices that ``levels`` counts at least ``left`` neighbours
    short of ``need``, as a mask to intersect with a finite one."""
    return ~levels[need - left] if need >= left else 0


def brute_force_min_mcds(
    g: Graph, k: int, m: int, size_cap: int | None = None
) -> OracleResult:
    """Exhaustive minimum m-connected k-dominating set, for graphs of at
    most 20 nodes.

    Subsets are ordered by ascending cardinality, lexicographically within
    one cardinality, and the first valid subset is returned, so it is a
    global minimum.  ``sets_examined`` is the rank of that witness in this
    order, or the number of subsets up to the cap when none qualifies.  It
    counts every subset ordered before the witness, whether or not the
    search looked at it.  Returns infeasible when nothing up to ``size_cap``
    (a positive int; default: all n nodes) qualifies.

    Every question goes to one search, :func:`_find_set`: is there a valid
    set of a given size that holds some nodes and avoids some others?  It
    searches the other nodes in Cuthill-McKee order
    (:func:`_cuthill_mckee`), which keeps each node's neighbours close to
    it, so its count prunes fire early.  Each size from 1 up is decided by
    one question that holds and avoids nothing.  At the first feasible
    size the witness is built node by node: v = 0, 1, ... is kept when the
    last set found holds it, or when some valid set holds the nodes kept
    so far and v and avoids the nodes refused so far (that set is then the
    last set found); otherwise v is refused.  So each node is settled as
    the lexicographic order settles it, the nodes kept are the first valid
    set of that size, and ``sets_examined``, the sets of smaller sizes
    plus the witness's rank among the sets of its size, follows from the
    witness alone.
    """
    _check_k(k)
    _check_m(m)
    if size_cap is not None and (not _is_int(size_cap) or size_cap < 1):
        raise GraphInputError(f"size cap must be a positive integer, got {size_cap!r}")
    n = g.node_count
    if n > ORACLE_NODE_LIMIT:
        raise OracleSizeError(n, ORACLE_NODE_LIMIT)
    cap = n if size_cap is None else min(size_cap, n)
    order = _cuthill_mckee(g.adjacency)
    examined = 0
    for size in range(1, cap + 1):
        found = _find_set(g.adjacency, order, k, m, size)
        if found:
            break
        examined += comb(n, size)
    else:
        return OracleResult(None, None, examined)
    # ``found`` holds every node kept and none refused
    kept: list[int] = []
    refused: list[int] = []
    for v in range(n):
        if len(kept) == size:
            break
        if not found >> v & 1:
            hit = _find_set(g.adjacency, order, k, m, size, kept + [v], refused)
            if not hit:
                refused.append(v)
                continue
            found = hit
        kept.append(v)
    # at each kept node c, with ``left`` nodes to go from before + 1 on,
    # comb(n - before - 1, left) - comb(n - c, left) sets share the
    # earlier nodes and hold a smaller node here
    before = -1
    for left, c in zip(range(size, 0, -1), kept):
        examined += comb(n - before - 1, left) - comb(n - c, left)
        before = c
    return OracleResult(size, frozenset(kept), examined + 1)


def _cuthill_mckee(adjacency: Sequence[Sequence[int]]) -> list[int]:
    """Every node in Cuthill-McKee order: a breadth-first search from the
    node of lowest (degree, id) that visits each node's new neighbours by
    (degree, id), then the same from the unvisited node of lowest
    (degree, id), one component after another."""

    def key(v: int) -> tuple[int, int]:
        return len(adjacency[v]), v

    order: list[int] = []
    seen: set[int] = set()
    for start in sorted(range(len(adjacency)), key=key):
        if start in seen:
            continue
        head = len(order)
        order.append(start)
        seen.add(start)
        while head < len(order):
            fresh = sorted((w for w in adjacency[order[head]] if w not in seen), key=key)
            seen.update(fresh)
            order += fresh
            head += 1
    return order


def _find_set(
    adjacency: Sequence[Sequence[int]],
    order: Sequence[int],
    k: int,
    m: int,
    size: int,
    forced: Sequence[int] = (),
    excluded: Sequence[int] = (),
) -> int:
    """A valid set of ``size`` nodes that holds every node of ``forced``
    and none of ``excluded``, as a mask of node ids, or 0 when there is
    none.  ``order`` lists every node; the nodes in neither list are
    searched in its order.

    The nodes are relabelled: ``forced`` at positions 0..f-1, chosen from
    the start, then ``excluded``, below the first position ``lo`` that may
    be picked, so that every rule treats them as outsiders, then the rest
    in ``order``.  One depth-first search picks the other size - f members
    at ascending positions and carries bit-sliced counts of chosen
    neighbours down the prefix, saturating at max(k, m).  A set is valid
    only if every outsider has at least k chosen neighbours and, for
    m >= 2, every member at least m member neighbours (vertex connectivity
    is at most the minimum degree); only sets that pass both reach the
    connectivity test.  A depth with ``left`` picks to go can give a
    vertex at most ``left`` more chosen neighbours, which prunes three
    ways:

    (a) a pick stops its depth when some vertex below it, or a member,
        cannot reach its need with at most ``left`` more neighbours from
        the pick on, and skips its own subtree when the pick cannot;
    (b) the last pick comes from one candidate mask: it has m chosen
        neighbours, is adjacent to every member one short and to every
        outsider one short that it is not, and is the one outsider short
        by more, if there is one (no pick works for two, or for a member
        short by more);
    (c) at every depth, each pick has m - left + 1 chosen neighbours and
        is adjacent to every member ``left`` short and every outsider
        ``left`` short that can no longer be picked.

    Every prune drops only sets that fail the counts.  When ``forced``
    already fills the size, the counts and the connectivity test are run
    on it directly.
    """
    n = len(adjacency)
    # No count exceeds n - 1, so a need above n is the need n.
    k = min(k, n)
    labels = [*forced, *excluded]
    lo = len(labels)
    placed = set(labels)
    labels += [v for v in order if v not in placed]
    position = [0] * n
    for i, v in enumerate(labels):
        position[v] = i
    adj_masks = [0] * n
    for i, v in enumerate(labels):
        for w in adjacency[v]:
            adj_masks[i] |= 1 << position[w]
    saturation = max(k, m)
    full = (1 << n) - 1
    levels = (0,) * saturation
    for c in range(len(forced)):
        levels = _add_vertex(levels, adj_masks[c])
    chosen = (1 << len(forced)) - 1
    if size == len(forced):
        # nothing to pick: the counts, then the connectivity test
        if full & ~chosen & ~levels[k - 1] or m > 1 and chosen & ~levels[m - 1]:
            return 0
        return _unlabel(chosen, labels) if _mask_m_connected(adj_masks, chosen, m) else 0
    # suffix[c]: the counters of the vertices c..n-1 all chosen
    suffix = [(0,) * saturation] * (n + 1)
    for c in range(n - 1, lo - 1, -1):
        suffix[c] = _add_vertex(suffix[c + 1], adj_masks[c])

    def search(levels: tuple[int, ...], chosen: int, lo: int, left: int) -> int:
        """The first valid set of ``chosen`` plus ``left`` picks from lo
        on, or 0."""
        # (b), (c): each pick has m - left + 1 chosen neighbours and is
        # adjacent to every vertex ``left`` short that cannot be picked or,
        # with one pick left, is not the pick; one short by more must be
        # the last pick
        picks = ((1 << (n - left + 1)) - 1) & ~((1 << lo) - 1)
        outside = ~chosen & (full if left == 1 else (1 << lo) - 1)
        wanting = outside & _short(levels, k, left)
        lacking = outside & _short(levels, k, left + 1)
        if m > 1:
            picks &= ~_short(levels, m, left)
            wanting |= chosen & _short(levels, m, left)
            lacking |= chosen & _short(levels, m, left + 1)
        while wanting and picks:
            bit = wanting & -wanting
            picks &= bit if bit & lacking else adj_masks[bit.bit_length() - 1] | bit
            wanting ^= bit
        if left == 1:
            while picks:
                bit = picks & -picks
                if _mask_m_connected(adj_masks, chosen | bit, m):
                    return chosen | bit
                picks ^= bit
            return 0
        # (a): every vertex below the pick and every member must still
        # reach its need from the suffix; the pick must reach m
        while picks:
            bit = picks & -picks
            picks ^= bit
            c = bit.bit_length() - 1
            rest = suffix[c]
            if (bit - 1) & ~chosen & ~_reach(levels, rest, k, left):
                return 0
            if m > 1:
                reach = _reach(levels, rest, m, left)
                if chosen & ~reach:
                    return 0
                if not reach & bit:
                    continue
            found = search(_add_vertex(levels, adj_masks[c]), chosen | bit, c + 1, left - 1)
            if found:
                return found
        return 0

    return _unlabel(search(levels, chosen, lo, size - len(forced)), labels)


def _unlabel(mask: int, labels: Sequence[int]) -> int:
    """The mask of node ids ``labels[i]`` for the positions i in ``mask``."""
    ids = 0
    while mask:
        bit = mask & -mask
        ids |= 1 << labels[bit.bit_length() - 1]
        mask ^= bit
    return ids
