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

The oracle keeps its validity tests self-contained (bitmask arithmetic,
no shared code with the checkers or the pipeline) so that oracle versus
pipeline comparisons stay two independent routes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import GraphInputError, OracleSizeError
from .graph import (
    DistanceReport,
    Graph,
    _as_subset,
    _check_k,
    _check_m,
    _first_bad_point,
    _is_int,
    block_cut_tree,
    connected_components,
    is_m_connected,
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
    members = set(_as_subset(g, s))
    for u in sorted(members):
        for v in g.adjacency[u]:
            if v in members and v > u:
                return False, ("adjacent-pair", u, v)
    for v in range(g.node_count):
        if v not in members and not any(w in members for w in g.adjacency[v]):
            return False, ("addable-vertex", v)
    return True, None


def is_connected_dominating_set(g: Graph, s: Iterable[int]) -> tuple[bool, Witness | None]:
    """Every outside vertex has a neighbour in the set and the induced
    subgraph is connected."""
    members = _as_subset(g, s)
    if not members:
        raise GraphInputError("set must be non-empty")
    member_set = set(members)
    for v in range(g.node_count):
        if v not in member_set and not any(w in member_set for w in g.adjacency[v]):
            return False, ("undominated", v)
    components = connected_components(g, members)
    if len(components) > 1:
        return False, ("disconnected", tuple(components[0]))
    return True, None


def is_k_dominating(g: Graph, s: Iterable[int], k: int) -> tuple[bool, Witness | None]:
    """Every vertex outside the set has at least k neighbours inside it."""
    _check_k(k)
    member_set = set(_as_subset(g, s))
    for v in range(g.node_count):
        if v in member_set:
            continue
        count = sum(1 for w in g.adjacency[v] if w in member_set)
        if count < k:
            return False, ("deficient", v, count)
    return True, None


def _m_connectivity_witness(g: Graph, nodes: list[int], m: int) -> Witness:
    """Concrete evidence for a failed m-connectivity check: the first
    component of a split set, a set of at most m vertices, or the
    lexicographically smallest disconnecting set of m - 1 vertices.

    For m = 2 and a connected set that vertex is the lowest cut vertex,
    which one block decomposition gives.  For m = 3 the pair starts at the
    lowest bad point (see :func:`graph._first_bad_point`): both members of
    a disconnecting pair are bad points, and in a set of four or more
    vertices every bad point belongs to one.  Its partner is the lowest
    vertex that completes it, so the search costs one BFS per candidate,
    not one per pair.  A disconnected set stops within two tries.
    """
    if m == 1:
        return ("disconnected", tuple(connected_components(g, nodes)[0]))
    if len(nodes) <= m:
        return ("too-small", len(nodes))
    if m == 2 and len(connected_components(g, nodes)) == 1:
        return ("disconnecting-set", (min(block_cut_tree(g, nodes).cut_vertices),))
    pinned = () if m == 2 else (_first_bad_point(g, nodes, set()),)
    for w in nodes:
        if w in pinned:
            continue
        removed = (*pinned, w)
        rest = [x for x in nodes if x not in removed]
        if len(connected_components(g, rest)) > 1:
            return ("disconnecting-set", removed)
    raise AssertionError("witness requested for a passing check")


def is_m_connected_k_dominating(
    g: Graph, s: Iterable[int], k: int, m: int
) -> VerificationReport:
    """The full backbone certificate: k-domination of the outside plus
    m-connectivity of the induced subgraph."""
    nodes = _as_subset(g, s)
    ok_k, witness_k = is_k_dominating(g, nodes, k)
    ok_m = is_m_connected(g, nodes, m)
    witness_m = None if ok_m else _m_connectivity_witness(g, nodes, m)
    return VerificationReport(
        (
            CheckResult("k-dominating", ok_k, witness_k),
            CheckResult("m-connected", ok_m, witness_m),
        )
    )


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


def backbone_stretch(g: Graph, s: Iterable[int]) -> tuple[float, DistanceReport | None]:
    """Worst ratio, over all node pairs, of the shortest path routed with
    all internal vertices inside the backbone to the true shortest path.

    The backbone must be a connected dominating set (validated), which
    makes every routed distance finite.  Returns (1.0, None) when the
    graph has fewer than two nodes.
    """
    members = set(_as_subset(g, s))
    ok, witness = is_connected_dominating_set(g, members)
    if not ok:
        raise GraphInputError(f"backbone is not a connected dominating set: {witness}")
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


def _mask_valid(adj_masks: list[int], n: int, mask: int, k: int, m: int) -> bool:
    size = mask.bit_count()
    for v in range(n):
        bit = 1 << v
        if mask & bit:
            continue
        if (adj_masks[v] & mask).bit_count() < k:
            return False
    if m == 1:
        return _mask_connected(adj_masks, mask)
    if size <= m:
        return False
    if m == 2:
        probe = mask
        while probe:
            bit = probe & -probe
            if not _mask_connected(adj_masks, mask ^ bit):
                return False
            probe ^= bit
        return True
    bits = []
    probe = mask
    while probe:
        bit = probe & -probe
        bits.append(bit)
        probe ^= bit
    for i in range(len(bits)):
        for j in range(i + 1, len(bits)):
            if not _mask_connected(adj_masks, mask ^ bits[i] ^ bits[j]):
                return False
    return True


def brute_force_min_mcds(
    g: Graph, k: int, m: int, size_cap: int | None = None
) -> OracleResult:
    """Exhaustive minimum m-connected k-dominating set, for graphs of at
    most 20 nodes.

    Subsets are enumerated in ascending cardinality (lexicographic within
    one cardinality), so the first valid subset is a global minimum.
    Returns infeasible when nothing up to ``size_cap`` (a positive int;
    default: all n nodes) qualifies.
    """
    _check_k(k)
    _check_m(m)
    if size_cap is not None and (not _is_int(size_cap) or size_cap < 1):
        raise GraphInputError(f"size cap must be a positive integer, got {size_cap!r}")
    n = g.node_count
    if n > ORACLE_NODE_LIMIT:
        raise OracleSizeError(n, ORACLE_NODE_LIMIT)
    cap = n if size_cap is None else min(size_cap, n)
    adj_masks = [0] * n
    for v in range(n):
        for w in g.adjacency[v]:
            adj_masks[v] |= 1 << w
    examined = 0
    for size in range(1, cap + 1):
        for combo in combinations(range(n), size):
            examined += 1
            mask = 0
            for v in combo:
                mask |= 1 << v
            if _mask_valid(adj_masks, n, mask, k, m):
                return OracleResult(size, frozenset(combo), examined)
    return OracleResult(None, None, examined)
