"""Undirected graph substrate: construction, traversal, block decomposition,
and exact vertex-connectivity tests.

:func:`from_points` buckets the points into a grid of cells about one
radius wide and compares only neighbouring cells.

Block lists with their cut vertices (:func:`_local_blocks`) and
separation pairs are all read from one palm tree (:func:`_palm_tree`),
O(n + E), of a sorted member list over any adjacency indexed by node id:
the graph's own, or the induced rows sustainability keeps for a phase
(:func:`_induced_rows`).  From one block list, :class:`_BlockCutTree`
keeps the blocks and cut vertices of a set as vertices join it, in
near-linear time in all, and names its first leaf block: diversification
runs one block DFS per phase and reads every round's leaf from the tree.
One routine, :func:`_connectivity_witness`, gives the m = 1..3 verdicts
and verify's witness in one call.  At m = 2 and 3 it reads the lowest
vertex that splits the set from one palm tree, after pinning at m = 3
the lowest bad point.  On a 2-connected set that comes from the one separation-pair
engine, :func:`_bad_points`: one palm tree plus a separation-pair pass,
about O((n + E) log n), that marks every bad point.  Sustainability fills
its candidate set from the same engine, which records the separation
pairs themselves, up to a budget of n + E.  From a recorded pair
{v, c}, :func:`_small_sides` lists the components of the set minus both
but the largest, by interleaved searches that cost the small side only;
each one that holds no cut vertex of the set minus v makes a leaf block
with c.  A round that joins the only two sides of {v, c}, one listed, by
a one-vertex ear retires the pair from the map with no search.

Every path that an augmentation phase promotes comes from one search,
:func:`_lex_shortest_path`: a BFS from the listed sources, or back from
the listed targets when the sources are given as a membership test,
through the vertices outside a blocked set, then a smallest-id walk
from the nearest source.

All types are immutable after construction and all operations are pure
functions, so values can be shared freely across threads.  Every iteration
order (neighbour lists, component lists, block lists, path tie-breaks) is
sorted or lexicographic, which makes every downstream consumer
deterministic.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Sequence

from .errors import GraphInputError, SelfLoopError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes ``0 .. node_count - 1``.

    ``adjacency[v]`` is the sorted tuple of neighbours of ``v``.  Instances
    are expected to come from :func:`from_edge_list` or :func:`from_points`,
    which guarantee symmetry, no self-loops and no parallel edges.
    """

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def edges(self) -> Iterator[Edge]:
        """Yield each edge once, as (u, v) with u < v, in ascending order."""
        for u in range(self.node_count):
            for v in self.adjacency[u]:
                if v > u:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency) // 2


@dataclass(frozen=True)
class DistanceReport:
    """Hop distance of a node pair in the graph versus through a backbone.

    ``d_backbone`` is the length of the shortest path whose internal
    vertices all lie in the backbone; it is never below ``d_g``.  The
    ratio ``d_backbone / d_g`` is the stretch :func:`verify.backbone_stretch`
    returns with it.
    """

    pair: Edge
    d_g: int
    d_backbone: int


def _is_int(value: object) -> bool:
    """A genuine integer: bools are rejected although bool subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_real(value: object, what: str) -> float:
    """``value`` as a float; bools, non-numbers and non-finite values
    (integers beyond the float range included) are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise GraphInputError(f"{what} must be a finite real number, got {value!r}")


def _as_subset(g: Graph, subset: Iterable[int]) -> list[int]:
    """Validate and return the subset as a sorted, deduplicated list.
    Members are checked before they are hashed or compared, so a member
    that is not a node id raises GraphInputError, never TypeError."""
    members = list(subset)
    for v in members:
        if not _is_int(v) or not 0 <= v < g.node_count:
            raise GraphInputError(f"subset node {v!r} out of range 0..{g.node_count - 1}")
    return sorted(set(members))


def _check_k(k: object) -> None:
    if not _is_int(k) or k < 1:
        raise GraphInputError(f"k must be a positive integer, got {k!r}")


def _check_m(m: object) -> None:
    if not _is_int(m) or m not in (1, 2, 3):
        raise GraphInputError(f"m must be 1, 2 or 3, got {m!r}")


# The most nodes a graph may have.  Every builder checks it before it
# allocates anything per node, so a short input cannot ask for more
# memory than a graph of this size takes.
NODE_LIMIT = 1 << 20


def _check_node_count(n: int) -> None:
    if n > NODE_LIMIT:
        raise GraphInputError(f"node count {n} is above the limit of {NODE_LIMIT}")


def from_edge_list(n: int, edges: Iterable[Edge]) -> Graph:
    """Build a simple symmetric graph from an edge list.

    Duplicate edges (in either orientation) are collapsed.  Self-loops,
    out-of-range ids, ids that are not ints (bools included) and a node
    count above ``NODE_LIMIT`` are rejected.
    """
    if not _is_int(n) or n < 0:
        raise GraphInputError(f"node count must be a non-negative integer, got {n!r}")
    _check_node_count(n)
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for edge in edges:
        if not (isinstance(edge, (tuple, list)) and len(edge) == 2):
            raise GraphInputError(f"edge {edge!r} is not a (u, v) pair")
        u, v = edge
        if not (_is_int(u) and _is_int(v)):
            raise GraphInputError(f"edge ({u!r}, {v!r}) has non-integer endpoint")
        if u == v:
            raise SelfLoopError(f"self-loop on node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u}, {v}) out of range 0..{n - 1}")
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
    return Graph(n, adjacency)


# Grid cells are a little wider than the reach of the edge test, and never
# narrower than 2**-30 of the largest coordinate: see from_points.
_CELL_MARGIN = 1 + 2.0**-20
_CELL_SPAN = 2.0**30


def from_points(points: Sequence[tuple[float, float]], radius: float) -> Graph:
    """Build the unit-disk graph of a point set: edge iff the euclidean
    distance is at most ``radius`` (closed disk, so a tie at exactly the
    radius produces an edge).  Comparison is done on squared distances,
    ``dx * dx + dy * dy <= radius * radius`` with ``dx = x_i - x_j``;
    rounding is symmetric, so swapping i and j only flips the signs and
    leaves the test unchanged.  Each point must be an (x, y) pair of
    finite real numbers, and there may be at most ``NODE_LIMIT`` of them.

    The points are bucketed into square cells and each point is compared
    only with the points of its own and the eight neighbouring cells, so
    the build costs O(n + C) for C compared pairs (about three per edge
    when the points are spread evenly) instead of n^2 / 2 comparisons.  The
    cell side never lets a pair that passes the float test fall two
    cells apart:

    - The exact coordinate differences of a passing pair are at most
      t (1 + 3 eps), where t = max(radius, 2**-511) and eps = 2**-53.
      The floor 2**-511 covers a squared radius that underflows; a
      squared radius that overflows accepts every pair, so then all
      points share one cell.
    - The side is at least t (1 + 2**-20), so the exact coordinate
      quotients of a passing pair differ by less than 1 - 2**-21.
    - The side is at least 2**-30 of the largest coordinate, so the two
      rounded quotients move by at most 2**-22 in all, and the computed
      cell indices differ by at most one.  The same bound keeps the
      quotient finite, however large the coordinates or small the radius.
    """
    _check_node_count(len(points))
    r = _finite_real(radius, "radius")
    if r <= 0:
        raise GraphInputError(f"radius must be positive, got {radius!r}")
    pts: list[tuple[float, float]] = []
    for i, p in enumerate(points):
        if not (isinstance(p, (tuple, list)) and len(p) == 2):
            raise GraphInputError(f"point {i} is not an (x, y) pair: {p!r}")
        x, y = p
        # A pair of plain finite floats is taken as it is; only another
        # pair pays for the checks' labels.
        if not (type(x) is float and type(y) is float and math.isfinite(x) and math.isfinite(y)):
            x, y = _finite_real(x, f"point {i} x"), _finite_real(y, f"point {i} y")
        pts.append((x, y))
    n = len(pts)
    r2 = r * r
    if r2 == math.inf:
        side = math.inf
    else:
        extent = max((max(abs(x), abs(y)) for x, y in pts), default=0.0)
        side = max(max(r, 2.0**-511) * _CELL_MARGIN, extent / _CELL_SPAN)
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(pts):
        cells.setdefault((math.floor(x / side), math.floor(y / side)), []).append(i)
    rows: list[list[int]] = [[] for _ in range(n)]
    for (cx, cy), here in cells.items():
        # This cell against itself and the four neighbours that follow it,
        # so each pair of cells is visited once.
        near = list(here)
        for key in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)):
            near += cells.get(key, ())
        for a, i in enumerate(here):
            xi, yi = pts[i]
            for j in near[a + 1 :]:
                dx = xi - pts[j][0]
                dy = yi - pts[j][1]
                if dx * dx + dy * dy <= r2:
                    rows[i].append(j)
                    rows[j].append(i)
    return Graph(n, tuple(tuple(sorted(row)) for row in rows))


def _lex_shortest_path(
    g: Graph,
    sources: Iterable[int] | Container[int],
    targets: Iterable[int] | Container[int],
    blocked: Container[int],
) -> list[int] | None:
    """Lexicographically smallest among the shortest paths from any source
    to any target whose internal vertices all lie outside ``blocked``;
    None when there is none.  A source that is also a target is the path
    [source].

    One BFS layers the graph by distance from the listed side, expanding
    only that side and the vertices not in ``blocked``, and stops once
    the layer holding the nearest member of the other side, which is only
    tested with ``in``, is complete.  Listed sources (any object with a
    length) are that side.  Sources given as a membership test (``in``
    but no length) are never listed: the BFS runs back from the listed
    targets.  So a caller pays for the side it lists, and gets the same
    path either way.  On a shortest path the i-th vertex lies in layer i
    counted from the source end, so from the targets the walk starts at
    the smallest source of the last layer and always steps to the
    smallest-id vertex one layer closer.  From the sources, one pass back
    over the layers first marks the vertices with a marked neighbour one
    layer further out, the targets reached being marked; the walk then
    starts at the smallest marked source and always steps to the smallest
    marked vertex one layer further out.
    """
    forward = hasattr(sources, "__len__")
    near, far = (frozenset(sources), targets) if forward else (frozenset(targets), sources)
    adj = g.adjacency
    dist = dict.fromkeys(near, 0)
    found = [v for v in near if v in far]
    layers = [list(near)]
    while layers[-1] and not found:
        d = len(layers)
        layer = []
        for x in layers[-1]:
            for y in adj[x]:
                if y in dist:
                    continue
                if y in far:
                    dist[y] = d
                    found.append(y)
                elif y not in blocked:
                    dist[y] = d
                    layer.append(y)
        layers.append(layer)
    if not found:
        return None
    last = len(layers) - 1
    if not forward:
        path = [min(found)]
        for d in range(last - 1, -1, -1):
            path.append(min(y for y in adj[path[-1]] if dist.get(y) == d))
        return path
    marked = set(found)
    for layer in reversed(layers[:-1]):
        # an expanded vertex has no neighbour two layers further out
        marked.update([x for x in layer if not marked.isdisjoint(adj[x])])
    path = [min(marked.intersection(layers[0]))]
    for d in range(1, last + 1):
        path.append(min(y for y in adj[path[-1]] if y in marked and dist[y] == d))
    return path


def _induced_rows(g: Graph, nodes: Sequence[int]) -> list[list[int]]:
    """Induced adjacency indexed by node id: the row of each of the ids
    ``nodes`` lists its neighbours among them in ascending order, and every
    other row is empty.  It stays valid as vertices join, each needing
    only its own row and one insertion into each neighbour's."""
    member = [False] * g.node_count
    for v in nodes:
        member[v] = True
    adj = g.adjacency
    rows: list[list[int]] = [[] for _ in range(g.node_count)]
    for v in nodes:
        rows[v] = [w for w in adj[v] if member[w]]
    return rows


def _components(g: Graph, nodes: Sequence[int]) -> list[list[int]]:
    """Connected components of the subgraph induced by the ascending,
    already validated ids ``nodes``, each sorted, listed in ascending
    order of their smallest member."""
    unseen = [False] * g.node_count
    for v in nodes:
        unseen[v] = True
    adj = g.adjacency
    components: list[list[int]] = []
    for start in nodes:
        if not unseen[start]:
            continue
        unseen[start] = False
        comp = [start]
        for x in comp:
            for y in adj[x]:
                if unseen[y]:
                    unseen[y] = False
                    comp.append(y)
        comp.sort()
        components.append(comp)
    return components


def is_connected(g: Graph, subset: Iterable[int] | None = None) -> bool:
    """True when the (induced) graph has at most one connected component."""
    nodes = range(g.node_count) if subset is None else _as_subset(g, subset)
    return len(_components(g, nodes)) <= 1


def _palm_tree(
    adj: Sequence[Sequence[int]],
    members: Sequence[int],
    fronds: list[list[int]] | None = None,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """(preorder, parent, depth, low) of one iterative DFS, from its lowest
    vertex, of the graph on the sorted vertices ``members``: the palm tree
    of Tarjan (1972) and Hopcroft and Tarjan (1973).  ``adj[v]`` lists the
    neighbours of each member v in ascending order, members or not: any
    adjacency indexed by node id, as long as the arrays returned.

    The preorder covers one component.  ``depth`` starts at ``len(adj)``
    and is -1 for each member, so a non-member is neither entered nor
    lowers a low point.  Off the tree a member's ``parent`` and ``depth``
    stay -1, as does the root's parent.  ``low[v]`` is the shallowest
    depth reached by an edge leaving v's subtree, the edge to v's parent
    included, or ``depth[v]`` when none goes higher.  Only given
    ``fronds`` does the DFS test for fronds, the edges up to an ancestor
    other than the parent, and append each one's deeper end to
    ``fronds[d]``, d being the depth of its shallower end.
    """
    n = len(adj)
    depth = [n] * n
    parent = [-1] * n
    low = [0] * n
    if not members:
        return [], parent, depth, low
    for v in members:
        depth[v] = -1
    root = members[0]
    order = [root]
    depth[root] = 0
    stack = [(root, iter(adj[root]))]
    while stack:
        x, rest = stack[-1]
        dx = depth[x]
        lx = low[x]  # a local is cheaper per edge than low[x]
        for y in rest:
            dy = depth[y]
            if dy < 0:
                low[x] = lx
                depth[y] = low[y] = dx + 1
                parent[y] = x
                order.append(y)
                stack.append((y, iter(adj[y])))
                break
            if dy < lx:
                lx = dy
            if fronds is not None and dy < dx - 1:
                fronds[dy].append(x)
        else:
            stack.pop()
            low[x] = lx
            p = parent[x]
            if p >= 0 and lx < low[p]:
                low[p] = lx
    return order, parent, depth, low


def _local_blocks(
    adj: Sequence[Sequence[int]], members: Sequence[int]
) -> tuple[list[list[int]] | None, set[int]]:
    """(blocks, cut vertices) of the graph on the sorted vertices
    ``members`` (see :func:`_palm_tree`), the blocks being None when that
    graph is disconnected.  A block is the vertex set of a biconnected
    component; a lone vertex is one.

    One pass over the preorder of :func:`_palm_tree`: a child whose low
    point is its parent's depth opens the block [parent, child] and, past
    the root's first child, names its parent a cut vertex; every other
    vertex joins its parent's block.
    """
    order, parent, depth, low = _palm_tree(adj, members)
    if len(order) < len(members):
        return None, set()
    blocks: list[list[int]] = []
    cut: set[int] = set()
    home = [0] * len(adj)  # the index of the block each vertex joined
    for v in order[1:]:
        p = parent[v]
        if low[v] == depth[p]:
            if blocks:
                cut.add(p)
            home[v] = len(blocks)
            blocks.append([p, v])
        else:
            home[v] = home[p]
            blocks[home[p]].append(v)
    return ([order] if len(order) == 1 else blocks), cut


class _BlockCutTree:
    """The blocks and cut vertices of a connected graph, kept as vertices
    join it, each with all of its neighbours already in place (Westbrook
    and Tarjan, "Maintaining bridge-connected and biconnected components
    on-line", 1992).  It starts from the blocks :func:`_local_blocks`
    lists, each of which opens with its head.

    The tree is rooted at the root of that DFS.  A block's head is its
    member nearest the root, and every other member v names its block in
    ``block[v]``, through a union-find over block ids, so the block above
    a block is its head's.  ``rank`` is the order in which vertices were
    named, so a head ranks below every other member of its block.  A
    vertex x that joins next to S opens the block {s, x} under the first
    s of S.  For each other t of S the walks up from x and from t, always
    stepping from the higher-ranked vertex, meet at the head of the
    blocks between them, and those blocks merge into one: the largest
    member set absorbs the rest.  Merged blocks vanish, so the walks cost
    near-linear time in all.

    A vertex is a cut vertex when it heads a block and is not the root,
    or heads two.  ``heads`` counts the blocks each vertex heads, and
    ``kids[b]`` holds the members of block b, its head aside, that head a
    block.  A leaf is a block with one cut vertex.  Leaves sit in a lazy
    heap keyed on their two smallest members, which orders them as
    ``min(leaves, key=sorted)`` does, since two blocks share at most one
    vertex; an entry is re-checked when it reaches the top.  A block
    keeps its members and gains cut vertices unless it merges, so only a
    new or merged block can turn into a leaf, or, when a vertex joins next
    to one member s, the block of s (block 0 when s is the root), which
    may gain its first cut vertex; those are the blocks pushed.
    """

    __slots__ = (
        "root", "block", "rank", "named", "heads", "up", "head", "members", "kids",
        "low", "heap",
    )

    def __init__(self, blocks: list[list[int]], span: int):
        self.root = blocks[0][0]
        self.block = [-1] * span
        self.rank = [0] * span
        self.named = 1  # the root ranks 0
        self.heads = [0] * span
        self.up: list[int] = []
        self.head: list[int] = []
        self.members: list[set[int]] = []
        self.kids: list[set[int]] = []
        self.low: list[list[int]] = []
        for b in blocks:
            if len(b) > 1:  # a lone vertex is no block here
                self._open(b[0], b[1:])
        for v in {b[0] for b in blocks} - {self.root}:
            self.kids[self.block[v]].add(v)
        self.heap = [(low, b) for b, low in enumerate(self.low)]
        heapq.heapify(self.heap)

    def _open(self, head: int, rest: list[int]) -> int:
        b = len(self.up)
        self.up.append(b)
        self.head.append(head)
        members = {head, *rest}
        self.members.append(members)
        self.kids.append(set())
        self.low.append(sorted(members)[:2])
        self.heads[head] += 1
        for v in rest:
            self.block[v] = b
            self.rank[v] = self.named
            self.named += 1
        return b

    def _find(self, b: int) -> int:
        up = self.up
        while up[b] != b:
            up[b] = b = up[up[b]]
        return b

    def _push(self, b: int) -> None:
        b = self._find(b)
        heapq.heappush(self.heap, (self.low[b], b))

    def add(self, x: int, near: Sequence[int]) -> None:
        """Join x, whose neighbours in the graph are ``near``, at least one."""
        s = near[0]
        if s != self.root and not self.heads[s]:
            self.kids[self._find(self.block[s])].add(s)
        b = self._open(s, [x])
        for t in near[1:]:
            self._merge(x, t)
        self._push(b)
        if len(near) == 1:
            self._push(0 if s == self.root else self.block[s])

    def _merge(self, a: int, b: int) -> None:
        """Merge the blocks on the tree path between the vertices a and b."""
        rank, block, head, find = self.rank, self.block, self.head, self._find
        path = set()
        while a != b:
            if rank[a] < rank[b]:
                a, b = b, a
            c = find(block[a])
            path.add(c)
            a = head[c]
        if len(path) == 1:
            return
        keep = max(path, key=lambda c: len(self.members[c]))
        heads, members, kids = self.heads, self.members[keep], self.kids[keep]
        tops = [head[c] for c in path]
        low = []
        for c in path:
            low += self.low[c]
            if c != keep:
                self.up[c] = keep
                members |= self.members[c]
                kids |= self.kids[c]
        for h in tops:
            heads[h] -= 1
        heads[a] += 1  # a is where the walks met
        kids.difference_update([h for h in tops if h != a and not heads[h]])
        head[keep] = a
        self.low[keep] = sorted(set(low))[:2]

    def first_leaf(self) -> tuple[set[int], int] | None:
        """The leaf with the smallest sorted members and its cut vertex, or
        None when the graph has fewer than two blocks."""
        heap = self.heap
        while heap:
            low, b = heap[0]
            if self.up[b] == b and self.low[b] == low:
                h = self.head[b]
                kids = self.kids[b]
                above = h != self.root or self.heads[h] > 1  # h is a cut vertex
                if len(kids) + above == 1:
                    return self.members[b], h if above else next(iter(kids))
            heapq.heappop(heap)
        return None


def _small_sides(
    adj: Sequence[Sequence[int]], v: int, c: int, work: int
) -> tuple[list[list[int]], int] | None:
    """Every component of the graph minus {v, c} but one, found by the
    interleaved search of Even and Shiloach (1981) that pays for the small
    side only, and the adjacency entries it read; None once it has read
    more than ``work``.  ``adj`` holds the graph's rows, and the graph
    minus v must be connected, so every component meets a neighbour of c
    and there are one more of them than listed.  None is listed when
    {v, c} does not separate.

    One search starts from each neighbour of c.  Each pass, every search
    still running expands one vertex.  A search that reaches a vertex of
    another merges with it, and one with nothing left to expand has
    explored a whole component.  The searching stops once at most one is
    still running, and that one is the large side.  When the last two
    finish in the same pass, the last to finish is the large side.  Each
    finished search has explored one whole component, so the components
    are the finished searches plus the one still running, if any."""
    starts = [w for w in adj[c] if w != v]
    owner = dict.fromkeys((v, c), -1)
    owner.update((w, i) for i, w in enumerate(starts))
    head = list(range(len(starts)))  # union-find over the searches
    todo = [[w] for w in starts]
    seen = [[w] for w in starts]
    running = head[:]
    done: list[int] = []
    read = 0
    while len(running) > 1:
        still = []
        for i in running:
            if head[i] != i:
                continue  # merged into another search
            stack = todo[i]
            row = adj[stack.pop()]
            read += len(row)
            for y in row:
                j = owner.get(y)
                if j is None:
                    owner[y] = i
                    stack.append(y)
                    seen[i].append(y)
                elif j >= 0:
                    while head[j] != j:
                        j = head[j]
                    if j != i:
                        head[j] = i
                        stack += todo[j]
                        seen[i] += seen[j]
            (still if stack else done).append(i)
        if read > work:
            return None
        running = [i for i in still if head[i] == i]
    if not running and done:
        done.pop()
    return [seen[i] for i in done], read


def _bad_points(
    adj: Sequence[Sequence[int]], members: Sequence[int]
) -> tuple[list[int] | None, dict[int, set[int]] | None]:
    """(bad, partners): every bad point of the graph on the sorted vertices
    ``members`` (see :func:`_palm_tree`) in ascending order, empty when the
    graph is 3-connected, and the separation pairs as a partner map, or
    None for both when a graph of four or more vertices is not
    2-connected.  About O((n + E) log n) for n members, plus one pass over
    arrays as long as ``adj``.

    A bad point is a vertex whose removal leaves the rest not strictly
    2-connected.  With fewer than four vertices every vertex is bad.  With
    four or more, in a 2-connected graph the bad points are exactly the
    members of separation pairs: if v is bad, the rest is connected and
    has a cut vertex w, so {v, w} separates; if {v, w} separates, w is a
    cut vertex of the graph minus v.  The DFS shows a graph that is not
    2-connected by a cut vertex or by not reaching every vertex, and stops
    there.

    One palm tree from vertex 0 gives every vertex its depth and low point
    and lists the fronds by target depth; one pass back over the preorder
    finds any cut vertex and gives the subtree sizes, children and two
    smallest child low points.  In a 2-connected graph the two members of
    a separation pair lie on one root path.  Let a be a proper ancestor of
    b at depth k; without them the graph falls into the part above a, the
    middle M between a and b, and the subtrees T(c) of b's children.  With
    hi(c) the deepest frond target from T(c) above b, the pair separates
    exactly when

    - type 1: some T(c) reaches nothing above b but a, that is
      low(c) = hi(c) = k, and T(c) is not all that is left; or
    - type 2: 1 <= k <= depth(b) - 2, so that both other parts exist, no
      frond leaves M above a, and no T(c) reaches both M and above a,
      that is low(c) < k < hi(c) holds for no child c.

    hi is painted by walking the fronds in decreasing target depth, with
    union-find skip pointers so that each vertex is painted once.  For M
    the test needs H(w) >= k for each w on the tree path at depths
    k + 2 .. depth(b), where H(w) is the shallowest frond target from
    parent(w) itself or from the subtrees of its other children.  The k
    that pass form a sorted stack of candidate slots carried down the DFS
    path: entries above H(b) are cut off and depth(b) - 2 pushed, and a
    per-depth log undoes both on backtrack.  The gaps between b's child
    intervals (low, hi) are then probed against the stack by bisection.

    A type-1 hit marks the path vertex at depth low(c) and b; a type-2 hit
    marks b and the path vertex at every candidate depth in the gap, a
    contiguous range of slots.  So that a cycle's nested gaps cost less
    than their total length, each slot keeps a downward skip pointer
    ``down[s]``: every slot above it up to s holds a marked vertex.  A
    range is marked from its top, following the pointers and halving the
    paths walked, and its top slot then points below it; a pushed slot
    points at itself, and the log restores its pointer with its value.

    The pass also records the separation pairs behind its hits: b in
    ``partners[a]`` and a in ``partners[b]`` for each pair {a, b}, so the
    partners of a bad point v are the cut vertices of the graph minus v.
    A type-1 hit is one pair; recording a type-2 hit walks its gap in
    full, one pair per slot.  The pairs are kept ancestor first in a set,
    so a pair hit twice counts once.  A cycle has a quadratic number of
    pairs, so recording stops once the distinct pairs pass a budget of
    2n - 1 plus the fronds, n + E for the E edges among the members.
    Type-2 hits name distinct pairs, so the gaps walked stay within the
    budget plus O(n).  The map is None when nothing was recorded: past
    the budget, with fewer than four vertices, or with no pair at all.
    """
    n = len(members)
    if n < 4:
        return list(members), None
    span = len(adj)  # vertex-indexed arrays
    by_target: list[list[int]] = [[] for _ in range(n)]  # frond sources by target depth
    order, parent, depth, low = _palm_tree(adj, members, by_target)
    if len(order) < n:
        return None, None
    # n, plus the n - 1 tree edges, plus one frond per other edge
    budget = 2 * n - 1 + sum(map(len, by_target))
    pairs: set[tuple[int, int]] | None = set()  # ancestor first; None past the budget
    size = [1] * span
    children: list[list[int]] = [[] for _ in range(span)]
    first_low = [n] * span  # the two smallest child low points of each vertex
    second_low = [n] * span
    for x in reversed(order[2:]):
        p = parent[x]
        lx = low[x]
        if lx == depth[p]:
            return None, None  # p is a cut vertex
        size[p] += size[x]
        children[p].append(x)
        if lx < first_low[p]:
            second_low[p] = first_low[p]
            first_low[p] = lx
        elif lx < second_low[p]:
            second_low[p] = lx

    own = depth[:]  # shallowest frond target from the vertex itself
    hi = [-1] * span
    up = list(range(span))
    for t in range(n - 1, -1, -1):
        for x in by_target[t]:
            own[x] = t
            while up[x] != x:
                up[x] = x = up[up[x]]
            while depth[x] >= t + 2:
                hi[x] = t
                up[x] = x = parent[x]
                while up[x] != x:
                    up[x] = x = up[up[x]]

    bad = [False] * span
    path = [0] * n  # the root path of the current vertex, by depth
    candidates = [0] * n
    down = [0] * n
    length = 0
    log_length = [0] * n
    log_slot = [-1] * n
    log_value = [0] * n
    log_down = [0] * n
    top = -1
    for b in order:
        d = depth[b]
        while top >= d:
            slot = log_slot[top]
            if slot >= 0:
                candidates[slot] = log_value[top]
                down[slot] = log_down[top]
            length = log_length[top]
            top -= 1
        log_length[d] = length
        log_slot[d] = -1
        top = d
        path[d] = b
        if d == 0:
            continue
        p = parent[b]
        if d >= 2 and low[b] == hi[b] and size[b] < n - 2:  # type 1, with c = b
            bad[path[low[b]]] = bad[p] = True
            if pairs is not None:
                pairs.add((path[low[b]], p))
        h = second_low[p] if low[b] == first_low[p] else first_low[p]
        if own[p] < h:
            h = own[p]
        length = bisect_right(candidates, h, 0, length)
        if 1 <= d - 2 <= h:
            slot = length
            log_slot[d], log_value[d], log_down[d] = slot, candidates[slot], down[slot]
            candidates[slot] = d - 2
            down[slot] = slot
            length += 1
        if not length:
            continue
        start = 1  # lowest k not yet known to be covered by a child interval
        kids = children[b]
        spans = [(low[c] + 1, hi[c] - 1) for c in kids]
        if len(kids) > 1:
            spans.sort()
        spans.append((d - 1, d - 1))
        for first, last in spans:
            if first > start:
                i = bisect_left(candidates, start, 0, length)
                j = bisect_left(candidates, first, i, length)
                if i < j:  # type 2: b with every candidate in the gap
                    bad[b] = True
                    if pairs is not None:
                        pairs.update([(path[candidates[s]], b) for s in range(i, j)])
                        if len(pairs) > budget:
                            pairs = None
                    s = j - 1
                    while s >= i:
                        t = down[s]
                        if t == s:
                            bad[path[candidates[s]]] = True
                            down[s] = t = s - 1
                        elif t >= 0:
                            down[s] = down[t]
                        s = t
                    down[j - 1] = s
            if last >= start:
                start = last + 1
    partners: dict[int, set[int]] | None = None
    if pairs and len(pairs) <= budget:
        partners = {}
        for a, b in pairs:
            partners.setdefault(a, set()).add(b)
            partners.setdefault(b, set()).add(a)
    return [v for v in members if bad[v]], partners


def _connectivity_witness(g: Graph, nodes: list[int], m: int) -> tuple | None:
    """Why the subgraph induced by the ascending, already validated ids
    ``nodes`` is not m-connected (m in 1..3, checked by the caller), or
    None when it is: ``("disconnected", comp)`` with the first component
    of a split set at m = 1, ``("too-small", size)`` for a set of at most
    m vertices at m >= 2, and otherwise ``("disconnecting-set", ids)``,
    the lexicographically smallest m - 1 ids whose removal splits it.  The
    one call gives both the verdict of :func:`is_m_connected` and verify's
    witness.

    At m = 2 and 3 the ids are read from palm trees over the graph's own
    adjacency (:func:`_palm_tree`).  The first m - 2 ids are pinned, and
    the last is the lowest vertex whose removal splits ``rest``, the set
    without them, the member list of the last tree.
    A connected ``rest`` has at least three vertices, so it splits exactly
    when a cut vertex goes: past the root's first child, each v of its
    palm tree with ``low[v] == depth[parent[v]]`` names one,
    ``parent[v]``.  A split ``rest`` stays split when its lowest vertex
    goes, unless that vertex is alone beside one other component; then the
    second-lowest vertex splits it.  A ``rest`` that is 2-connected yields
    nothing, and the next candidate for the pinned ids is tried.

    At m = 2 nothing is pinned.  At m = 3 the pinned id is the lowest bad
    point, since both members of a disconnecting pair are bad points and
    in a set of four or more every bad point belongs to one.  On a
    2-connected set it is the first of one pass of :func:`_bad_points`
    (none: the set is 3-connected).  On a set that is not 2-connected it
    is the lowest member, unless the rest is 2-connected; then it is the
    second-lowest.  Only a vertex u with at most one neighbour can leave a
    2-connected rest (two would make the set 2-connected), and only one
    can: every other vertex has two neighbours in the set minus u.

    Before a disconnecting set is returned, one component search of the
    set without it confirms that it splits the set; a set that does not
    is an internal error, raised as AssertionError.
    """
    if not nodes:
        raise GraphInputError("subset must be non-empty")
    if m == 1:
        components = _components(g, nodes)
        return None if len(components) == 1 else ("disconnected", tuple(components[0]))
    if len(nodes) <= m:
        return ("too-small", len(nodes))
    candidates: list[tuple[int, ...]] = [()]
    if m == 3:
        bad, _ = _bad_points(g.adjacency, nodes)
        candidates = [(v,) for v in (nodes[:2] if bad is None else bad[:1])]
    for pinned in candidates:
        rest = [v for v in nodes if v not in pinned]
        order, parent, depth, low = _palm_tree(g.adjacency, rest)
        if len(order) < len(rest):
            components = _components(g, rest)
            last = rest[1] if len(components) == 2 and len(components[0]) == 1 else rest[0]
        else:
            cut = [parent[v] for v in order[2:] if low[v] == depth[parent[v]]]
            if not cut:
                continue
            last = min(cut)
        ids = (*pinned, last)
        if len(_components(g, [v for v in nodes if v not in ids])) < 2:
            raise AssertionError(f"witness {ids} does not disconnect the set")
        return ("disconnecting-set", ids)
    return None


def is_m_connected(g: Graph, subset: Iterable[int], m: int) -> bool:
    """Exact m-connectivity (m in 1..3) of the subgraph induced by ``subset``:
    it stays connected after removal of any m-1 of its vertices.

    m = 1 is plain connectivity (a singleton counts as connected).  For
    m >= 2 a subset of at most m vertices never qualifies: the complete
    graph on n vertices is only (n-1)-connected.  The verdict is that of
    :func:`_connectivity_witness`, read from the graph's own adjacency with
    the subset as the member list.  m = 2 is one palm tree
    (:func:`_palm_tree`): connected with no cut vertex.  m = 3 is one palm
    tree followed by the separation-pair pass of :func:`_bad_points`,
    about O((n + E) log n): 3-connected when it finds no bad point.
    """
    _check_m(m)
    return _connectivity_witness(g, _as_subset(g, subset), m) is None
