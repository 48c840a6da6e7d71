"""Output checker that shares no code with Plutus.

It rebuilds each unit-disk graph from the points in the instance file,
counts k-domination itself, tests m-connectivity of the backbone with
networkx, and replays every witness and stretch pair Plutus reports.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

import networkx as nx


def adjacency_from_file(path: Path) -> list[set[int]]:
    """Closed-disk unit-disk adjacency, bucketed on a grid of cell size r.
    Distances use the same float expression as the definition, so ties at
    exactly r agree."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    pts = [(float(x), float(y)) for x, y in payload["points"]]
    r = float(payload["radius"])
    r2 = r * r
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(pts):
        cells.setdefault((int(x // r), int(y // r)), []).append(i)
    adj: list[set[int]] = [set() for _ in pts]
    for (cx, cy), members in cells.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in cells.get((cx + dx, cy + dy), ()):
                    for i in members:
                        if i < j:
                            ex = pts[i][0] - pts[j][0]
                            ey = pts[i][1] - pts[j][1]
                            if ex * ex + ey * ey <= r2:
                                adj[i].add(j)
                                adj[j].add(i)
    return adj


def deficient_node(adj: list[set[int]], d: set[int], k: int) -> int | None:
    for v, row in enumerate(adj):
        if v not in d and len(row & d) < k:
            return v
    return None


def _induced(adj: list[set[int]], d: set[int]) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(d)
    h.add_edges_from((u, w) for u in d for w in adj[u] & d if u < w)
    return h


def m_connected(adj: list[set[int]], d: set[int], m: int) -> bool:
    h = _induced(adj, d)
    if m == 1:
        return nx.is_connected(h)
    if len(d) <= m:
        return False
    if m == 2:
        return nx.is_biconnected(h)
    # networkx's routes take seconds per backbone here, so m = 3 uses the
    # textbook reduction: 3-connected iff D - v is 2-connected for every v.
    nbrs = {v: sorted(adj[v] & d) for v in d}
    return all(_biconnected_without(nbrs, v) for v in d)


def _biconnected_without(adj: dict[int, list[int]], skip: int) -> bool:
    """True when the graph minus ``skip`` is connected and has no cut
    vertex (iterative lowpoint DFS)."""
    root = min(v for v in adj if v != skip)
    disc = {root: 0}
    low = {root: 0}
    stack = [(root, None, iter(adj[root]))]
    root_children = 0
    while stack:
        v, parent, todo = stack[-1]
        for w in todo:
            if w == skip or w == parent:
                continue
            if w in disc:
                low[v] = min(low[v], disc[w])
            else:
                disc[w] = low[w] = len(disc)
                stack.append((w, v, iter(adj[w])))
                break
        else:
            stack.pop()
            if parent is None:
                continue
            low[parent] = min(low[parent], low[v])
            if parent == root:
                root_children += 1
            elif low[v] >= disc[parent]:
                return False
    return root_children <= 1 and len(disc) == len(adj) - 1


def is_backbone(adj: list[set[int]], d: set[int], k: int, m: int) -> bool:
    return deficient_node(adj, d, k) is None and m_connected(adj, d, m)


def _reach(adj: list[set[int]], allowed: set[int], start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x] & allowed:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def _hops(adj: list[set[int]], u: int, v: int, internal: set[int] | None) -> int:
    """Hop distance from u to v, with internal vertices restricted to
    ``internal`` when given."""
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x != u and internal is not None and x not in internal:
            continue
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                if y == v:
                    return dist[y]
                queue.append(y)
    raise ValueError(f"{v} unreachable from {u}")


def witness_replays(adj: list[set[int]], d: set[int], k: int, witness) -> bool:
    """True when the reported witness really shows the violation."""
    tag = witness[0]
    if tag in ("deficient", "undominated"):
        v = witness[1]
        count = witness[2] if tag == "deficient" else 0
        return v not in d and len(adj[v] & d) == count < k
    if tag == "disconnecting-set":
        removed = set(witness[1])
        rest = d - removed
        return removed <= d and bool(rest) and _reach(adj, rest, min(rest)) != rest
    if tag == "disconnected":
        comp = set(witness[1])
        return comp < d and _reach(adj, d, min(comp)) == comp
    if tag == "too-small":
        return witness[1] == len(d)
    return False


def check_report(adj, d: set[int], k: int, m: int, report: dict) -> str | None:
    """Check a ``plutus verify`` report against the independent verdict.
    Returns a description of the first disagreement, or None."""
    truth_k = deficient_node(adj, d, k) is None
    truth_m = m_connected(adj, d, m)
    checks = {c["name"]: c for c in report["checks"]}
    for name, truth in (("k-dominating", truth_k), ("m-connected", truth_m)):
        check = checks.get(name)
        if check is None or check["pass"] != truth:
            return f"{name}: reported {check and check['pass']}, checker says {truth}"
        if not truth and not witness_replays(adj, d, k, check["witness"]):
            return f"{name}: witness {check['witness']} does not replay"
    if report["overall"] != (truth_k and truth_m):
        return "overall verdict disagrees"
    if report["overall"]:
        stretch = report.get("stretch")
        if stretch is None or stretch["max"] < 1.0:
            return f"bad stretch {stretch}"
        if stretch["pair"] is not None:
            u, v = stretch["pair"]
            ratio = _hops(adj, u, v, d) / _hops(adj, u, v, None)
            if abs(ratio - stretch["max"]) > 1e-9:
                return f"stretch pair {u},{v} replays as {ratio}, reported {stretch['max']}"
    return None
