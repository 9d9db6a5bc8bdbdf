"""String-id neighbour lookups and BFS over a network's ``edges`` pairs.

The plainest reading of a `LayerNetwork`: neighbour dicts and edge tests from
its (node, node) string pairs, and a breadth-first search over such a dict.
`villagenet` itself works on the index arrays and the dense adjacency; the
tests use these to check it.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

from villagenet.networks import LayerNetwork


def out_neighbors(net: LayerNetwork) -> dict[str, tuple[str, ...]]:
    """Successors on directed networks; all neighbors on undirected ones."""
    adj: dict[str, list[str]] = {v: [] for v in net.nodes}
    for u, v in net.edges:
        adj[u].append(v)
        if not net.directed:
            adj[v].append(u)
    return {v: tuple(sorted(ns)) for v, ns in adj.items()}


def in_neighbors(net: LayerNetwork) -> dict[str, tuple[str, ...]]:
    adj: dict[str, list[str]] = {v: [] for v in net.nodes}
    for u, v in net.edges:
        adj[v].append(u)
        if not net.directed:
            adj[u].append(v)
    return {v: tuple(sorted(ns)) for v, ns in adj.items()}


def undirected_neighbors(net: LayerNetwork) -> dict[str, tuple[str, ...]]:
    """Neighbors on the undirected skeleton (either-direction adjacency)."""
    adj: dict[str, set[str]] = {v: set() for v in net.nodes}
    for u, v in net.edges:
        adj[u].add(v)
        adj[v].add(u)
    return {v: tuple(sorted(ns)) for v, ns in adj.items()}


def has_edge(net: LayerNetwork, u: str, v: str) -> bool:
    if net.directed:
        return (u, v) in net.edges
    return ((u, v) if u <= v else (v, u)) in net.edges


def bfs_distances(adjacency: Mapping[str, tuple[str, ...]],
                  sources: Iterable[str]) -> dict[str, int]:
    """Multi-source BFS hop distances; unreachable nodes are absent."""
    dist: dict[str, int] = {}
    queue: deque[str] = deque()
    for s in sources:
        if s not in dist:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist
