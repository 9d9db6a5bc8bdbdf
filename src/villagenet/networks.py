"""Network containers and small graph utilities shared across the package.

A village network is a simple graph (no self-loops, no multi-edges) over the
village's included individuals for one survey wave and one relationship layer.
Directed layers keep ordered edges; derived aggregated networks are undirected
and store each tie once under a canonical node order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

Edge = tuple[str, str]


class NetworkError(ValueError):
    """Structural problem in a network or between networks."""


def canonical_edges(edges: Iterable[Edge], directed: bool) -> frozenset[Edge]:
    """Normalize an edge iterable: undirected edges stored as (min, max)."""
    if directed:
        return frozenset((str(u), str(v)) for u, v in edges)
    return frozenset(
        (u, v) if u <= v else (v, u) for u, v in ((str(a), str(b)) for a, b in edges)
    )


@dataclass(frozen=True)
class LayerNetwork:
    """A simple graph over one village's panel members for one wave and layer.

    Isolates are legitimate members: ``nodes`` always equals the village's
    included individuals, independent of the edge set.
    """

    village_id: str
    wave: int
    layer: str
    nodes: tuple[str, ...]
    edges: frozenset[Edge]
    directed: bool = True

    def __post_init__(self):
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise NetworkError(f"duplicate nodes in network {self.village_id}/{self.layer}")
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(self, "edges", canonical_edges(self.edges, self.directed))
        for u, v in self.edges:
            if u == v:
                raise NetworkError(f"self-loop at node {u} in {self.village_id}/{self.layer}")
            if u not in node_set or v not in node_set:
                missing = u if u not in node_set else v
                raise NetworkError(
                    f"edge endpoint {missing} not a member of {self.village_id}/{self.layer}"
                )

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only dense boolean matrix in ``nodes`` order, built on first use.

        Entry (i, j) is True for an edge nodes[i] -> nodes[j]; undirected
        networks are stored symmetric. One byte per node pair.
        """
        index = {v: i for i, v in enumerate(self.nodes)}
        mat = np.zeros((self.n, self.n), dtype=bool)
        if self.edges:
            rows, cols = zip(*((index[u], index[v]) for u, v in self.edges))
            mat[rows, cols] = True
            if not self.directed:
                mat[cols, rows] = True
        mat.flags.writeable = False
        return mat

    @cached_property
    def out_neighbors(self) -> dict[str, tuple[str, ...]]:
        """Successors on directed networks; all neighbors on undirected ones."""
        adj: dict[str, list[str]] = {v: [] for v in self.nodes}
        for u, v in self.edges:
            adj[u].append(v)
            if not self.directed:
                adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @cached_property
    def in_neighbors(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {v: [] for v in self.nodes}
        for u, v in self.edges:
            adj[v].append(u)
            if not self.directed:
                adj[u].append(v)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @cached_property
    def undirected_neighbors(self) -> dict[str, tuple[str, ...]]:
        """Neighbors on the undirected skeleton (either-direction adjacency)."""
        adj: dict[str, set[str]] = {v: set() for v in self.nodes}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def has_edge(self, u: str, v: str) -> bool:
        if self.directed:
            return (u, v) in self.edges
        return ((u, v) if u <= v else (v, u)) in self.edges

    def replace_edges(self, edges: Iterable[Edge], layer: str | None = None,
                      directed: bool | None = None) -> "LayerNetwork":
        """Same village/wave/node set, different edges (derived networks)."""
        return LayerNetwork(
            village_id=self.village_id,
            wave=self.wave,
            layer=self.layer if layer is None else layer,
            nodes=self.nodes,
            edges=frozenset(edges),
            directed=self.directed if directed is None else directed,
        )


def require_same_support(*networks: LayerNetwork) -> None:
    """All inputs must share village, wave, and node set."""
    first = networks[0]
    for other in networks[1:]:
        if other.village_id != first.village_id or other.wave != first.wave:
            raise NetworkError(
                f"cannot combine networks from ({first.village_id}, wave {first.wave}) "
                f"and ({other.village_id}, wave {other.wave})"
            )
        if other.nodes != first.nodes:
            raise NetworkError(
                f"node-set mismatch between layers {first.layer} and {other.layer} "
                f"in village {first.village_id}"
            )


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
