"""Network containers shared across the package.

A village network is a simple graph (no self-loops, no multi-edges) over the
village's included individuals for one survey wave and one relationship layer.
Edges are stored as sorted, unique (src, dst) index arrays into the sorted
``nodes``; derived aggregated networks are undirected and keep each tie once
with src < dst. String edge pairs and the dense adjacency are views built from
those arrays on first use.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable

import numpy as np

Edge = tuple[str, str]


class NetworkError(ValueError):
    """Structural problem in a network or between networks."""


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values in ascending order, by one sort.

    ``np.unique`` gives the same array, but on numpy 2 it takes a hashing path
    for integers that measured 30-50 times slower on 100k packed edge keys.
    """
    keys = np.sort(keys)
    if keys.size > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


class LayerNetwork:
    """A simple graph over one village's panel members for one wave and layer.

    Isolates are legitimate members: ``nodes`` always equals the village's
    included individuals, independent of the edge set. Edges come either as
    string pairs (``edges``), with ``nodes`` in any order, or as index arrays
    into ``nodes`` (``pairs``), which the caller then gives sorted and unique;
    either way they are kept as ``src``/``dst`` arrays sorted by (src, dst).
    Because ``nodes`` is sorted, that is also the order of the sorted string
    pairs. Instances are not modified after construction.
    """

    def __init__(self, village_id: str, wave: int, layer: str, nodes: Iterable[str],
                 edges: Iterable[Edge] = (), directed: bool = True, *,
                 pairs: tuple[np.ndarray, np.ndarray] | None = None):
        self.village_id = village_id
        self.wave = wave
        self.layer = layer
        self.nodes = tuple(nodes)
        self.directed = directed
        self._given = (edges, pairs)
        self.__post_init__()

    def __post_init__(self):
        edges, pairs = self._given
        del self._given
        nodes, n = self.nodes, len(self.nodes)
        if pairs is None:   # string pairs: the nodes may come in any order
            nodes = tuple(sorted(nodes))
            if len(set(nodes)) != n:
                raise NetworkError(f"duplicate nodes in network {self.village_id}/{self.layer}")
            ends = self._index_pairs(nodes, edges)
        else:   # index pairs into the caller's sorted, unique nodes
            ends = np.array(pairs, dtype=np.intp).reshape(2, -1)
            if ends.size and (ends.min() < 0 or ends.max() >= n):
                raise NetworkError(f"edge index out of range in {self.village_id}/{self.layer}")
        src, dst = ends
        loops = src == dst
        if loops.any():
            node = nodes[int(src[np.argmax(loops)])]
            raise NetworkError(f"self-loop at node {node} in {self.village_id}/{self.layer}")
        if not self.directed:
            src, dst = np.minimum(src, dst), np.maximum(src, dst)
        key = src * n + dst
        if self.directed and isinstance(edges, (set, frozenset)):
            src, dst = np.divmod(np.sort(key), n)   # distinct pairs already
        elif pairs is None or (key.size > 1 and not (key[1:] > key[:-1]).all()):
            src, dst = np.divmod(_sorted_unique(key), n)
        src.flags.writeable = False
        dst.flags.writeable = False
        self.nodes, self.src, self.dst = nodes, src, dst

    def _index_pairs(self, nodes: tuple[str, ...], edges: Iterable[Edge]) -> np.ndarray:
        """String pairs as a (2, m) array of indices into ``nodes``."""
        if not isinstance(edges, (frozenset, set, list, tuple)):
            edges = list(edges)
        if not edges:
            return np.empty((2, 0), dtype=np.intp)
        try:
            flat = itemgetter(*chain.from_iterable(edges))(dict(zip(nodes, range(len(nodes)))))
        except KeyError as exc:
            for u, v in edges:   # a self-loop is reported first, even off the node set
                if u == v:
                    raise NetworkError(
                        f"self-loop at node {u} in {self.village_id}/{self.layer}") from None
            raise NetworkError(f"edge endpoint {exc.args[0]} not a member of "
                               f"{self.village_id}/{self.layer}") from None
        return np.fromiter(flat, dtype=np.intp, count=len(flat)).reshape(-1, 2).T

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (f"LayerNetwork({self.village_id!r}, wave {self.wave}, {self.layer!r}, "
                f"{self.n} nodes, {self.edge_count} {kind} edges)")

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.src)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edges as (node, node) string pairs; undirected ones as (min, max)."""
        name = self.nodes.__getitem__
        return frozenset(zip(map(name, self.src.tolist()), map(name, self.dst.tolist())))

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only dense boolean matrix in ``nodes`` order, built on first use.

        Entry (i, j) is True for an edge nodes[i] -> nodes[j]; undirected
        networks are stored symmetric. One byte per node pair.
        """
        mat = np.zeros((self.n, self.n), dtype=bool)
        mat[self.src, self.dst] = True
        if not self.directed:
            mat[self.dst, self.src] = True
        mat.flags.writeable = False
        return mat

    def keep_edges(self, keep: np.ndarray) -> "LayerNetwork":
        """Same village, wave, layer and node set; only the edges where ``keep`` is True."""
        return LayerNetwork(self.village_id, self.wave, self.layer, self.nodes,
                            directed=self.directed, pairs=(self.src[keep], self.dst[keep]))


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
