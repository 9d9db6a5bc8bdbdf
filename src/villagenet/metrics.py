"""Node-level network statistics with the study's normalization conventions.

Betweenness is computed on the directed graph over ordered source/target
pairs and normalized by (n-1)(n-2). Closeness and local clustering use the
undirected skeleton; nodes with no reachable peers (closeness) or fewer than
two neighbors (clustering) are undefined, not zero, and stay out of group
means. Shortest paths are unweighted; path multiplicities are counted in
float64, exact up to 2^53.

All kernels work on the network's dense adjacency matrix and handle every
source at once: a level-synchronous BFS (one matrix product per level) gives
distances and path counts, Brandes' dependency accumulation takes one more
product per level, and clustering counts triangles as ((S @ S) * S) on the
skeleton S. That costs O(n^2) memory and O(n^3 * diameter) time per village
network, sized for villages of up to a few hundred members.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import DIRECTED_ONLY_METRICS, METRICS, WAVES, StudyPanel
from .networks import LayerNetwork

log = logging.getLogger(__name__)


def degree_metrics(network: LayerNetwork) -> dict[str, tuple[float, float | None, float | None]]:
    """Per-node (degree, in_degree, out_degree); in/out are None when undirected.

    Out- and in-degree are the row and column sums of the adjacency, counted
    from the edge index arrays; degree on a directed layer is their sum.
    """
    out_deg = np.bincount(network.src, minlength=network.n).tolist()
    in_deg = np.bincount(network.dst, minlength=network.n).tolist()
    if not network.directed:
        return {v: (float(o + i), None, None) for v, o, i in zip(network.nodes, out_deg, in_deg)}
    return {v: (float(i + o), float(i), float(o))
            for v, o, i in zip(network.nodes, out_deg, in_deg)}


def _bfs_all_sources(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hop distances (-1 if unreachable) and shortest-path counts from every source.

    Row s describes the BFS from node s. Each level is one product of the
    frontier's path counts with the adjacency, so all sources advance together.
    """
    n = adj.shape[0]
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    sigma = np.eye(n)
    frontier = sigma   # level 0: one path from each source to itself
    level = 0
    while True:
        frontier = frontier @ adj
        frontier[dist >= 0] = 0.0
        reached = frontier > 0
        if not reached.any():
            return dist, sigma
        level += 1
        dist[reached] = level
        sigma += frontier


def _skeleton(network: LayerNetwork) -> np.ndarray:
    """0/1 float adjacency of the undirected skeleton."""
    adj = network.adjacency
    return (adj | adj.T).astype(float)


def betweenness_normalized(network: LayerNetwork) -> dict[str, float]:
    """Shortest-path betweenness B(v)/((n-1)(n-2)) over ordered pairs.

    B(v) = sum over ordered pairs s != t != v with at least one s->t path of
    sigma_st(v)/sigma_st, where sigma counts distinct shortest paths. Directed
    edges with unit weights; undirected networks are treated as symmetric
    directed graphs, which keeps the ordered-pair normalization consistent.
    """
    n = network.n
    if n < 3:
        log.warning("betweenness with n=%d (<3) in %s/%s: all values 0 by convention",
                    n, network.village_id, network.layer)
        return {v: 0.0 for v in network.nodes}
    adj = network.adjacency.astype(float)
    dist, sigma = _bfs_all_sources(adj)
    # Brandes accumulation for all sources, deepest level first:
    # delta[s, v] = sigma[s, v] * sum over successors w one level below v of
    # (1 + delta[s, w]) / sigma[s, w].
    delta = np.zeros_like(sigma)
    for level in range(int(dist.max()), 1, -1):
        t = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=dist == level)
        delta += np.where(dist == level - 1, sigma * (t @ adj.T), 0.0)
    score = delta.sum(axis=0) / ((n - 1) * (n - 2))
    return dict(zip(network.nodes, score.tolist()))


def closeness_normalized(network: LayerNetwork) -> dict[str, float | None]:
    """Reachable-set closeness on the undirected skeleton.

    For node v with reachable set R(v): (|R(v)| / sum of distances) scaled by
    |R(v)|/(n-1). Isolated nodes are undefined (None) rather than zero.
    """
    dist, _ = _bfs_all_sources(_skeleton(network))
    reachable = (dist > 0).sum(axis=1)
    total = np.maximum(dist, 0).sum(axis=1)
    n = network.n
    return {v: (int(r) / int(d)) * (int(r) / (n - 1)) if r else None
            for v, r, d in zip(network.nodes, reachable, total)}


def local_clustering(network: LayerNetwork) -> dict[str, float | None]:
    """Undirected local clustering; undefined for nodes with degree < 2."""
    skel = _skeleton(network)
    links = ((skel @ skel) * skel).sum(axis=1) / 2
    k = skel.sum(axis=1)
    return {v: float(t / (d * (d - 1) / 2)) if d >= 2 else None
            for v, t, d in zip(network.nodes, links, k)}


@dataclass
class MetricTable:
    """Metric values for every included individual at both waves.

    Arrays are aligned with ``individuals`` (sorted study-wide); undefined
    values are NaN and are excluded from any group mean computed downstream.
    """

    layer: str
    variants: tuple[str, ...]
    directed: bool
    individuals: tuple[str, ...]
    villages: tuple[str, ...]
    values: dict[tuple[int, str], np.ndarray]
    flags: list[str] = field(default_factory=list)

    @property
    def metrics(self) -> tuple[str, ...]:
        return tuple(m for m in METRICS if (WAVES[0], m) in self.values)

    def column(self, wave: int, metric: str) -> np.ndarray:
        return self.values[(wave, metric)]

    def group_mean(self, wave: int, metric: str, rows: np.ndarray) -> tuple[float, int]:
        """Mean over the rows ``rows`` excluding undefined entries; returns (mean, n_used)."""
        vals = self.values[(wave, metric)][rows]
        defined = vals[~np.isnan(vals)]
        if defined.size == 0:
            return float("nan"), 0
        return float(defined.mean()), int(defined.size)


def metric_table(panel: StudyPanel, layer: str, variant_flags: Sequence[str] = (),
                 metrics: Sequence[str] = METRICS) -> MetricTable:
    """Requested metrics for every individual, both waves, one layer.

    Only requested metrics get a column; in/out-degree never do on undirected
    layers. The default requests all of them.
    """
    unknown = sorted(set(metrics) - set(METRICS))
    if unknown:
        raise ValueError(f"unknown metric {unknown[0]}")
    variants = tuple(sorted(set(variant_flags)))
    index = panel.index
    villages = tuple(index.villages[k] for k in index.village.tolist())
    probe = panel.network(panel.villages[0], 1, layer, variants)
    directed = probe.directed
    wanted = tuple(m for m in METRICS if m in metrics
                   and (directed or m not in DIRECTED_ONLY_METRICS))
    kernels = tuple((m, fn) for m, fn in (("betweenness", betweenness_normalized),
                                          ("closeness", closeness_normalized),
                                          ("clustering", local_clustering)) if m in wanted)
    degree_columns = tuple((k, m) for k, m in enumerate(("degree", "in_degree", "out_degree"))
                           if m in wanted)

    values = {(w, m): np.full(len(index.individuals), np.nan) for w in WAVES for m in wanted}
    flags: list[str] = []
    for village, rows in zip(index.villages, index.members):
        for wave in WAVES:
            net = panel.network(village, wave, layer, variants)
            if degree_columns:
                deg = degree_metrics(net)
                for k, m in degree_columns:
                    values[(wave, m)][rows] = [deg[v][k] for v in net.nodes]
            for m, kernel in kernels:
                got = kernel(net)
                values[(wave, m)][rows] = [np.nan if got[v] is None else got[v]
                                           for v in net.nodes]
            if net.n < 3 and "betweenness" in wanted:
                flags.append(f"{village}/wave{wave}: n={net.n} < 3, betweenness 0 by convention")
    return MetricTable(layer, variants, directed, index.individuals, villages, values, flags)
