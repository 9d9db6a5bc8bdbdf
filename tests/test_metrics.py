"""Metric conventions against brute-force oracles and the worked examples."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from villagenet.metrics import (
    METRICS,
    betweenness_normalized,
    closeness_normalized,
    degree_metrics,
    local_clustering,
    metric_table,
)
from villagenet.networks import LayerNetwork
from villagenet.synth import SyntheticScenario, generate_panel

from conftest import make_panel
from network_oracle import has_edge, undirected_neighbors


def net_from_edges(n, edges, directed=True):
    nodes = tuple(f"n{k:02d}" for k in range(n))
    named = frozenset((nodes[u], nodes[v]) for u, v in edges)
    return LayerNetwork("v", 1, "health", nodes, named, directed=directed)


def random_net(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(n)
             if i != j and rng.random() < p]
    return net_from_edges(n, edges)


# ---------------------------------------------------------------------------
# Oracles: Floyd-Warshall distances plus exact path counting by matrix powers.

def _floyd_warshall(adj: np.ndarray) -> np.ndarray:
    n = adj.shape[0]
    dist = np.where(adj, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return dist


def _path_counts(adj: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """sigma[s, t]: number of shortest s->t paths, exact in object ints."""
    n = adj.shape[0]
    powers = [np.eye(n, dtype=object)]
    a = adj.astype(object)
    finite = dist[np.isfinite(dist)]
    max_d = int(finite.max()) if finite.size else 0
    for _ in range(max_d):
        powers.append(powers[-1] @ a)
    sigma = np.zeros((n, n), dtype=object)
    for s in range(n):
        for t in range(n):
            if s != t and np.isfinite(dist[s, t]):
                sigma[s, t] = powers[int(dist[s, t])][s, t]
    return sigma


def oracle_betweenness(net: LayerNetwork) -> dict[str, float]:
    n = net.n
    index = {v: i for i, v in enumerate(net.nodes)}
    adj = np.zeros((n, n), dtype=bool)
    for u, v in net.edges:
        adj[index[u], index[v]] = True
        if not net.directed:
            adj[index[v], index[u]] = True
    dist = _floyd_warshall(adj)
    sigma = _path_counts(adj, dist)
    scores = np.zeros(n)
    for s in range(n):
        for t in range(n):
            if s == t or not np.isfinite(dist[s, t]):
                continue
            for v in range(n):
                if v in (s, t):
                    continue
                if dist[s, v] + dist[v, t] == dist[s, t]:
                    scores[v] += int(sigma[s, v] * sigma[v, t]) / int(sigma[s, t])
    scores /= (n - 1) * (n - 2)
    return {node: scores[i] for node, i in index.items()}


def oracle_closeness(net: LayerNetwork) -> dict[str, float | None]:
    n = net.n
    index = {v: i for i, v in enumerate(net.nodes)}
    adj = np.zeros((n, n), dtype=bool)
    for u, v in net.edges:
        adj[index[u], index[v]] = True
        adj[index[v], index[u]] = True
    dist = _floyd_warshall(adj)
    out: dict[str, float | None] = {}
    for node, i in index.items():
        finite = np.isfinite(dist[i]) & (np.arange(n) != i)
        r = int(finite.sum())
        if r == 0:
            out[node] = None
        else:
            out[node] = (r / dist[i][finite].sum()) * (r / (n - 1))
    return out


def oracle_clustering(net: LayerNetwork) -> dict[str, float | None]:
    n = net.n
    index = {v: i for i, v in enumerate(net.nodes)}
    u = np.zeros((n, n), dtype=np.int64)
    for a, b in net.edges:
        u[index[a], index[b]] = 1
        u[index[b], index[a]] = 1
    cubed = u @ u @ u
    k = u.sum(axis=1)
    out: dict[str, float | None] = {}
    for node, i in index.items():
        if k[i] < 2:
            out[node] = None
        else:
            out[node] = cubed[i, i] / (k[i] * (k[i] - 1))
    return out


# ---------------------------------------------------------------------------

class TestDegree:
    def test_isolate(self):
        net = net_from_edges(3, [(0, 1)])
        assert degree_metrics(net)["n02"] == (0.0, 0.0, 0.0)

    def test_directed_path_middle(self):
        net = net_from_edges(3, [(0, 1), (1, 2)])
        assert degree_metrics(net)["n01"] == (2.0, 1.0, 1.0)

    def test_mean_in_equals_mean_out(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, 15, 0.2)
        deg = degree_metrics(net)
        ins = [d[1] for d in deg.values()]
        outs = [d[2] for d in deg.values()]
        assert np.mean(ins) == np.mean(outs)
        assert sum(ins) == sum(outs) == net.edge_count

    def test_undirected_reports_degree_only(self):
        net = net_from_edges(3, [(0, 1)], directed=False)
        assert degree_metrics(net)["n00"] == (1.0, None, None)


class TestBetweenness:
    def test_directed_path_center_half(self):
        net = net_from_edges(3, [(0, 1), (1, 2)])
        btw = betweenness_normalized(net)
        assert btw["n01"] == pytest.approx(0.5)
        assert btw["n00"] == btw["n02"] == 0.0

    def test_complete_digraph_all_zero(self):
        edges = [(i, j) for i in range(5) for j in range(5) if i != j]
        assert all(v == 0.0 for v in betweenness_normalized(net_from_edges(5, edges)).values())

    def test_bidirectional_star_center_one(self):
        edges = []
        for spoke in (1, 2, 3):
            edges += [(0, spoke), (spoke, 0)]
        btw = betweenness_normalized(net_from_edges(4, edges))
        assert btw["n00"] == pytest.approx(1.0)

    def test_tiny_network_zero_by_convention(self):
        net = net_from_edges(2, [(0, 1)])
        assert betweenness_normalized(net) == {"n00": 0.0, "n01": 0.0}

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 25))
            net = random_net(rng, n, rng.uniform(0.05, 0.3))
            got = betweenness_normalized(net)
            want = oracle_betweenness(net)
            for node in net.nodes:
                assert got[node] == pytest.approx(want[node], abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_relabeling_equivariance(self, data):
        n = data.draw(st.integers(3, 10))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]),
            max_size=n * 3))
        perm = data.draw(st.permutations(range(n)))
        net = net_from_edges(n, edges)
        relabeled = net_from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        base = betweenness_normalized(net)
        mapped = betweenness_normalized(relabeled)
        for k in range(n):
            assert base[f"n{k:02d}"] == pytest.approx(mapped[f"n{perm[k]:02d}"], abs=1e-12)


class TestCloseness:
    def test_star_center_is_one(self):
        net = net_from_edges(3, [(0, 1), (0, 2)])
        assert closeness_normalized(net)["n00"] == pytest.approx(1.0)

    def test_isolate_undefined(self):
        net = net_from_edges(3, [(0, 1)])
        assert closeness_normalized(net)["n02"] is None

    def test_path_endpoint(self):
        net = net_from_edges(3, [(0, 1), (1, 2)])
        assert closeness_normalized(net)["n00"] == pytest.approx(2 / 3)

    def test_uses_undirected_skeleton(self):
        # Directed chain is fully reachable on the skeleton.
        net = net_from_edges(3, [(1, 0), (1, 2)])
        clo = closeness_normalized(net)
        assert clo["n00"] == pytest.approx(2 / 3)

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 25))
            net = random_net(rng, n, rng.uniform(0.05, 0.3))
            got = closeness_normalized(net)
            want = oracle_closeness(net)
            for node in net.nodes:
                if want[node] is None:
                    assert got[node] is None
                else:
                    assert got[node] == pytest.approx(want[node], abs=1e-9)


class TestClustering:
    def test_triangle_all_one(self):
        net = net_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert all(v == pytest.approx(1.0) for v in local_clustering(net).values())

    def test_star_center_zero(self):
        net = net_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert local_clustering(net)["n00"] == 0.0

    def test_degree_one_undefined(self):
        net = net_from_edges(3, [(0, 1), (1, 2)])
        assert local_clustering(net)["n00"] is None

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(3, 25))
            net = random_net(rng, n, rng.uniform(0.1, 0.4))
            got = local_clustering(net)
            want = oracle_clustering(net)
            for node in net.nodes:
                if want[node] is None:
                    assert got[node] is None
                else:
                    assert got[node] == pytest.approx(want[node], abs=1e-12)

    def test_edge_between_neighbors_never_decreases(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = 8
            edges = {(int(i), int(j)) for i, j in
                     rng.integers(0, n, size=(12, 2)) if i != j}
            net = net_from_edges(n, edges, directed=False)
            adj = undirected_neighbors(net)
            v = net.nodes[int(rng.integers(n))]
            nbrs = adj[v]
            if len(nbrs) < 2:
                continue
            a, b = nbrs[0], nbrs[-1]
            if a == b or has_edge(net, a, b) or has_edge(net, b, a):
                continue
            before = local_clustering(net)[v]
            after_net = LayerNetwork(net.village_id, net.wave, net.layer, net.nodes,
                                     set(net.edges) | {(a, b)}, directed=net.directed)
            after = local_clustering(after_net)[v]
            assert after >= before


class TestMetricTable:
    def test_shape_one_row_per_individual_metric(self, two_village_panel):
        table = metric_table(two_village_panel, "health")
        assert len(table.individuals) == 11
        assert set(table.metrics) == {"degree", "in_degree", "out_degree",
                                      "betweenness", "closeness", "clustering"}
        for key, col in table.values.items():
            assert col.shape == (11,)

    def test_variant_changes_values(self):
        villages = {
            "v1": {"dosage": 0.0, "households": {"h1": ["a", "b"], "h2": ["c"]}},
        }
        edges = {("v1", 1, "health"): [("a", "b"), ("a", "c")],
                 ("v1", 3, "health"): [("a", "b"), ("a", "c")]}
        panel = make_panel(villages, edges)
        base = metric_table(panel, "health")
        filtered = metric_table(panel, "health", ("exclude_intra_household",))
        i = base.individuals.index("a")
        assert base.values[(1, "degree")][i] == 2.0
        assert filtered.values[(1, "degree")][i] == 1.0

    def test_all_isolates_village(self):
        panel = make_panel({"v1": {"dosage": 0.0,
                                   "households": {"h1": ["a"], "h2": ["b"], "h3": ["c"]}}})
        table = metric_table(panel, "health")
        assert np.all(table.values[(1, "degree")] == 0.0)
        assert np.all(np.isnan(table.values[(1, "closeness")]))
        assert np.all(np.isnan(table.values[(1, "clustering")]))

    def test_undirected_layer_drops_in_out(self, two_village_panel):
        table = metric_table(two_village_panel, "aggregated")
        assert "in_degree" not in table.metrics
        assert (1, "in_degree") not in table.values

    def test_unknown_layer_errors(self, two_village_panel):
        with pytest.raises(ValueError, match="unknown layer"):
            metric_table(two_village_panel, "gossip")


# ---------------------------------------------------------------------------
# The dense all-sources kernels against the oracles on arbitrary small graphs.

@st.composite
def small_graphs(draw):
    """Random, complete, empty or two-component graphs, directed or not."""
    n = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 12)))
    directed = draw(st.booleans())
    shape = draw(st.sampled_from(["random", "complete", "empty", "two_components"]))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if shape == "complete":
        edges = pairs
    elif shape == "empty":
        edges = []
    else:
        if shape == "two_components":
            half = n // 2
            pairs = [(u, v) for u, v in pairs if (u < half) == (v < half)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=len(pairs))) if pairs else []
    return net_from_edges(n, edges, directed=directed)


def _assert_matches(got, want, tol=1e-12):
    assert set(got) == set(want)
    for node, value in want.items():
        if value is None:
            assert got[node] is None, node
        else:
            assert got[node] == pytest.approx(value, abs=tol), node


class TestDenseKernelsMatchOracles:
    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_betweenness(self, net):
        want = (oracle_betweenness(net) if net.n >= 3
                else {v: 0.0 for v in net.nodes})
        _assert_matches(betweenness_normalized(net), want)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_closeness(self, net):
        _assert_matches(closeness_normalized(net), oracle_closeness(net))

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_clustering(self, net):
        _assert_matches(local_clustering(net), oracle_clustering(net))

    def test_adjacency_is_read_only_and_ordered(self):
        net = net_from_edges(3, [(2, 0)])
        adj = net.adjacency
        assert adj[2, 0] and adj.sum() == 1
        assert net.adjacency is adj
        with pytest.raises(ValueError):
            adj[0, 1] = True


@pytest.fixture(scope="module")
def synthetic_panel():
    return generate_panel(SyntheticScenario(
        seed=3, arms=((0.0, 2), (0.5, 2)), village_size=(8, 14),
        layers=("health", "friendship", "financial"),
        edge_density={"health": 0.15, "friendship": 0.15, "financial": 0.1},
    ))[0]


@pytest.fixture(scope="module")
def full_tables(synthetic_panel):
    return {layer: metric_table(synthetic_panel, layer) for layer in ("health", "aggregated")}


class TestMetricSubsets:
    @settings(max_examples=40, deadline=None)
    @given(layer=st.sampled_from(["health", "aggregated"]),
           subset=st.sets(st.sampled_from(METRICS)))
    def test_subset_columns_equal_full_table(self, synthetic_panel, full_tables,
                                             layer, subset):
        full = full_tables[layer]
        part = metric_table(synthetic_panel, layer, metrics=tuple(subset))
        assert part.metrics == tuple(m for m in full.metrics if m in subset)
        assert set(part.values) == {(w, m) for w in (1, 3) for m in part.metrics}
        for key, col in part.values.items():
            np.testing.assert_array_equal(col, full.values[key])

    def test_unknown_metric_is_an_error(self, synthetic_panel):
        with pytest.raises(ValueError, match="unknown metric"):
            metric_table(synthetic_panel, "health", metrics=("degree", "pagerank"))
