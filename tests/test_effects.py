"""Group construction, the DiD statistic, and spillover-order classification."""

import numpy as np
import pytest

from villagenet.effects import ContrastSpec, EffectError, enumerate_specs
from villagenet.metrics import metric_table

from conftest import make_panel
from draw_oracle import (
    counterfactual_trend,
    did_statistic,
    kernel_evaluate,
    kernel_groups,
    kernel_spillover_order,
    members,
    observed_assignment,
    rows_of,
)
from network_oracle import bfs_distances, undirected_neighbors


def spillover_village_panel():
    """One control village plus one 20% village with a known wave-1 topology.

    t1t treated; chain t1t - t1a - t1b; isolate t1d; untreated pair t1e - t1f
    disconnected from the treated component.
    """
    villages = {
        "c1": {"dosage": 0.0,
               "households": {"h1": ["c1a"], "h2": ["c1b"], "h3": ["c1c"]}},
        "t1": {"dosage": 0.2,
               "households": {"g1": ["t1t"], "g2": ["t1a"], "g3": ["t1b"],
                              "g4": ["t1d"], "g5": ["t1e"], "g6": ["t1f"]},
               "treated": ["g1"]},
    }
    edges = {
        ("t1", 1, "health"): [("t1t", "t1a"), ("t1a", "t1b"), ("t1e", "t1f")],
        ("c1", 1, "health"): [("c1a", "c1b")],
    }
    return make_panel(villages, edges)


class TestClassifyGroups:
    def _panel(self):
        villages = {
            "c1": {"dosage": 0.0, "households": {"h1": ["c1a"], "h2": ["c1b"]}},
            "lo": {"dosage": 0.2,
                   "households": {"l1": ["loa"], "l2": ["lob"], "l3": ["loc"],
                                  "l4": ["lod"], "l5": ["loe"]},
                   "treated": ["l1"]},
            "hi": {"dosage": 1.0,
                   "households": {"k1": ["hia"], "k2": ["hib"]},
                   "treated": ["k1", "k2"]},
        }
        return make_panel(villages)

    def spec(self, kind, scope="all"):
        return ContrastSpec(kind=kind, dosage_scope=scope, layer="health",
                            metric="degree")

    def test_overall(self):
        focal, comp = kernel_groups(self._panel(), self.spec("overall"))
        assert set(focal) == {"loa", "lob", "loc", "lod", "loe", "hia", "hib"}
        assert set(comp) == {"c1a", "c1b"}

    def test_total_includes_fully_treated(self):
        focal, comp = kernel_groups(self._panel(), self.spec("total"))
        assert set(focal) == {"loa", "hia", "hib"}
        assert set(comp) == {"c1a", "c1b"}

    def test_spillover_excludes_fully_treated_villages(self):
        focal, comp = kernel_groups(self._panel(), self.spec("spillover"))
        assert set(focal) == {"lob", "loc", "lod", "loe"}
        assert set(comp) == {"c1a", "c1b"}

    def test_direct_comparison_within_treated_villages(self):
        focal, comp = kernel_groups(self._panel(), self.spec("direct"))
        assert set(focal) == {"loa", "hia", "hib"}
        assert set(comp) == {"lob", "loc", "lod", "loe"}

    def test_low_scope_excludes_high_villages(self):
        focal, _ = kernel_groups(self._panel(), self.spec("total", scope="low"))
        assert set(focal) == {"loa"}

    def test_empty_group_is_error(self):
        with pytest.raises(EffectError, match="empty focal"):
            kernel_groups(self._panel(), self.spec("spillover", scope="high"))

    def test_single_control_single_low_all_kinds_nonempty(self):
        villages = {
            "c1": {"dosage": 0.0, "households": {"h1": ["a"], "h2": ["b"]}},
            "t1": {"dosage": 0.05,
                   "households": {"g1": ["p"], "g2": ["q"], "g3": ["r"],
                                  "g4": ["s"], "g5": ["t"], "g6": ["u"],
                                  "g7": ["v"], "g8": ["w"], "g9": ["x"],
                                  "g10": ["y"]},
                   "treated": ["g1"]},
        }
        panel = make_panel(villages)
        for kind in ("overall", "total", "spillover", "direct"):
            focal, comp = kernel_groups(panel, self.spec(kind))
            assert focal and comp


class TestSpilloverOrder:
    def test_hand_built_classification(self):
        panel = spillover_village_panel()
        for mode in ("exclusive", "distance_only"):
            labels = kernel_spillover_order(panel, "health", mode=mode)
            assert labels["t1a"] == "first_order"
            assert labels["t1b"] == "higher_order"
            assert labels["t1d"] == "neither"
            assert labels["t1e"] == "neither"
            assert labels["t1f"] == "neither"
            assert "t1t" not in labels  # treated are outside the partition
            assert "c1a" not in labels  # control villages are outside

    def test_kernel_groups_keep_only_reachable_nodes_in_higher_order(self):
        # t1d (isolate) and t1e, t1f (a pair apart from the treated component)
        # have no treated neighbor, but no treated node is reachable from them
        panel = spillover_village_panel()
        controls = ("c1a", "c1b", "c1c")
        for kind, focal in (("spillover_first_order", ("t1a",)),
                            ("spillover_higher_order", ("t1b",)),
                            ("spillover", ("t1a", "t1b", "t1d", "t1e", "t1f"))):
            spec = ContrastSpec(kind=kind, dosage_scope="all", layer="health", metric="degree")
            assert kernel_groups(panel, spec) == (focal, controls), kind

    def test_distance_only_flag_includes_unreachable(self):
        panel = spillover_village_panel()
        labels = kernel_spillover_order(panel, "health", mode="distance_only",
                                        include_unreachable=True)
        assert labels["t1d"] == "higher_order"
        assert labels["t1e"] == "higher_order"
        exclusive = kernel_spillover_order(panel, "health", mode="exclusive",
                                           include_unreachable=True)
        assert exclusive["t1d"] == "neither"  # flag only applies to distance_only

    def test_partition_property(self):
        panel = spillover_village_panel()
        labels = kernel_spillover_order(panel, "health")
        asg = observed_assignment(panel)
        untreated_in_treated = {i for i in members(panel, "t1") if i not in asg.treated}
        assert set(labels) == untreated_in_treated
        first = {i for i, l in labels.items() if l == "first_order"}
        higher = {i for i, l in labels.items() if l == "higher_order"}
        assert first & higher == set()
        assert first | higher <= untreated_in_treated

    def test_matches_bfs_oracle_on_random_villages(self):
        rng = np.random.default_rng(23)
        for trial in range(25):
            n = int(rng.integers(5, 11))
            ids = [f"i{k}" for k in range(n)]
            treated_ids = set(rng.choice(ids, size=max(1, n // 4), replace=False))
            villages = {
                "t": {"dosage": 0.2,
                      "households": {f"h{k}": [ids[k]] for k in range(n)},
                      "treated": [f"h{k}" for k in range(n) if ids[k] in treated_ids]},
                "c": {"dosage": 0.0, "households": {"ch1": ["ca"], "ch2": ["cb"]}},
            }
            edges = [(ids[int(a)], ids[int(b)])
                     for a, b in rng.integers(0, n, size=(n, 2)) if a != b]
            try:
                panel = make_panel(villages, {("t", 1, "health"): edges})
            except Exception:
                continue  # treated count incompatible with a 0.2 arm
            labels = kernel_spillover_order(panel, "health")
            net = panel.network("t", 1, "health")
            dist = bfs_distances(undirected_neighbors(net), sorted(treated_ids))
            for node in net.nodes:
                if node in treated_ids:
                    continue
                d = dist.get(node)
                want = ("first_order" if d == 1
                        else "higher_order" if d is not None and d >= 2
                        else "neither")
                assert labels[node] == want, (trial, node)

    def test_variant_flag_changes_classification(self):
        # intra-household tie is the only path to the treated node
        villages = {
            "c1": {"dosage": 0.0, "households": {"h1": ["ca"], "h2": ["cb"]}},
            "t1": {"dosage": 0.5,
                   "households": {"g1": ["ta", "tb"], "g2": ["tc"]},
                   "treated": ["g1"]},
        }
        panel = make_panel(villages, {("t1", 1, "health"): [("ta", "tc")]})
        base = kernel_spillover_order(panel, "health")
        assert base["tc"] == "first_order"
        filtered = kernel_spillover_order(panel, "health",
                                          variant_flags=("exclude_intra_household",))
        assert filtered["tc"] == "first_order"  # ta-tc crosses households

    def test_missing_layer_errors(self):
        panel = spillover_village_panel()
        with pytest.raises(ValueError):
            kernel_spillover_order(panel, "gossip")


class TestDidStatistic:
    def _table(self, panel):
        return metric_table(panel, "health")

    def test_no_change_gives_zero(self):
        villages = {"c1": {"dosage": 0.0, "households": {"h1": ["a"], "h2": ["b"]}},
                    "t1": {"dosage": 0.5,
                           "households": {"g1": ["p"], "g2": ["q"]}, "treated": ["g1"]}}
        edges = {("c1", 1, "health"): [("a", "b")], ("c1", 3, "health"): [("a", "b")],
                 ("t1", 1, "health"): [("p", "q")], ("t1", 3, "health"): [("p", "q")]}
        panel = make_panel(villages, edges)
        table = self._table(panel)
        raw, pct = did_statistic(table, "degree", ["p", "q"], ["a", "b"], ["a", "b"])
        assert raw == 0.0 and pct == 0.0

    def test_hand_computation(self):
        # focal change +0.1, comparison change -0.5, control w1 mean 2.0
        from villagenet.metrics import MetricTable
        inds = ("f1", "k1")
        table = MetricTable(
            layer="health", variants=(), directed=True,
            individuals=inds, villages=("t1", "c1"),
            values={
                (1, "degree"): np.array([1.0, 2.0]),
                (3, "degree"): np.array([1.1, 1.5]),
            },
        )
        raw, pct = did_statistic(table, "degree", ["f1"], ["k1"], ["k1"])
        assert raw == pytest.approx(0.6, abs=1e-12)
        assert pct == pytest.approx(30.0, abs=1e-9)

    def test_focal_equals_comparison_zero(self, two_village_panel):
        table = self._table(two_village_panel)
        ids = list(members(two_village_panel, "c1"))
        raw, pct = did_statistic(table, "degree", ids, ids, ids)
        assert raw == 0.0 and pct == 0.0

    def test_zero_control_mean_unscalable(self):
        villages = {"c1": {"dosage": 0.0, "households": {"h1": ["a"], "h2": ["b"]}},
                    "t1": {"dosage": 0.5,
                           "households": {"g1": ["p"], "g2": ["q"]}, "treated": ["g1"]}}
        edges = {("t1", 1, "health"): [("p", "q")]}
        panel = make_panel(villages, edges)
        table = self._table(panel)
        with pytest.raises(EffectError, match="unscalable"):
            did_statistic(table, "degree", ["p", "q"], ["a", "b"], ["a", "b"])

    def test_scale_equivariance(self, two_village_panel):
        table = metric_table(two_village_panel, "health")
        focal = [i for i in members(two_village_panel, "t1")]
        comp = [i for i in members(two_village_panel, "c1")]
        raw1, pct1 = did_statistic(table, "degree", focal, comp, comp)
        scaled = {k: v * 3.0 for k, v in table.values.items()}
        table2 = type(table)(table.layer, table.variants, table.directed,
                             table.individuals, table.villages, scaled)
        raw2, pct2 = did_statistic(table2, "degree", focal, comp, comp)
        assert raw2 == pytest.approx(3.0 * raw1, abs=1e-12)
        assert pct2 == pytest.approx(pct1, abs=1e-12)

    def test_fig2_scaling_variant(self, two_village_panel):
        table = metric_table(two_village_panel, "health")
        focal = list(members(two_village_panel, "t1"))
        comp = list(members(two_village_panel, "c1"))
        raw1, pct_w1 = did_statistic(table, "degree", focal, comp, comp)
        raw3, pct_w3 = did_statistic(table, "degree", focal, comp, comp,
                                     scaling="control_w3")
        assert raw1 == raw3
        m1, _ = table.group_mean(1, "degree", rows_of(table, comp))
        m3, _ = table.group_mean(3, "degree", rows_of(table, comp))
        assert pct_w3 == pytest.approx(pct_w1 * m1 / m3)


class TestCounterfactual:
    def test_unchanged_comparison(self, two_village_panel):
        table = metric_table(two_village_panel, "health")
        focal = list(members(two_village_panel, "t1"))
        w1, expected = counterfactual_trend(table, "degree", focal, focal)
        f3, _ = table.group_mean(3, "degree", rows_of(table, focal))
        assert expected == pytest.approx(f3)  # focal == comparison consistency

    def test_additive_shift(self):
        from villagenet.metrics import MetricTable
        table = MetricTable(
            layer="health", variants=(), directed=True,
            individuals=("f", "c"), villages=("t1", "c1"),
            values={(1, "degree"): np.array([3.0, 2.0]),
                    (3, "degree"): np.array([9.9, 1.5])},
        )
        w1, expected = counterfactual_trend(table, "degree", ["f"], ["c"])
        assert w1 == 3.0
        assert expected == pytest.approx(2.5)

    def test_consistency_with_did(self, two_village_panel):
        table = metric_table(two_village_panel, "health")
        focal = list(members(two_village_panel, "t1"))
        comp = list(members(two_village_panel, "c1"))
        _, expected = counterfactual_trend(table, "degree", focal, comp)
        f3, _ = table.group_mean(3, "degree", rows_of(table, focal))
        raw, _ = did_statistic(table, "degree", focal, comp, comp)
        assert raw == pytest.approx(f3 - expected, abs=1e-12)


class TestSuite:
    def test_direct_identity(self, two_village_panel):
        table = metric_table(two_village_panel, "health")
        vals = {}
        for kind in ("total", "spillover", "direct"):
            spec = ContrastSpec(kind=kind, dosage_scope="all", layer="health",
                                metric="degree")
            vals[kind] = kernel_evaluate(two_village_panel, table, spec).raw_did
        assert vals["direct"] == pytest.approx(
            vals["total"] - vals["spillover"], abs=1e-12)

    def test_wave3_equals_wave1_all_zero(self):
        villages = {
            "c1": {"dosage": 0.0, "households": {"h1": ["a"], "h2": ["b"], "h3": ["c"]}},
            "t1": {"dosage": 0.5,
                   "households": {"g1": ["p"], "g2": ["q"], "g3": ["r"], "g4": ["s"]},
                   "treated": ["g1", "g2"]},
        }
        same = [("a", "b"), ("b", "c")]
        same_t = [("p", "q"), ("q", "r"), ("r", "s")]
        edges = {("c1", 1, "health"): same, ("c1", 3, "health"): same,
                 ("t1", 1, "health"): same_t, ("t1", 3, "health"): same_t}
        panel = make_panel(villages, edges)
        table = metric_table(panel, "health")
        for kind in ("overall", "total", "spillover", "direct"):
            spec = ContrastSpec(kind=kind, dosage_scope="all", layer="health",
                                metric="degree")
            est = kernel_evaluate(panel, table, spec)
            assert est.pct_effect == 0.0

    def test_enumerate_specs_deterministic(self):
        specs = enumerate_specs(["health"], ["degree", "in_degree"], ["all", "low"],
                                ["overall", "total"])
        labels = [s.label() for s in specs]
        assert labels == sorted(labels, key=lambda x: labels.index(x))  # stable
        assert len(labels) == 8
        assert len(set(labels)) == 8


class TestSuiteShapes:
    def _synthetic_panel(self):
        from villagenet.synth import SyntheticScenario, generate_panel
        scenario = SyntheticScenario(
            seed=55, arms=((0.0, 2), (0.2, 2)), village_size=(20, 25),
            layers=("health",), edge_density={"health": 0.10},
            p_keep={"UoUo": 0.6}, p_form={"UoUo": 0.02},
        )
        return generate_panel(scenario)[0]

    def test_low_scope_table_block_shape(self):
        from villagenet.effects import effect_suite
        panel = self._synthetic_panel()
        estimates = effect_suite(
            panel, layers=["health"], metrics=["degree", "in_degree", "out_degree"],
            scopes=["low"], kinds=["overall", "total", "spillover", "direct"],
        )
        assert len(estimates) == 12
        assert all(e.p_value is None for e in estimates)

    def test_empty_layer_list(self):
        from villagenet.effects import effect_suite
        panel = self._synthetic_panel()
        assert effect_suite(panel, [], ["degree"], ["all"]) == []

    def test_spillover_order_kinds_with_permutations(self):
        from villagenet.effects import effect_suite
        panel = self._synthetic_panel()
        estimates = effect_suite(
            panel, layers=["health"], metrics=["degree"], scopes=["all"],
            kinds=["spillover_first_order", "spillover_higher_order"],
            permutations=30, master_seed=8,
        )
        assert len(estimates) == 2
        for est in estimates:
            assert est.p_value is not None
            assert 1 / 31 <= est.p_value <= 1.0
