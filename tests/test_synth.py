"""Generator reproducibility and oracle consistency."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from villagenet.core import treated_household_count
from villagenet.effects import ContrastSpec
from villagenet.metrics import metric_table
from villagenet.randomization import derive_stream
from villagenet.synth import (
    ScenarioError,
    SyntheticScenario,
    compute_oracle,
    generate_panel,
    generate_wave1_state,
    ks_uniform,
    panel_from_state,
    replicate_study,
    sample_wave3,
)

from draw_oracle import kernel_evaluate


def small_scenario(**overrides):
    base = dict(
        seed=101, arms=((0.0, 3), (0.3, 3)), village_size=(18, 24),
        layers=("health",), edge_density={"health": 0.08},
        p_keep={"UoUo": 0.65}, p_form={"UoUo": 0.02},
    )
    base.update(overrides)
    return SyntheticScenario(**base)


class TestScenario:
    def test_round_trip_dict(self):
        sc = small_scenario(p_keep={"UoUo": 0.6, "TU": 0.4, "T1U1": 0.3})
        assert SyntheticScenario.from_dict(json.loads(json.dumps(asdict(sc)))) == sc

    def test_validation(self):
        with pytest.raises(ScenarioError):
            small_scenario(arms=((0.11, 2),))
        with pytest.raises(ScenarioError):
            small_scenario(p_keep={"TU": 0.5})
        with pytest.raises(ScenarioError):
            small_scenario(p_form={"UoUo": 1.4})

    def test_probability_resolution_order(self):
        sc = small_scenario(p_keep={"UoUo": 0.6, "TU": 0.4, "ToU1": 0.2})
        assert sc.resolve_probability(sc.p_keep, "ToU1") == 0.2   # fine first
        assert sc.resolve_probability(sc.p_keep, "ToUh") == 0.4   # coarse fallback
        assert sc.resolve_probability(sc.p_keep, "UhUh") == 0.6   # baseline fallback


class TestGeneration:
    def test_reproducible(self):
        p1, o1 = generate_panel(small_scenario())
        p2, o2 = generate_panel(small_scenario())
        assert sorted(p1.individuals) == sorted(p2.individuals)
        for key in p1.networks:
            assert p1.networks[key].edges == p2.networks[key].edges
        assert o1.expected_pct == o2.expected_pct

    def test_design_respected(self):
        panel, _ = generate_panel(small_scenario())
        for village in panel.villages:
            alpha = panel.design.village_dosages[village]
            households = panel.design.assignments[village]
            assert sum(households.values()) == treated_household_count(
                alpha, len(households))

    def test_frozen_dynamics_keep_wave1(self):
        sc = small_scenario(p_keep={"UoUo": 1.0}, p_form={"UoUo": 0.0})
        panel, _ = generate_panel(sc)
        for village in panel.villages:
            w1 = panel.network(village, 1, "health").edges
            w3 = panel.network(village, 3, "health").edges
            assert w1 == w3
        table = metric_table(panel, "health")
        for kind in ("overall", "total", "spillover", "direct"):
            spec = ContrastSpec(kind=kind, dosage_scope="all", layer="health",
                                metric="degree")
            assert kernel_evaluate(panel, table, spec).pct_effect == 0.0

    def test_null_scenario_oracle_centered_at_zero(self):
        # Conditional on a realized wave 1 the oracle regresses toward the
        # edge-model mean, so exchangeability shows up as a zero mean across
        # replicates rather than as zero in each one.
        oracles = []
        for rep in range(40):
            _, oracle = generate_panel(small_scenario(seed=500 + rep))
            oracles.append(oracle.expected_pct["total/all/health/degree/none"])
        oracles = np.asarray(oracles)
        se = oracles.std(ddof=1) / np.sqrt(oracles.size)
        assert abs(oracles.mean()) < 3.5 * se

    def test_frozen_dynamics_oracle_exactly_zero(self):
        # With p_keep 1 and p_form 0 the conditional expectation is exact.
        sc = small_scenario(p_keep={"UoUo": 1.0}, p_form={"UoUo": 0.0})
        _, oracle = generate_panel(sc)
        for label, pct in oracle.expected_pct.items():
            assert pct == pytest.approx(0.0, abs=1e-9), label

    def test_planted_logodds(self):
        sc = small_scenario(p_keep={"UoUo": 0.6444, "TU": 0.5},
                            p_form={"UoUo": 0.01, "TT": 0.03})
        _, oracle = generate_panel(sc)
        assert oracle.dissolution_logodds["(Intercept)"] == pytest.approx(
            np.log(0.3556 / 0.6444), abs=1e-12)
        assert oracle.dissolution_logodds["TU"] == pytest.approx(
            np.log(0.5 / 0.5) - np.log(0.3556 / 0.6444), abs=1e-12)
        assert oracle.formation_logodds["TT"] == pytest.approx(
            np.log(0.03 / 0.97) - np.log(0.01 / 0.99), abs=1e-12)

    def test_layer_overlap_copies_health_ties(self):
        sc = SyntheticScenario(
            seed=3, arms=((0.0, 2), (0.3, 2)), village_size=(25, 25),
            layers=("health", "friendship"),
            edge_density={"health": 0.2, "friendship": 0.0},
            layer_overlap=1.0,
            p_keep={"UoUo": 0.5}, p_form={"UoUo": 0.01},
        )
        panel, _ = generate_panel(sc)
        for village in panel.villages:
            h = panel.network(village, 1, "health").edges
            f = panel.network(village, 1, "friendship").edges
            assert f == h

    def test_dyad_transitions_independent(self):
        # joint keep frequency of two disjoint wave-1 dyads factorizes
        sc = small_scenario(village_size=(12, 12), edge_density={"health": 0.5},
                            p_keep={"UoUo": 0.6}, p_form={"UoUo": 0.0},
                            arms=((0.0, 1),))
        state = generate_wave1_state(sc)
        village = state.villages[0]
        a1 = state.adjacency_w1[(village, "health")]
        pairs = np.argwhere(a1)
        (i1, j1), (i2, j2) = pairs[0], pairs[1]
        keep1 = keep2 = both = 0
        n = 4000
        for rep in range(n):
            w3 = sample_wave3(state, derive_stream(77, rep))[(village, "health")]
            k1, k2 = w3[i1, j1], w3[i2, j2]
            keep1 += k1
            keep2 += k2
            both += k1 & k2
        p1, p2, p12 = keep1 / n, keep2 / n, both / n
        assert p12 == pytest.approx(p1 * p2, abs=4 * np.sqrt(0.36 * 0.64 / n))


class TestOracleConsistency:
    def test_mean_redraw_matches_expectation(self):
        sc = SyntheticScenario(
            seed=19, arms=((0.0, 2), (0.3, 2)), village_size=(20, 20),
            layers=("health",), edge_density={"health": 0.10},
            p_keep={"UoUo": 0.7, "TU": 0.45, "UT": 0.45},
            p_form={"UoUo": 0.02, "TT": 0.08},
        )
        state = generate_wave1_state(sc)
        oracle = compute_oracle(state, panel_from_state(state, {}))
        spec = ContrastSpec(kind="total", dosage_scope="all", layer="health",
                            metric="degree")
        draws = []
        for rep in range(500):
            panel = panel_from_state(state, sample_wave3(state, derive_stream(5, rep)))
            table = metric_table(panel, "health")
            draws.append(kernel_evaluate(panel, table, spec).pct_effect)
        draws = np.asarray(draws)
        mc_se = draws.std(ddof=1) / np.sqrt(draws.size)
        want = oracle.expected_pct[spec.label()]
        assert abs(draws.mean() - want) < 3 * mc_se

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_oracle_reads_no_wave3(self, seed):
        sc = small_scenario(seed=seed, arms=((0.0, 2), (0.2, 2), (0.75, 2)),
                            layers=("health", "friendship"),
                            edge_density={"health": 0.08, "friendship": 0.1},
                            p_keep={"UoUo": 0.65, "TU": 0.45}, p_form={"UoUo": 0.02, "TT": 0.05})
        scopes = ("all", "low", "high")
        _, oracle = generate_panel(sc, scopes=scopes)
        state = generate_wave1_state(sc)
        without_wave3 = compute_oracle(state, panel_from_state(state, {}), scopes=scopes)
        assert oracle.expected_pct
        assert oracle.to_dict() == without_wave3.to_dict()


class TestReplicate:
    def test_single_replicate_report(self):
        report = replicate_study(small_scenario(), 1)
        assert len(report.rows) == 1
        label = report.rows[0].spec_label
        assert report.summary[label]["replicates"] == 1.0

    def test_bias_small_under_null(self):
        report = replicate_study(small_scenario(), 20)
        for entry in report.summary.values():
            assert abs(entry["bias"]) < 10.0  # percentage points, noisy but centered

    def test_ks_uniform_basics(self):
        assert ks_uniform([0.5]) == 0.5
        rng = np.random.default_rng(1)
        assert ks_uniform(rng.random(2000)) < 0.05


class TestPlantedSpillover:
    def test_planted_ut_dissolution_gives_negative_spillover(self):
        # Untreated-to-treated links dissolve much more often than baseline,
        # so untreated individuals in treated villages lose degree.
        negatives = 0
        n_reps = 40
        for rep in range(n_reps):
            sc = SyntheticScenario(
                seed=81000 + rep, arms=((0.0, 8), (0.3, 8)), village_size=(60, 70),
                layers=("health",), edge_density={"health": 0.12},
                p_keep={"UoUo": 0.65, "UT": 0.4, "TU": 0.4},
                p_form={"UoUo": 0.01},
            )
            panel, _ = generate_panel(sc)
            table = metric_table(panel, "health")
            spec = ContrastSpec(kind="spillover", dosage_scope="all",
                                layer="health", metric="degree")
            negatives += kernel_evaluate(panel, table, spec).pct_effect < 0
        assert negatives / n_reps >= 0.95


class TestReplicateWithPermutations:
    def test_pvalue_summary_present(self):
        report = replicate_study(small_scenario(), 6, permutations=49)
        for entry in report.summary.values():
            assert "p_ks_uniform" in entry
        for row in report.rows:
            assert row.p_value is not None
            assert row.p_value >= 1 / 50
