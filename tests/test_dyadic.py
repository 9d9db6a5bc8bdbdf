"""Dyad categories, the closed-form logistic fit, and the node-level correspondence."""

import dataclasses
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from villagenet import io as vio
from villagenet.core import ALLOWED_DOSAGES, BASE_LAYERS, treated_household_count
from villagenet.dyadic import (
    COARSE_CATEGORIES,
    DYAD_COLUMNS,
    OUTCOMES,
    REFINEMENT_LABELS,
    SCHEMES,
    DyadDataset,
    DyadicError,
    dyad_blocks,
    dyad_dataset,
    estimand_correspondence,
    fit_categorical_logistic,
    fit_logistic_irls,
    logistic_hessian,
    logistic_score,
    odds_ratio_summary,
    refinement_codes,
)
from villagenet.synth import SyntheticScenario, generate_panel

from conftest import make_panel
from draw_oracle import members, observed_assignment
from dyad_oracle import (
    categorize_dyad,
    csv_lines,
    enumerate_dyads,
    logistic_nll,
    node_refinement,
    outcome_rows,
    state_counts,
)
from network_oracle import has_edge


def category_panel():
    """Control village plus a 20% village with a known wave-1 topology."""
    villages = {
        "c1": {"dosage": 0.0, "households": {"h1": ["ca"], "h2": ["cb"], "h3": ["cc"]}},
        "t1": {"dosage": 0.2,
               "households": {"g1": ["tt"], "g2": ["tu"], "g3": ["tv"],
                              "g4": ["tw"], "g5": ["tx"]},
               "treated": ["g1"]},
    }
    edges = {
        ("c1", 1, "health"): [("ca", "cb")],
        ("c1", 3, "health"): [("ca", "cb"), ("cb", "cc")],
        # tt treated; tu adjacent to tt; tv adjacent to tu only; tw, tx isolates
        ("t1", 1, "health"): [("tt", "tu"), ("tu", "tv")],
        ("t1", 3, "health"): [("tt", "tu")],
    }
    return make_panel(villages, edges)


# The link states (2*link_w1 + link_w3) of the wave-1 linked, unlinked and all pairs.
SAMPLE_STATES = {"existing_w1": (2, 3), "nonexisting_w1": (0, 1), "all": (0, 1, 2, 3)}
SAMPLES = tuple(SAMPLE_STATES)


def sample_of(data, sample):
    """The dataset with only one sample's link-state columns counted."""
    counts = np.zeros_like(data.counts)
    states = list(SAMPLE_STATES[sample])
    counts[:, states] = data.counts[:, states]
    return DyadDataset(data.layer, counts)


def written_dyads(panel, layer):
    """The lines of ``dyads.csv`` written from ``dyad_blocks`` as the CLI writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dyads.csv"
        vio.write_lines(path, "dyads", DYAD_COLUMNS, dyad_blocks(panel, layer))
        return path.read_text().splitlines()


def counted_states(data, scheme):
    """A dataset's nonzero counts keyed like ``dyad_oracle.state_counts``."""
    names, counts = data.tallies(scheme)
    return {(names[c], s): int(counts[c, s]) for c, s in zip(*np.nonzero(counts))}


class TestEnumerate:
    def test_ordered_pair_count(self):
        panel = category_panel()
        dyads = enumerate_dyads(panel, "health", sample="all")
        # 3*2 + 5*4 ordered pairs
        assert len(dyads) == 6 + 20
        assert len(dyad_dataset(panel, "health")) == 6 + 20

    def test_54_node_village_count(self):
        households = {f"h{k}": [f"i{k:03d}"] for k in range(54)}
        panel = make_panel({"v": {"dosage": 0.0, "households": households}})
        assert len(enumerate_dyads(panel, "health", sample="all")) == 2862
        assert len(dyad_dataset(panel, "health")) == 2862

    def test_existing_sample_is_wave1_edge_set(self):
        panel = category_panel()
        dyads = enumerate_dyads(panel, "health", sample="existing_w1")
        pairs = {(d.ego, d.alter) for d in dyads}
        assert pairs == {("ca", "cb"), ("tt", "tu"), ("tu", "tv")}
        assert all(d.link_w1 for d in dyads)
        data = sample_of(dyad_dataset(panel, "health"), "existing_w1")
        assert len(data) == 3
        assert data.counts[:, :2].sum() == 0   # no wave-1 non-link counted

    def test_only_the_all_sample_is_built(self):
        with pytest.raises(DyadicError, match="unknown dyad sample existing_w1"):
            dyad_dataset(category_panel(), "health", sample="existing_w1")

    def test_samples_partition_all(self):
        panel = category_panel()
        existing = enumerate_dyads(panel, "health", sample="existing_w1")
        missing = enumerate_dyads(panel, "health", sample="nonexisting_w1")
        assert len(existing) + len(missing) == 26
        counted = [sample_of(dyad_dataset(panel, "health"), s) for s in SAMPLES]
        assert len(counted[0]) + len(counted[1]) == len(counted[2]) == 26
        assert np.array_equal(counted[0].counts + counted[1].counts, counted[2].counts)

    def test_cross_village_pairs_never_enumerated(self):
        panel = category_panel()
        for d in enumerate_dyads(panel, "health", sample="all"):
            ego_v = panel.individuals[d.ego].village_id
            alter_v = panel.individuals[d.alter].village_id
            assert ego_v == alter_v == d.village_id
        for line in written_dyads(panel, "health")[2:]:
            village, ego, alter, *_ = line.split(",")
            ego_v = panel.individuals[ego].village_id
            alter_v = panel.individuals[alter].village_id
            assert ego_v == alter_v == village


class TestCategorize:
    def test_control_village_always_uouo(self):
        panel = category_panel()
        refinement = node_refinement(panel, "health")
        assert categorize_dyad("ca", "cb", panel, refinement) == ("UoUo", "UoUo")

    def test_treated_village_coarse_and_fine(self):
        panel = category_panel()
        ref = node_refinement(panel, "health")
        # tt treated with no treated neighbor -> To; tu untreated with treated
        # neighbor -> U1; tv untreated, only untreated neighbors -> Uh
        assert ref["tt"] == "To" and ref["tu"] == "U1" and ref["tv"] == "Uh"
        assert categorize_dyad("tt", "tu", panel, ref) == ("TU", "ToU1")
        assert categorize_dyad("tu", "tt", panel, ref) == ("UT", "U1To")
        assert categorize_dyad("tv", "tw", panel, ref) == ("UU", "UhUh")

    def test_fully_treated_village_is_tt(self):
        villages = {
            "c1": {"dosage": 0.0, "households": {"h1": ["ca"], "h2": ["cb"]}},
            "f1": {"dosage": 1.0, "households": {"g1": ["pa"], "g2": ["pb"]},
                   "treated": ["g1", "g2"]},
        }
        panel = make_panel(villages)
        ref = node_refinement(panel, "health")
        assert categorize_dyad("pa", "pb", panel, ref)[0] == "TT"

    def test_cross_village_dyad_errors(self):
        panel = category_panel()
        ref = node_refinement(panel, "health")
        with pytest.raises(DyadicError, match="spans"):
            categorize_dyad("ca", "tt", panel, ref)

    def test_fine_aggregates_to_coarse(self):
        panel = category_panel()
        for d in enumerate_dyads(panel, "health", sample="all"):
            if d.coarse == "UoUo":
                assert d.fine == "UoUo"
            else:
                ego_t = "T" if d.fine[:2] in ("To", "T1") else "U"
                alter_t = "T" if d.fine[2:] in ("To", "T1") else "U"
                assert d.coarse == ego_t + alter_t


def oracle_fit(labels, y, reference):
    """Generic numerical MLE for the same design, via scipy BFGS."""
    cats = sorted(set(labels))
    others = [c for c in cats if c != reference]
    X = np.ones((len(labels), 1 + len(others)))
    for k, c in enumerate(others):
        X[:, 1 + k] = np.array([1.0 if l == c else 0.0 for l in labels])
    y = np.asarray(y, dtype=float)

    def nll(beta):
        eta = X @ beta
        return float(np.sum(np.logaddexp(0.0, eta) - y * eta))

    res = optimize.minimize(nll, np.zeros(X.shape[1]), method="BFGS",
                            options={"gtol": 1e-12, "maxiter": 500})
    return ["(Intercept)"] + others, res.x


class TestIrls:
    def test_intercept_only_closed_form(self):
        fit = fit_categorical_logistic(["UoUo"] * 4, np.array([1.0, 0, 0, 0]))
        assert fit.coefficients["(Intercept)"].estimate == pytest.approx(
            math.log(0.25 / 0.75), abs=1e-9)
        assert fit.converged

    def test_baseline_persistence_anchor(self):
        # 3556 dissolutions in 10000 wave-1 links
        y = np.array([1.0] * 3556 + [0.0] * 6444)
        fit = fit_categorical_logistic(["UoUo"] * 10000, y)
        est = fit.coefficients["(Intercept)"].estimate
        assert est == pytest.approx(-0.59446, abs=1e-3)
        assert 1.0 / (1.0 + math.exp(-est)) == pytest.approx(0.3556, abs=1e-9)

    def test_matches_generic_optimizer_small_data(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(4, 13))
            labels = [str(rng.choice(["UoUo", "TT"])) for _ in range(n)]
            y = rng.integers(0, 2, size=n).astype(float)
            # avoid separation so the MLE is finite
            bad = False
            for c in set(labels):
                sub = y[np.array([l == c for l in labels])]
                if sub.max() == sub.min():
                    bad = True
            if bad:
                continue
            fit = fit_categorical_logistic(labels, y)
            terms, oracle = oracle_fit(labels, y, fit.reference)
            assert fit.converged
            for t, b in zip(terms, oracle):
                assert fit.coefficients[t].estimate == pytest.approx(b, abs=1e-5)

    def test_saturated_model_matches_empirical_rates(self):
        rng = np.random.default_rng(37)
        labels, y = [], []
        rates = {"UoUo": 0.4, "UU": 0.25, "TT": 0.7}
        for cat, rate in rates.items():
            n = 200
            k = int(round(rate * n))
            labels += [cat] * n
            y += [1.0] * k + [0.0] * (n - k)
        fit = fit_categorical_logistic(np.array(labels, dtype=object), np.array(y))
        b0 = fit.coefficients["(Intercept)"].estimate
        for cat, rate in rates.items():
            delta = 0.0 if cat == "UoUo" else fit.coefficients[cat].estimate
            p = 1.0 / (1.0 + math.exp(-(b0 + delta)))
            assert p == pytest.approx(rate, abs=1e-9)

    def test_score_small_at_optimum(self):
        rng = np.random.default_rng(41)
        labels = [str(c) for c in rng.choice(["UoUo", "UU", "TT"], size=300)]
        y = rng.integers(0, 2, size=300).astype(float)
        fit = fit_categorical_logistic(labels, y)
        others = [c for c in sorted(set(labels)) if c != "UoUo"]
        X = np.ones((300, 1 + len(others)))
        for k, c in enumerate(others):
            X[:, k + 1] = np.array([l == c for l in labels], dtype=float)
        beta = np.array([fit.coefficients["(Intercept)"].estimate]
                        + [fit.coefficients[c].estimate for c in others])
        assert np.max(np.abs(logistic_score(X, y, beta))) < 1e-8

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        n, p = 40, 3
        X = np.column_stack([np.ones(n), rng.integers(0, 2, size=(n, p - 1))])
        y = rng.integers(0, 2, size=n).astype(float)
        beta = rng.normal(scale=0.5, size=p)
        H = logistic_hessian(X, y, beta)
        eps = 1e-6
        for j in range(p):
            step = np.zeros(p)
            step[j] = eps
            col = (logistic_score(X, y, beta + step)
                   - logistic_score(X, y, beta - step)) / (2 * eps)
            assert np.allclose(H[:, j], col, rtol=1e-4, atol=1e-6)

    def test_complete_separation_flagged(self):
        labels = ["UoUo"] * 6 + ["TT"] * 4
        y = np.array([0, 1, 0, 1, 0, 1, 1, 1, 1, 1], dtype=float)
        fit = fit_categorical_logistic(labels, y)
        assert not fit.converged
        assert fit.separated == ("TT",)

    def test_missing_reference_falls_back(self, caplog):
        fit = fit_categorical_logistic(["TT"] * 4 + ["UU"] * 4,
                                       np.array([1, 0, 0, 1, 1, 0, 1, 0], dtype=float))
        assert fit.reference == "TT"

    def test_outcome_restrictions(self):
        panel = category_panel()
        data = dyad_dataset(panel, "health")
        dis = fit_logistic_irls(data, "dissolution")
        form = fit_logistic_irls(data, "formation")
        assert dis.n_observations == 3   # wave-1 links
        assert form.n_observations == 23


class TestOddsRatios:
    def test_paper_scale_conversions(self):
        fit = fit_categorical_logistic(
            ["UoUo"] * 2 + ["TT"] * 2, np.array([0.0, 1.0, 0.0, 1.0]))
        # overwrite estimates with exact inputs for the conversion check
        from villagenet.dyadic import CoefficientEstimate, LogisticFit
        fit = LogisticFit(
            outcome="dissolution", scheme="coarse", reference="UoUo",
            coefficients={
                "TT": CoefficientEstimate(0.36137, 0.1, 3.6, 0.0),
                "UT": CoefficientEstimate(-0.48684, 0.1, -4.9, 0.0),
                "zero": CoefficientEstimate(0.0, 0.1, 0.0, 1.0),
            },
            converged=True, iterations=1, log_likelihood=0.0, n_observations=4,
        )
        ors = odds_ratio_summary(fit)
        assert ors["TT"][0] == pytest.approx(1.43528, abs=1e-4)
        assert ors["TT"][1] == pytest.approx(43.528, abs=0.01)
        assert ors["UT"][0] == pytest.approx(0.61455, abs=1e-4)
        assert ors["UT"][1] == pytest.approx(-38.545, abs=0.01)
        assert ors["zero"] == (1.0, 0.0)

    def test_quoted_percentages_within_tolerance(self):
        # published rounding: 43.44% and 38.58%
        assert abs(100 * (math.exp(0.36137) - 1) - 43.44) < 0.15
        assert abs(abs(100 * (math.exp(-0.48684) - 1)) - 38.58) < 0.15


@pytest.fixture(scope="module")
def three_layer_panel():
    return generate_panel(SyntheticScenario(
        seed=9, arms=((0.0, 2), (0.5, 2)), village_size=(10, 16),
        layers=("health", "friendship", "financial"),
        edge_density={"health": 0.15, "friendship": 0.15, "financial": 0.1},
    ))[0]


class TestSharedAdjacency:
    """dyad_dataset reads each network's cached dense adjacency."""

    @pytest.mark.parametrize("layer", ["health", "aggregated"])
    @pytest.mark.parametrize("sample", SAMPLES)
    def test_dataset_matches_edge_lookup(self, three_layer_panel, layer, sample):
        panel = three_layer_panel
        data = sample_of(dyad_dataset(panel, layer), sample)
        nets = {(v, w): panel.network(v, w, layer) for v in panel.villages for w in (1, 3)}
        want = set()
        for v in panel.villages:
            for ego in members(panel, v):
                for alter in members(panel, v):
                    linked = has_edge(nets[(v, 1)], ego, alter)
                    if ego != alter and (sample == "all" or linked == (sample == "existing_w1")):
                        want.add((v, ego, alter))
        dyads = enumerate_dyads(panel, layer, sample)
        got = set()
        for d in dyads:
            got.add((d.village_id, d.ego, d.alter))
            assert d.link_w1 == has_edge(nets[(d.village_id, 1)], d.ego, d.alter)
            assert d.link_w3 == has_edge(nets[(d.village_id, 3)], d.ego, d.alter)
        assert len(got) == len(dyads) == len(data)
        assert got == want
        for scheme in SCHEMES:
            assert counted_states(data, scheme) == state_counts(dyads, scheme)
        if sample == "all":
            assert written_dyads(panel, layer)[2:] == csv_lines(dyads)

    def test_correspondence_reuses_a_built_dataset(self, three_layer_panel):
        panel = three_layer_panel
        rows, fit = estimand_correspondence(panel, "health")
        data = dyad_dataset(panel, "health")
        rows2, fit2 = estimand_correspondence(panel, "health", data=data)
        assert rows == rows2
        assert fit.coefficients == fit2.coefficients

    def test_correspondence_rejects_another_layer(self, three_layer_panel):
        data = dyad_dataset(three_layer_panel, "friendship")
        with pytest.raises(DyadicError, match="dyad dataset of layer health"):
            estimand_correspondence(three_layer_panel, "health", data=data)


class TestCorrespondence:
    def test_null_scenario_near_zero(self):
        scenario = SyntheticScenario(
            seed=5, arms=((0.0, 3), (0.5, 3)), village_size=(40, 40),
            layers=("health",), edge_density={"health": 0.05},
            p_keep={"UoUo": 0.6}, p_form={"UoUo": 0.02},
        )
        panel, _ = generate_panel(scenario)
        rows, fit = estimand_correspondence(panel, "health")
        assert {r.term for r in rows} == {"UU", "UT", "TU", "TT"}
        for row in rows:
            assert abs(row.node_contrast) < 0.02

    def test_planted_tt_boost_signs_agree(self):
        scenario = SyntheticScenario(
            seed=7, arms=((0.0, 3), (0.5, 3)), village_size=(50, 60),
            layers=("health",), edge_density={"health": 0.05},
            p_keep={"UoUo": 0.6},
            p_form={"UoUo": 0.02, "TT": 0.06},
        )
        panel, _ = generate_panel(scenario)
        rows, fit = estimand_correspondence(panel, "health")
        tt = next(r for r in rows if r.term == "TT")
        assert tt.dyadic_estimate > 0
        assert tt.node_contrast > 0
        assert tt.signs_agree


class TestDroppedCategories:
    def test_absent_coarse_categories_warn_and_record(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING):
            fit = fit_categorical_logistic(
                ["UoUo"] * 5 + ["TT"] * 5,
                np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=float))
        assert set(fit.dropped) == {"UU", "UT", "TU"}
        assert "dropped" in caplog.text


@st.composite
def small_panels(draw):
    """1-3 villages of 1-7 members; the first is a control, isolates are common."""
    villages, edges = {}, {}
    for v in range(draw(st.integers(1, 3))):
        vid = f"v{v}"
        households, k = {}, 0
        for h in range(draw(st.integers(1, 4))):
            size = draw(st.integers(1, 2))
            households[f"{vid}h{h}"] = [f"{vid}i{k + j}" for j in range(size)]
            k += size
        dosage = 0.0 if v == 0 else draw(st.sampled_from(ALLOWED_DOSAGES))
        hids = sorted(households)
        treated = draw(st.permutations(hids))[:treated_household_count(dosage, len(hids))]
        villages[vid] = {"dosage": dosage, "households": households, "treated": treated}
        ids = [i for h in hids for i in households[h]]
        pairs = [(a, b) for a in ids for b in ids if a != b]
        for wave in (1, 3):
            for layer in BASE_LAYERS:
                edges[(vid, wave, layer)] = (
                    draw(st.lists(st.sampled_from(pairs), max_size=len(pairs) // 2))
                    if pairs else [])
    return make_panel(villages, edges)


class TestCountsAgainstOracle:
    """Counts from adjacency and the written dyads.csv vs the per-pair oracle."""

    @settings(max_examples=60, deadline=None)
    @given(panel=small_panels(),
           layer=st.sampled_from(["health", "friendship", "aggregated"]),
           sample=st.sampled_from(SAMPLES))
    # a one-member village between two others writes no line, not even a blank one
    @example(panel=make_panel({
        "v0": {"dosage": 0.0, "households": {"a": ["v0i0"], "b": ["v0i1", "v0i2"]}},
        "v1": {"dosage": 1.0, "households": {"c": ["v1i0"]}, "treated": ["c"]},
        "v2": {"dosage": 0.5, "households": {"d": ["v2i0"], "e": ["v2i1"]}, "treated": ["e"]},
    }, {("v0", 1, "health"): [("v0i0", "v0i1")], ("v0", 3, "health"): [("v0i1", "v0i2")],
        ("v2", 1, "friendship"): [("v2i0", "v2i1")], ("v2", 3, "health"): [("v2i1", "v2i0")]}),
        layer="aggregated", sample="all")
    def test_counts_length_and_rows(self, panel, layer, sample):
        data = sample_of(dyad_dataset(panel, layer), sample)
        dyads = enumerate_dyads(panel, layer, sample)
        assert len(data) == len(dyads)
        for scheme in SCHEMES:
            assert counted_states(data, scheme) == state_counts(dyads, scheme)
        everyone = dyads if sample == "all" else enumerate_dyads(panel, layer)
        lines = written_dyads(panel, layer)
        assert lines[1] == "village,ego,alter,coarse,fine,link_w1,link_w3"
        assert lines[2:] == [
            f"{d.village_id},{d.ego},{d.alter},{d.coarse},{d.fine},"
            f"{int(d.link_w1)},{int(d.link_w3)}" for d in everyone]

    @settings(max_examples=30, deadline=None)
    @given(panel=small_panels(), layer=st.sampled_from(["health", "aggregated"]))
    def test_refinement_codes_match_labels(self, panel, layer):
        labels = node_refinement(panel, layer)
        asg = observed_assignment(panel)
        for v in panel.villages:
            treated = np.array([m in asg.treated for m in members(panel, v)], dtype=bool)
            codes = refinement_codes(panel.network(v, 1, layer).src,
                                     panel.network(v, 1, layer).dst, treated)
            assert [REFINEMENT_LABELS[c] for c in codes] == [
                labels[m] for m in members(panel, v)]


def assert_same_fit(grouped, rows):
    """The grouped fit equals the row-level fit bit for bit.

    Both sum their rows per category first, and sums of 0/1 floats are exact.
    A separated fit has NaN terms, which are compared as equal to NaN.
    """
    if not rows.separated:
        assert grouped == rows
        return
    assert (dataclasses.replace(grouped, coefficients={})
            == dataclasses.replace(rows, coefficients={}))
    assert list(grouped.coefficients) == list(rows.coefficients)
    for term, coef in rows.coefficients.items():
        assert dataclasses.astuple(grouped.coefficients[term]) == pytest.approx(
            dataclasses.astuple(coef), rel=0, abs=0, nan_ok=True)


class TestGroupedFit:
    """One weighted row per category fits the same model as one row per dyad."""

    @pytest.mark.parametrize("outcome", OUTCOMES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_row_level_fit(self, three_layer_panel, outcome, scheme):
        panel = three_layer_panel
        grouped = fit_logistic_irls(dyad_dataset(panel, "health"), outcome, scheme)
        labels, y = outcome_rows(enumerate_dyads(panel, "health"), scheme, outcome)
        rows = fit_categorical_logistic(labels, np.array(y), outcome=outcome, scheme=scheme)
        assert_same_fit(grouped, rows)

    def test_random_counts_match_expanded_rows(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            cats = sorted(rng.choice(["UoUo", "UU", "UT", "TU", "TT"],
                                     size=int(rng.integers(1, 6)), replace=False))
            trials = rng.integers(1, 40, size=len(cats))
            hits = np.array([rng.integers(0, t + 1) for t in trials])
            labels = [c for c, t in zip(cats, trials) for _ in range(t)]
            y = np.concatenate([[1.0] * k + [0.0] * (t - k) for t, k in zip(trials, hits)])
            rows = fit_categorical_logistic(labels, y)
            grouped = fit_categorical_logistic(cats, hits, trials=trials)
            assert_same_fit(grouped, rows)

    def test_binomial_forms_equal_expanded_rows(self):
        rng = np.random.default_rng(59)
        X = np.column_stack([np.ones(4), np.eye(4)[:, 1:]])
        trials = np.array([5.0, 1.0, 7.0, 3.0])
        y = np.array([2.0, 1.0, 0.0, 3.0])
        beta = rng.normal(scale=0.5, size=4)
        reps = np.repeat(np.arange(4), trials.astype(int))
        y_rows = np.concatenate([[1.0] * int(k) + [0.0] * int(t - k)
                                 for t, k in zip(trials, y)])
        assert logistic_nll(X, y, beta, trials) == pytest.approx(
            logistic_nll(X[reps], y_rows, beta), rel=1e-12)
        assert np.allclose(logistic_score(X, y, beta, trials),
                           logistic_score(X[reps], y_rows, beta), rtol=1e-12, atol=1e-12)
        assert np.allclose(logistic_hessian(X, y, beta, trials),
                           logistic_hessian(X[reps], y_rows, beta), rtol=1e-12, atol=1e-12)


@st.composite
def category_counts(draw):
    """Trials and successes for some of the coarse categories, in name order."""
    cats = sorted(draw(st.lists(st.sampled_from(COARSE_CATEGORIES), min_size=1, max_size=5,
                                unique=True)))
    trials = np.array([draw(st.integers(1, 200)) for _ in cats])
    hits = np.array([draw(st.integers(0, int(t))) for t in trials])
    return cats, trials, hits


class TestClosedForm:
    """The closed form against the exact likelihood, score and Hessian."""

    @settings(max_examples=200, deadline=None)
    @given(counts=category_counts())
    def test_fit_is_the_mle(self, counts):
        cats, trials, hits = counts
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_categorical_logistic(cats, hits, trials=trials)
        split = (hits > 0) & (hits < trials)
        assert fit.converged == bool(split.all())
        assert fit.separated == tuple(c for c, ok in zip(cats, split) if not ok)
        assert fit.iterations == 0
        others = [c for c in cats if c != fit.reference]
        terms = ["(Intercept)"] + others
        if fit.separated:
            for term, coef in fit.coefficients.items():
                enters = fit.reference in fit.separated or term in fit.separated
                assert [math.isnan(v) for v in dataclasses.astuple(coef)] == [enters] * 4
            return
        X = np.column_stack([np.ones(len(cats))]
                            + [[float(c == o) for c in cats] for o in others])
        beta = np.array([fit.coefficients[t].estimate for t in terms])
        assert np.max(np.abs(logistic_score(X, hits, beta, trials))) < 1e-8
        se = np.sqrt(np.diag(np.linalg.inv(-logistic_hessian(X, hits, beta, trials))))
        assert [fit.coefficients[t].std_error for t in terms] == pytest.approx(se, rel=1e-9)
        assert fit.log_likelihood == pytest.approx(-logistic_nll(X, hits, beta, trials),
                                                   rel=1e-12)
