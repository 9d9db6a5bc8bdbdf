"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Monte-Carlo criteria use fixed seeds, so every run is deterministic.
"""

import math
import time
import numpy as np

from villagenet.cli import main as cli_main
from villagenet.dyadic import (
    CoefficientEstimate,
    LogisticFit,
    dyad_dataset,
    estimand_correspondence,
    fit_categorical_logistic,
    fit_logistic_irls,
    logistic_hessian,
    logistic_score,
    odds_ratio_summary,
)
from villagenet.effects import ContrastSpec, EffectError
from villagenet.metrics import (
    betweenness_normalized,
    closeness_normalized,
    degree_metrics,
    local_clustering,
    metric_table,
)
from villagenet.randomization import permutation_pvalue
from villagenet.stats import wasserstein1
from villagenet.synth import SyntheticScenario, generate_panel, ks_uniform

from conftest import make_panel
from draw_oracle import kernel_evaluate, kernel_spillover_order
from network_oracle import bfs_distances, undirected_neighbors
import test_cli
import test_effects
import test_metrics


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


class TestCriterion1:
    def test_baseline_rate_anchors(self):
        t0 = time.time()
        y_dis = np.array([1.0] * 3556 + [0.0] * 6444)
        dis = fit_categorical_logistic(["UoUo"] * 10000, y_dis,
                                       outcome="dissolution")
        y_form = np.array([1.0] * 774 + [0.0] * (100000 - 774))
        form = fit_categorical_logistic(["UoUo"] * 100000, y_form,
                                        outcome="formation")
        elapsed = time.time() - t0
        b_dis = dis.coefficients["(Intercept)"].estimate
        b_form = form.coefficients["(Intercept)"].estimate
        persistence = 1.0 - _sigmoid(b_dis)
        ok = (abs(b_dis - (-0.5945)) <= 0.001
              and abs(b_form - (-4.853)) <= 0.005
              and elapsed < 1.0)
        report(1, "baseline-rate anchors", ok,
               f"dissolution intercept {b_dis:.4f} (persistence {100*persistence:.1f}%), "
               f"formation intercept {b_form:.4f}, runtime {elapsed:.2f}s")


class TestCriterion2:
    def test_odds_ratio_conversions(self):
        fit = LogisticFit(
            outcome="dissolution", scheme="coarse", reference="UoUo",
            coefficients={"TT": CoefficientEstimate(0.36137, 0.11, 3.2, 0.002),
                          "UT": CoefficientEstimate(-0.48684, 0.11, -4.5, 0.0)},
            converged=True, iterations=4, log_likelihood=0.0, n_observations=1,
        )
        ors = odds_ratio_summary(fit)
        tt_pct = ors["TT"][1]
        ut_pct = ors["UT"][1]
        ok = abs(tt_pct - 43.44) <= 0.15 and abs(abs(ut_pct) - 38.58) <= 0.15
        report(2, "odds-ratio conversions", ok,
               f"exp(0.36137) -> {tt_pct:+.2f}% (quoted +43.44%), "
               f"exp(-0.48684) -> {ut_pct:+.2f}% (quoted -38.58%)")


class TestCriterion3:
    PLANTED = {"(Intercept)": -0.594, "UU": 0.070, "TU": -0.301,
               "UT": -0.487, "TT": 0.361}

    def test_planted_coefficient_recovery(self):
        keep = {"UoUo": 1.0 - _sigmoid(self.PLANTED["(Intercept)"])}
        for cat in ("UU", "TU", "UT", "TT"):
            keep[cat] = 1.0 - _sigmoid(self.PLANTED["(Intercept)"] + self.PLANTED[cat])
        t0 = time.time()
        hits = {term: 0 for term in self.PLANTED}
        n_reps = 50
        for rep in range(n_reps):
            scenario = SyntheticScenario(
                seed=9000 + rep, arms=((0.0, 8), (0.5, 12)), village_size=(75, 75),
                layers=("health",), edge_density={"health": 0.25},
                p_keep=keep, p_form={"UoUo": 0.01},
            )
            panel, _ = generate_panel(scenario)
            data = dyad_dataset(panel, "health", sample="all")
            fit = fit_logistic_irls(data, "dissolution", "coarse")
            for term, want in self.PLANTED.items():
                if abs(fit.coefficients[term].estimate - want) <= 0.10:
                    hits[term] += 1
        elapsed = time.time() - t0
        rates = {t: h / n_reps for t, h in hits.items()}
        ok = all(r >= 0.90 for r in rates.values()) and elapsed < 120.0
        report(3, "planted-coefficient recovery", ok,
               f"within +/-0.10 rates {rates} over {n_reps} replicates "
               f"(20 villages x 75 nodes), runtime {elapsed:.1f}s")


class TestCriterion4:
    def test_direct_identity_on_suite_panels(self):
        panels = [test_effects.spillover_village_panel()]
        panels.append(make_panel(*_fixture_args()))
        for seed in (201, 202, 203, 204, 205):
            scenario = SyntheticScenario(
                seed=seed, arms=((0.0, 3), (0.3, 2), (0.75, 2)),
                village_size=(20, 30), layers=("health",),
                edge_density={"health": 0.10},
                p_keep={"UoUo": 0.6, "TU": 0.4}, p_form={"UoUo": 0.02, "TT": 0.05},
            )
            panels.append(generate_panel(scenario)[0])
        checked = 0
        worst = 0.0
        for panel in panels:
            table = metric_table(panel, "health")
            for scope in ("all", "low", "high"):
                for metric in ("degree", "in_degree", "out_degree", "closeness"):
                    try:
                        vals = {
                            kind: kernel_evaluate(panel, table, ContrastSpec(
                                kind=kind, dosage_scope=scope, layer="health",
                                metric=metric)).raw_did
                            for kind in ("total", "spillover", "direct")
                        }
                    except EffectError:
                        continue
                    residual = abs(vals["direct"] - (vals["total"] - vals["spillover"]))
                    worst = max(worst, residual)
                    checked += 1
        ok = checked >= 20 and worst <= 1e-12
        report(4, "estimator identity", ok,
               f"direct = total - spillover on {checked} contrasts, "
               f"max |residual| = {worst:.2e}")


def _fixture_args():
    villages = {
        "c1": {"dosage": 0.0,
               "households": {"c1h1": ["c1a", "c1b"], "c1h2": ["c1c"],
                              "c1h3": ["c1d"], "c1h4": ["c1e"]}},
        "t1": {"dosage": 0.2,
               "households": {"t1h1": ["t1a", "t1b"], "t1h2": ["t1c"],
                              "t1h3": ["t1d"], "t1h4": ["t1e"], "t1h5": ["t1f"]},
               "treated": ["t1h1"]},
    }
    edges = {
        ("c1", 1, "health"): [("c1a", "c1b"), ("c1b", "c1c"), ("c1c", "c1d")],
        ("c1", 3, "health"): [("c1a", "c1b"), ("c1b", "c1c")],
        ("t1", 1, "health"): [("t1a", "t1c"), ("t1c", "t1d"), ("t1d", "t1e")],
        ("t1", 3, "health"): [("t1a", "t1c"), ("t1c", "t1d")],
    }
    return villages, edges


class TestCriterion5:
    def test_permutation_validity_under_null(self):
        t0 = time.time()
        spec = ContrastSpec(kind="total", dosage_scope="all", layer="health",
                            metric="degree")
        n_reps, m = 200, 500
        pvals = []
        for rep in range(n_reps):
            scenario = SyntheticScenario(
                seed=40000 + rep, arms=((0.0, 3), (0.3, 3)), village_size=(30, 40),
                layers=("health",), edge_density={"health": 0.08},
                p_keep={"UoUo": 0.65}, p_form={"UoUo": 0.02},
            )
            panel, _ = generate_panel(scenario)
            res = permutation_pvalue(panel, spec, permutations=m,
                                     master_seed=12345 + rep)
            pvals.append(res.p_value)
        elapsed = time.time() - t0
        pvals = np.asarray(pvals)
        ks = ks_uniform(pvals)
        bound_ok = bool((pvals >= 1.0 / (m + 1) - 1e-12).all())
        ok = ks < 0.1 and bound_ok and elapsed < 600.0
        report(5, "permutation validity", ok,
               f"KS distance {ks:.4f} over {n_reps} null replicates (M={m}), "
               f"min p {pvals.min():.4f} >= 1/(M+1), runtime {elapsed:.1f}s")


class TestCriterion6:
    def test_metric_oracles_on_random_graphs(self):
        t0 = time.time()
        rng = np.random.default_rng(606)
        worst = 0.0
        handshake_ok = True
        for _ in range(100):
            n = int(rng.integers(3, 41))
            net = test_metrics.random_net(rng, n, float(rng.uniform(0.03, 0.3)))
            btw = betweenness_normalized(net)
            clo = closeness_normalized(net)
            clu = local_clustering(net)
            o_btw = test_metrics.oracle_betweenness(net)
            o_clo = test_metrics.oracle_closeness(net)
            o_clu = test_metrics.oracle_clustering(net)
            for v in net.nodes:
                worst = max(worst, abs(btw[v] - o_btw[v]))
                for got, want in ((clo[v], o_clo[v]), (clu[v], o_clu[v])):
                    if want is None:
                        assert got is None
                    else:
                        worst = max(worst, abs(got - want))
            deg = degree_metrics(net)
            s_in = sum(d[1] for d in deg.values())
            s_out = sum(d[2] for d in deg.values())
            handshake_ok &= (s_in == s_out == net.edge_count)
        elapsed = time.time() - t0
        ok = worst <= 1e-9 and handshake_ok and elapsed < 60.0
        report(6, "metric oracles", ok,
               f"max |deviation| {worst:.2e} over 100 graphs (n<=40), "
               f"degree handshake {'held' if handshake_ok else 'failed'}, "
               f"runtime {elapsed:.1f}s")


class TestCriterion7:
    def test_wasserstein_oracle_and_axioms(self):
        rng = np.random.default_rng(707)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            a = rng.integers(0, 40, size=n).astype(float)
            b = rng.integers(0, 40, size=n).astype(float)
            got = wasserstein1(a, b)
            want = float(np.mean(np.abs(np.sort(a) - np.sort(b))))
            worst = max(worst, abs(got - want))
        axioms_ok = True
        for _ in range(100):
            a = rng.integers(0, 15, size=int(rng.integers(1, 20))).astype(float)
            b = rng.integers(0, 15, size=int(rng.integers(1, 20))).astype(float)
            c = rng.integers(0, 15, size=int(rng.integers(1, 20))).astype(float)
            dab = wasserstein1(a, b)
            axioms_ok &= abs(dab - wasserstein1(b, a)) <= 1e-12
            axioms_ok &= dab >= 0.0
            axioms_ok &= dab <= wasserstein1(a, c) + wasserstein1(b, c) + 1e-9
            axioms_ok &= (wasserstein1(a, a) == 0.0)
        ok = worst <= 1e-9 and axioms_ok
        report(7, "wasserstein oracle", ok,
               f"max |deviation| {worst:.2e} on 1000 equal-size pairs, "
               f"metric axioms {'held' if axioms_ok else 'failed'} on 100 triples")


class TestCriterion8:
    def test_correspondence_sign_agreement(self):
        base = 0.02
        boosted_odds = base / (1.0 - base) * 1.5
        p_tt = boosted_odds / (1.0 + boosted_odds)
        n_reps, agree = 50, 0
        for rep in range(n_reps):
            scenario = SyntheticScenario(
                seed=70000 + rep, arms=((0.0, 6), (0.5, 6)), village_size=(60, 70),
                layers=("health",), edge_density={"health": 0.05},
                p_keep={"UoUo": 0.65}, p_form={"UoUo": base, "TT": p_tt},
            )
            panel, _ = generate_panel(scenario)
            rows, _ = estimand_correspondence(panel, "health")
            tt = next(r for r in rows if r.term == "TT")
            agree += tt.signs_agree
        ok = agree / n_reps >= 0.95
        report(8, "dyadic/node correspondence", ok,
               f"beta_TT vs in-degree-from-treated signs agree in "
               f"{agree}/{n_reps} replicates (planted formation OR 1.5)")


class TestCriterion9:
    def test_spillover_order_vs_bfs(self):
        rng = np.random.default_rng(909)
        checked = 0
        ok = True
        for trial in range(40):
            n = int(rng.integers(5, 11))
            ids = [f"i{k}" for k in range(n)]
            k_treated = max(1, n // 4)
            treated = set(rng.choice(ids, size=k_treated, replace=False))
            villages = {
                "t": {"dosage": 0.2,
                      "households": {f"h{j}": [ids[j]] for j in range(n)},
                      "treated": [f"h{j}" for j in range(n) if ids[j] in treated]},
                "c": {"dosage": 0.0, "households": {"c1": ["x"], "c2": ["y"]}},
            }
            edges = [(ids[int(a)], ids[int(b)])
                     for a, b in rng.integers(0, n, size=(n + 2, 2)) if a != b]
            try:
                panel = make_panel(villages, {("t", 1, "health"): edges})
            except Exception:
                continue
            net = panel.network("t", 1, "health")
            dist = bfs_distances(undirected_neighbors(net), sorted(treated))
            for mode in ("exclusive", "distance_only"):
                for include_unreachable in (False, True):
                    labels = kernel_spillover_order(
                        panel, "health", mode=mode,
                        include_unreachable=include_unreachable)
                    for node in net.nodes:
                        if node in treated:
                            continue
                        d = dist.get(node)
                        if d == 1:
                            want = "first_order"
                        elif d is not None and d >= 2:
                            want = "higher_order"
                        elif mode == "distance_only" and include_unreachable:
                            want = "higher_order"
                        else:
                            want = "neither"
                        ok &= labels[node] == want
                        checked += 1
        report(9, "spillover-order classification", ok and checked > 200,
               f"matched exhaustive BFS on {checked} node classifications "
               f"(both modes, both unreachable policies)")


class TestCriterion10:
    def test_cli_threads_reproducibility(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        import json
        scenario.write_text(json.dumps(test_cli.SCENARIO))
        sim = tmp_path / "sim"
        assert cli_main(["simulate", "--scenario", str(scenario),
                         "--out", str(sim)]) == 0
        perm_digests = []
        eff_digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"perm_t{threads}"
            code = cli_main([
                "permtest", "--panel", str(sim / "panel.json"),
                "--layer", "health", "--metric", "degree", "--kind", "total",
                "--permutations", "120", "--seed", "31",
                "--threads", threads, "--out", str(out)])
            assert code == 0
            perm_digests.append(test_cli.digest_dir(out))
            out = tmp_path / f"eff_t{threads}"
            code = cli_main([
                "effects", "--panel", str(sim / "panel.json"),
                "--layers", "health", "--metrics", "degree,betweenness",
                "--scopes", "all", "--permutations", "60", "--seed", "13",
                "--threads", threads, "--out", str(out)])
            assert code == 0
            eff_digests.append(test_cli.digest_dir(out))
        ok = perm_digests[0] == perm_digests[1] and eff_digests[0] == eff_digests[1]
        n_files = len(perm_digests[0]) + len(eff_digests[0])
        report(10, "thread-count reproducibility", ok,
               f"permtest and effects outputs byte-identical across "
               f"--threads 1 and 2 ({n_files} files compared)")


class TestCriterion11:
    def test_irls_numerical_hygiene(self):
        rng = np.random.default_rng(1111)
        worst_score = 0.0
        worst_hessian = 0.0
        fits = 0
        while fits < 20:
            n = int(rng.integers(30, 120))
            cats = ["UoUo", "UU", "TT"][: int(rng.integers(2, 4))]
            labels = [str(c) for c in rng.choice(cats, size=n)]
            probs = {c: rng.uniform(0.2, 0.8) for c in cats}
            y = np.array([float(rng.random() < probs[l]) for l in labels])
            fit = fit_categorical_logistic(labels, y)
            if not fit.converged:
                continue
            others = [c for c in sorted(set(labels)) if c != fit.reference]
            X = np.ones((n, 1 + len(others)))
            for k, c in enumerate(others):
                X[:, 1 + k] = np.array([l == c for l in labels], dtype=float)
            beta = np.array([fit.coefficients["(Intercept)"].estimate]
                            + [fit.coefficients[c].estimate for c in others])
            worst_score = max(worst_score,
                              float(np.max(np.abs(logistic_score(X, y, beta)))))
            H = logistic_hessian(X, y, beta)
            eps = 1e-6
            for j in range(beta.size):
                step = np.zeros(beta.size)
                step[j] = eps
                fd = (logistic_score(X, y, beta + step)
                      - logistic_score(X, y, beta - step)) / (2.0 * eps)
                scale = np.maximum(np.abs(H[:, j]), 1e-8)
                worst_hessian = max(worst_hessian,
                                    float(np.max(np.abs(H[:, j] - fd) / scale)))
            fits += 1
        ok = worst_score < 1e-8 and worst_hessian < 1e-4
        report(11, "IRLS numerical hygiene", ok,
               f"max |score| at optimum {worst_score:.2e}, max relative "
               f"Hessian/finite-difference gap {worst_hessian:.2e} over 20 fits")
