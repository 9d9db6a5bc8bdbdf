"""Independent checks of villagenet's outputs.

Every check re-derives what an output must contain from the inputs alone,
with plain ``json``, numpy and scipy, and never imports villagenet. A check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
from scipy import stats as sstats
from scipy.sparse import csgraph

LOW = (0.05, 0.1, 0.2, 0.3)
HIGH = (0.5, 0.75, 1.0)
REL = 1e-9          # exports print 12 significant digits
MAX_PROBLEMS = 20


def close(a: float, b: float, tol: float = REL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def read_export(path: Path) -> tuple[list[str], list[list[str]]]:
    """Comment lines and comma-split data rows (header dropped) of an export."""
    comments, rows, header = [], [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line
            elif line:
                rows.append(line.split(","))
    return comments, rows


def num(token: str) -> float:
    return float("nan") if token == "NA" else float(token)


class Panel:
    """A panel.json archive as integer-indexed numpy arrays per village."""

    def __init__(self, path: Path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.dosage = {v: float(a) for v, a in doc["village_dosages"].items()}
        self.villages = sorted(self.dosage)
        members: dict[str, list[str]] = {v: [] for v in self.villages}
        treated: dict[str, bool] = {}
        for rec in doc["individuals"]:
            members[rec["village_id"]].append(rec["id"])
            treated[rec["id"]] = bool(rec["treated"])
        self.members = {v: sorted(ids) for v, ids in members.items()}
        self.treated = {v: np.array([treated[i] for i in self.members[v]])
                        for v in self.villages}
        self.edges = doc["networks"]

    def adjacency(self, village: str, wave: int, layer: str) -> np.ndarray:
        """Directed bool matrix; 'aggregated' is the symmetric union of the base layers."""
        if layer == "aggregated":
            a = sum(self.adjacency(village, wave, l).astype(np.int8)
                    for l in ("health", "friendship", "financial")) > 0
            return a | a.T
        idx = {m: k for k, m in enumerate(self.members[village])}
        n = len(idx)
        a = np.zeros((n, n), dtype=bool)
        for u, v in self.edges[f"{village}|{wave}|{layer}"]:
            a[idx[u], idx[v]] = True
        return a

    def scope(self, scope: str) -> list[str]:
        arms = {"all": LOW + HIGH, "low": LOW, "high": HIGH}[scope]
        return [v for v in self.villages if self.dosage[v] in arms]

    def controls(self) -> list[str]:
        return [v for v in self.villages if self.dosage[v] == 0.0]


def exposed(adj_w1: np.ndarray, treated: np.ndarray) -> np.ndarray:
    """Nodes with a treated wave-1 neighbour on the undirected skeleton."""
    skel = adj_w1 | adj_w1.T
    return (skel.astype(np.int32) @ treated.astype(np.int32)) > 0


# ---------------------------------------------------------------------------
# ingest

def check_ingest(outdir: Path, truth) -> list[str]:
    problems = []
    counts = {}
    for rec, reason, count in read_export(outdir / "exclusions.csv")[1]:
        counts[(rec, reason)] = int(count)
    expected = {("individual", r): c for r, c in truth.individuals_excluded.items() if c}
    expected.update({("response", r): c for r, c in truth.responses_dropped.items() if c})
    if counts != expected:
        problems.append(f"exclusion counts {counts} != planted {expected}")
    with open(outdir / "panel.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    ids = {rec["id"] for rec in doc["individuals"]}
    if ids != truth.kept:
        problems.append(f"{len(ids ^ truth.kept)} individuals differ from the kept roster")
    dosages = {v: float(a) for v, a in doc["village_dosages"].items()}
    if dosages != truth.dosages:
        problems.append("village dosages differ from the planted arms")
    if set(doc["networks"]) != set(truth.edges):
        problems.append("network keys differ from (village, wave, layer) cells")
    for key, want in truth.edges.items():
        got = {(u, v) for u, v in doc["networks"].get(key, [])}
        if got != want:
            problems.append(f"{key}: {len(got - want)} extra and {len(want - got)} missing edges")
    return problems[:MAX_PROBLEMS]


# ---------------------------------------------------------------------------
# metrics

def read_metrics(path: Path) -> dict[tuple[str, int, str], dict[str, float]]:
    """(village, wave, metric) -> {individual: value}."""
    out: dict = {}
    for ind, village, wave, _layer, metric, value in read_export(path)[1]:
        out.setdefault((village, int(wave), metric), {})[ind] = num(value)
    return out


def path_counts(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hop distances and shortest-path counts by walk counting.

    Every walk of length d(s, t) from s to t is a shortest path, so the
    path count is the (s, t) entry of A^d(s, t).
    """
    dist = csgraph.shortest_path(adj.astype(float), directed=True, unweighted=True)
    sigma = np.eye(adj.shape[0])
    walks = np.eye(adj.shape[0])
    a = adj.astype(float)
    finite = np.isfinite(dist)
    for d in range(1, int(dist[finite].max()) + 1 if finite.any() else 1):
        walks = walks @ a
        at = dist == d
        sigma[at] = walks[at]
    return dist, sigma


def betweenness_oracle(adj: np.ndarray) -> np.ndarray:
    """Normalized betweenness from path counts: sum of sigma_sv sigma_vt / sigma_st."""
    n = adj.shape[0]
    if n < 3:
        return np.zeros(n)
    dist, sigma = path_counts(adj)
    out = np.zeros(n)
    off = ~np.eye(n, dtype=bool)
    for v in range(n):
        on_path = (dist[:, v, None] + dist[None, v, :] == dist) & np.isfinite(dist) & off
        on_path[v, :] = False
        on_path[:, v] = False
        ratio = np.divide(sigma[:, v, None] * sigma[None, v, :], sigma,
                          out=np.zeros((n, n)), where=on_path)
        out[v] = ratio[on_path].sum()
    return out / ((n - 1) * (n - 2))


def _layer_problems(panel: Panel, table: dict, layer: str, oracle_set) -> list[str]:
    problems = []
    directed = layer != "aggregated"
    for village in panel.villages:
        ids = panel.members[village]
        n = len(ids)
        for wave in (1, 3):
            where = f"{layer} {village} wave {wave}"
            adj = panel.adjacency(village, wave, layer)
            skel = adj | adj.T

            def col(metric):
                got = table.get((village, wave, metric), {})
                return np.array([got.get(i, np.nan) for i in ids])

            deg = col("degree")
            if directed:
                if not (np.array_equal(col("in_degree"), adj.sum(0))
                        and np.array_equal(col("out_degree"), adj.sum(1))
                        and np.array_equal(deg, col("in_degree") + col("out_degree"))):
                    problems.append(f"{where}: degree != in_degree + out_degree of the edges")
            elif not np.array_equal(deg, skel.sum(1)):
                problems.append(f"{where}: degree != skeleton degree")

            dist = csgraph.shortest_path(skel.astype(float), directed=False, unweighted=True)
            reach = np.isfinite(dist) & ~np.eye(n, dtype=bool)
            r = reach.sum(1)
            total = np.where(reach, dist, 0.0).sum(1)
            want = np.where(r > 0, (r / np.maximum(total, 1)) * (r / max(n - 1, 1)), np.nan)
            got = col("closeness")
            if not all(close(a, b) for a, b in zip(got, want)):
                problems.append(f"{where}: closeness differs from csgraph distances")

            k = skel.sum(1)
            s = skel.astype(float)
            tri = np.diag(s @ s @ s)
            want = np.where(k >= 2, tri / np.maximum(k * (k - 1), 1), np.nan)
            if not all(close(a, b) for a, b in zip(col("clustering"), want)):
                problems.append(f"{where}: clustering != diag(A^3)/(k(k-1))")

            btw = col("betweenness")
            d = csgraph.shortest_path((adj if directed else skel).astype(float),
                                      directed=True, unweighted=True)
            fin = np.isfinite(d) & ~np.eye(n, dtype=bool)
            lhs = float(np.sum(btw)) * (n - 1) * (n - 2) if n >= 3 else 0.0
            rhs = float(np.sum(d[fin] - 1)) if n >= 3 else 0.0
            if not close(lhs, rhs):
                problems.append(f"{where}: sum B(v)(n-1)(n-2)={lhs} != sum (d-1)={rhs}")
            if village in oracle_set:
                want = betweenness_oracle(adj if directed else skel)
                if not all(close(a, b) for a, b in zip(btw, want)):
                    problems.append(f"{where}: betweenness differs from the path-count oracle")
    return problems


def oracle_villages(panel: Panel, count: int = 3) -> set[str]:
    """A few villages for the per-node betweenness oracle: smallest to largest."""
    ordered = sorted(panel.villages, key=lambda v: (len(panel.members[v]), v))
    picks = np.linspace(0, len(ordered) - 1, count).round().astype(int)
    return {ordered[i] for i in picks}


def check_metric_table(outdir: Path, panel: Panel, layer: str) -> list[str]:
    table = read_metrics(outdir / "metrics.csv")
    return _layer_problems(panel, table, layer, oracle_villages(panel))[:MAX_PROBLEMS]


def degree_sample(panel: Panel, village: str, wave: int) -> np.ndarray:
    adj = panel.adjacency(village, wave, "health")
    return (adj.sum(0) + adj.sum(1)).astype(float)


def group_of(alpha: float) -> str:
    return "control" if alpha == 0.0 else ("low" if alpha in LOW else "high")


def check_wasserstein(outdir: Path, panel: Panel) -> list[str]:
    problems = []
    by_group: dict[str, list[float]] = {"control": [], "low": [], "high": []}
    rows = {r[0]: r for r in read_export(outdir / "distances.csv")[1]}
    if set(rows) != set(panel.villages):
        problems.append("distances.csv does not list every village once")
    for village in panel.villages:
        want = sstats.wasserstein_distance(degree_sample(panel, village, 1),
                                           degree_sample(panel, village, 3))
        group = group_of(panel.dosage[village])
        by_group[group].append(want)
        row = rows.get(village)
        if row is None or row[1] != group or not close(num(row[2]), want):
            problems.append(f"{village}: wasserstein {row} != scipy {want}")
    welch = {r[0]: [num(x) for x in r[1:]] for r in read_export(outdir / "welch.csv")[1]}
    for arm in ("low", "high"):
        res = sstats.ttest_ind(by_group["control"], by_group[arm], equal_var=False)
        ci = res.confidence_interval(0.95)
        want = [res.statistic, res.df, res.pvalue, ci.low, ci.high]
        got = welch.get(f"control_vs_{arm}")
        if got is None or not all(close(a, b, 1e-8) for a, b in zip(got, want)):
            problems.append(f"welch control_vs_{arm}: {got} != scipy {want}")
    return problems


def check_doseresponse(outdir: Path, panel: Panel) -> list[str]:
    want = sorted((panel.dosage[v], float(degree_sample(panel, v, 3).mean()
                                          - degree_sample(panel, v, 1).mean()))
                  for v in panel.villages)
    got = [(num(x), num(y)) for x, y in read_export(outdir / "points.csv")[1]]
    if len(got) != len(want) or not all(a[0] == b[0] and close(a[1], b[1])
                                        for a, b in zip(got, want)):
        return ["points.csv differs from per-village mean degree changes"]
    fitted = [num(r[0]) for r in read_export(outdir / "doseresponse.csv")[1]]
    if fitted != sorted({d for d, _ in want}):
        return ["doseresponse.csv is not evaluated at each distinct dosage"]
    return []


# ---------------------------------------------------------------------------
# inference

SKIPPED = re.compile(r"(\d+)/(\d+) draws skipped for (\S+)")
KINDS = ("overall", "total", "spillover", "direct", "spillover_first_order",
         "spillover_higher_order")


def check_effects(outdir: Path, panel: Panel, permutations: int, stderr: str) -> list[str]:
    problems = []
    skipped = {m.group(3) for m in SKIPPED.finditer(stderr)}
    values: dict = {}
    members: dict = {}
    first_order: dict = {}
    higher_order: dict = {}
    for v in panel.villages:
        a1 = panel.adjacency(v, 1, "health")
        a3 = panel.adjacency(v, 3, "health")
        for wave, a in ((1, a1), (3, a3)):
            values[(v, wave, "in_degree")] = a.sum(0).astype(float)
            values[(v, wave, "out_degree")] = a.sum(1).astype(float)
            values[(v, wave, "degree")] = (a.sum(0) + a.sum(1)).astype(float)
        t = panel.treated[v]
        exp = exposed(a1, t)
        _, comp = csgraph.connected_components(a1 | a1.T, directed=False)
        reach = np.isin(comp, comp[t])
        first_order[v] = ~t & exp
        higher_order[v] = ~t & ~exp & reach
        members[v] = np.ones(t.size, dtype=bool)

    def mean(villages, masks, wave, metric):
        cols = [values[(v, wave, metric)][masks[v]] for v in villages]
        allv = np.concatenate(cols) if cols else np.zeros(0)
        return float(allv.mean()), int(allv.size)

    untreated = {v: ~panel.treated[v] for v in panel.villages}
    treated = dict(panel.treated)
    controls = panel.controls()
    rows = read_export(outdir / "effects.csv")[1]
    estimates = {}
    for kind, scope, layer, metric, variant, pct, raw, p, nf, nc, perms in rows:
        estimates[(kind, scope, metric)] = (num(pct), num(raw))
        label = f"{kind}/{scope}/{layer}/{metric}/{variant}"
        villages = panel.scope(scope)
        focal_masks = {"overall": members, "total": treated, "spillover": untreated,
                       "direct": treated, "spillover_first_order": first_order,
                       "spillover_higher_order": higher_order}[kind]
        comp_villages, comp_masks = ((villages, untreated) if kind == "direct"
                                     else (controls, untreated))
        f1, n_f = mean(villages, focal_masks, 1, metric)
        f3, _ = mean(villages, focal_masks, 3, metric)
        c1, n_c = mean(comp_villages, comp_masks, 1, metric)
        c3, _ = mean(comp_villages, comp_masks, 3, metric)
        ref, _ = mean(controls, members, 1, metric)
        want_raw = (f3 - f1) - (c3 - c1)
        want_pct = 100.0 * want_raw / ref
        if not (close(num(raw), want_raw) and close(num(pct), want_pct)):
            problems.append(f"{label}: raw/pct {raw}/{pct} != {want_raw}/{want_pct}")
        if (int(nf), int(nc)) != (n_f, n_c):
            problems.append(f"{label}: group sizes {nf}/{nc} != {n_f}/{n_c}")
        if int(perms) != permutations:
            problems.append(f"{label}: {perms} permutations, asked for {permutations}")
        pv = num(p)
        if not 1.0 / (permutations + 1) - 1e-12 <= pv <= 1.0:
            problems.append(f"{label}: p-value {pv} outside [1/(P+1), 1]")
        elif label not in skipped and abs(pv * (permutations + 1)
                                          - round(pv * (permutations + 1))) > 1e-6:
            problems.append(f"{label}: (P+1)p = {pv * (permutations + 1)} is not an integer")
    expected = {(k, s, m) for k in KINDS for s in ("all", "low", "high")
                for m in ("degree", "in_degree", "out_degree")}
    if set(estimates) != expected or len(rows) != len(expected):
        problems.append(f"effects.csv has {len(rows)} rows, not one per {len(expected)} contrasts")
    for (kind, scope, metric), (pct, raw) in estimates.items():
        if kind != "direct":
            continue
        total = estimates.get(("total", scope, metric))
        spill = estimates.get(("spillover", scope, metric))
        if total and spill and not (abs(raw - (total[1] - spill[1])) <= 1e-9
                                    and close(pct, total[0] - spill[0])):
            problems.append(f"direct != total - spillover for {scope}/{metric}")
    return problems[:MAX_PROBLEMS]


# ---------------------------------------------------------------------------
# dyadic

REFINEMENT = ("Uh", "U1", "To", "T1")
FINE = ("UoUo",) + tuple(a + b for a in REFINEMENT for b in REFINEMENT)
COARSE = ("UoUo", "UU", "UT", "TU", "TT")


def dyad_counts(panel: Panel, layer: str = "health"):
    """Per scheme and outcome: (trials, successes) per category name."""
    acc = {(s, o): {} for s in ("coarse", "fine")
           for o in ("dissolution", "formation", "wave3_link")}
    for v in panel.villages:
        a1 = panel.adjacency(v, 1, layer)
        a3 = panel.adjacency(v, 3, layer)
        n = a1.shape[0]
        off = ~np.eye(n, dtype=bool)
        t = panel.treated[v].astype(int)
        if panel.dosage[v] == 0.0:
            coarse = np.zeros((n, n), dtype=int)
            fine = np.zeros((n, n), dtype=int)
        else:
            coarse = 1 + 2 * t[:, None] + t[None, :]
            r = 2 * t + exposed(a1, panel.treated[v]).astype(int)
            fine = 1 + 4 * r[:, None] + r[None, :]
        for scheme, codes, names in (("coarse", coarse, COARSE), ("fine", fine, FINE)):
            for outcome, mask, y in (("dissolution", a1 & off, ~a3),
                                     ("formation", ~a1 & off, a3),
                                     ("wave3_link", off, a3)):
                trials = np.bincount(codes[mask], minlength=len(names))
                hits = np.bincount(codes[mask & y], minlength=len(names))
                table = acc[(scheme, outcome)]
                for k, name in enumerate(names):
                    old = table.get(name, (0, 0))
                    table[name] = (old[0] + int(trials[k]), old[1] + int(hits[k]))
    return acc


def closed_form(counts: dict[str, tuple[int, int]]):
    """Saturated logit on indicators: estimates, SEs, log-likelihood, trials.

    A category whose outcomes are all 0 or all 1 has no finite estimate; it
    is returned in the list of separated categories instead.
    """
    present = {c: nk for c, nk in counts.items() if nk[0] > 0}
    separated = sorted(c for c, (n, k) in present.items() if k in (0, n))

    def logit_var(c):
        n, k = present[c]
        p = k / n
        return math.log(p / (1 - p)), 1.0 / (n * p * (1 - p))

    if "UoUo" in separated:
        return {}, float("nan"), 0, separated
    ref, ref_var = logit_var("UoUo")
    coefs = {"(Intercept)": (ref, math.sqrt(ref_var))}
    for c in sorted(present):
        if c != "UoUo" and c not in separated:
            est, var = logit_var(c)
            coefs[c] = (est - ref, math.sqrt(var + ref_var))
    loglik = sum(k * math.log(k / n) + (n - k) * math.log(1 - k / n)
                 for n, k in present.values() if 0 < k < n)
    return coefs, loglik, sum(n for n, _ in present.values()), separated


META = re.compile(r"outcome=(\S+) scheme=(\S+) reference=(\S+) converged=(\S+) n=(\d+) "
                  r"loglik=(\S+)")


def check_dyadic(outdir: Path, panel: Panel) -> list[str]:
    problems = []
    counts = dyad_counts(panel)
    for outcome in ("dissolution", "formation"):
        for scheme in ("coarse", "fine"):
            name = f"{outcome}_{scheme}.csv"
            comments, rows = read_export(outdir / name)
            meta = META.search(" ".join(comments))
            if meta is None:
                problems.append(f"{name}: no fit summary line")
                continue
            coefs, loglik, n, separated = closed_form(counts[(scheme, outcome)])
            if separated:
                problems.append(f"{name}: categories {separated} are separated")
                continue
            if meta.group(4) != "True":
                problems.append(f"{name}: converged={meta.group(4)}")
            if int(meta.group(5)) != n or not close(float(meta.group(6)), loglik):
                problems.append(f"{name}: n/loglik {meta.group(5)}/{meta.group(6)} "
                                f"!= {n}/{loglik}")
            got = {r[0]: (num(r[1]), num(r[2])) for r in rows}
            if list(got) != list(coefs):
                problems.append(f"{name}: terms {list(got)} != {list(coefs)}")
            for term, (est, se) in coefs.items():
                g = got.get(term)
                if g is None or abs(g[0] - est) > 1e-8 or abs(g[1] - se) > 1e-8:
                    problems.append(f"{name}: {term} {g} != closed form {(est, se)}")
    coefs = closed_form(counts[("coarse", "wave3_link")])[0]
    contrasts = partner_contrasts(panel)
    rows = read_export(outdir / "correspondence.csv")[1]
    if [r[0] for r in rows] != list(contrasts):
        problems.append(f"correspondence terms {[r[0] for r in rows]} != {list(contrasts)}")
    for term, est, contrast, agree in rows:
        want = coefs[term][0] if term in coefs else float("nan")
        if abs(num(est) - want) > 1e-8 or not close(num(contrast), contrasts[term]):
            problems.append(f"correspondence {term}: {est}/{contrast} != "
                            f"{want}/{contrasts[term]}")
        if int(agree) != int(math.copysign(1, num(est)) == math.copysign(1, num(contrast))):
            problems.append(f"correspondence {term}: signs_agree={agree} is wrong")
    return problems[:MAX_PROBLEMS]


def partner_contrasts(panel: Panel) -> dict[str, float]:
    """Node-level wave-3 partner-rate contrasts paired with UU/UT/TU/TT."""
    rates: dict[str, list[np.ndarray]] = {}

    def add(group, key, vals):
        rates.setdefault((group, key), []).append(vals)

    for v in panel.villages:
        a = panel.adjacency(v, 3, "health").astype(float)
        t = panel.treated[v]
        n = t.size
        pot_t = t.sum() - t
        pot_u = (n - 1) - pot_t
        with np.errstate(divide="ignore", invalid="ignore"):
            r = {"in_t": np.where(pot_t > 0, a[t].sum(0) / pot_t, np.nan),
                 "in_u": np.where(pot_u > 0, a[~t].sum(0) / pot_u, np.nan),
                 "out_u": np.where(pot_u > 0, a[:, ~t].sum(1) / pot_u, np.nan)}
        if panel.dosage[v] == 0.0:
            groups = {"control": np.ones(n, dtype=bool)}
        else:
            groups = {"treated": t, "untreated": ~t}
        for group, mask in groups.items():
            for key, vals in r.items():
                add(group, key, vals[mask])

    def m(group, key):
        vals = np.concatenate(rates[(group, key)])
        return float(np.nanmean(vals))

    base = m("control", "in_u")
    return {"UU": m("untreated", "in_u") - base,
            "UT": m("treated", "in_u") - base,
            "TU": m("treated", "out_u") - m("control", "out_u"),
            "TT": m("treated", "in_t") - base}
