"""Dyad-level link evolution: categories, logistic fits, and node-level checks.

Ordered within-village pairs are labelled by the endpoints' treatment status
(coarse: UoUo in control villages, else UU/UT/TU/TT) and, in treated villages,
by a finer wave-1 exposure refinement (Uh/U1/To/T1: untreated/treated with or
without a treated wave-1 neighbor). Dissolution and formation are modelled by
logistic regressions on category indicators, fitted by Newton/IRLS with exact
score and observed-information formulas so the optimizer can be audited.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import StudyPanel
from .effects import Assignment, observed_assignment

log = logging.getLogger(__name__)

COARSE_CATEGORIES = ("UoUo", "UU", "UT", "TU", "TT")
REFINEMENT_LABELS = ("Uh", "U1", "To", "T1")
OUTCOMES = ("dissolution", "formation", "wave3_link")
SCHEMES = ("coarse", "fine")
SAMPLES = ("existing_w1", "nonexisting_w1", "all")


class DyadicError(ValueError):
    """Invalid dyadic-analysis request."""


@dataclass(frozen=True)
class DyadObservation:
    village_id: str
    ego: str
    alter: str
    link_w1: bool
    link_w3: bool
    coarse: str
    fine: str


def node_refinement(
    panel: StudyPanel,
    layer: str,
    assignment: Assignment | None = None,
    variant_flags: Sequence[str] = (),
) -> dict[str, str]:
    """Wave-1 exposure labels: U1/T1 have a treated neighbor, Uh/To do not."""
    asg = assignment if assignment is not None else observed_assignment(panel)
    labels: dict[str, str] = {}
    for village in panel.villages:
        net = panel.network(village, 1, layer, variant_flags)
        for node in net.nodes:
            treated = node in asg.treated
            exposed = any(nb in asg.treated for nb in net.undirected_neighbors[node])
            if treated:
                labels[node] = "T1" if exposed else "To"
            else:
                labels[node] = "U1" if exposed else "Uh"
    return labels


def categorize_dyad(
    ego: str,
    alter: str,
    panel: StudyPanel,
    refinement: Mapping[str, str],
    assignment: Assignment | None = None,
) -> tuple[str, str]:
    """Coarse and fine category of an ordered within-village pair."""
    asg = assignment if assignment is not None else observed_assignment(panel)
    v_ego = panel.individuals[ego].village_id
    v_alter = panel.individuals[alter].village_id
    if v_ego != v_alter:
        raise DyadicError(f"dyad ({ego}, {alter}) spans villages {v_ego} and {v_alter}")
    if asg.village_dosages[v_ego] == 0.0:
        return "UoUo", "UoUo"
    coarse = ("T" if ego in asg.treated else "U") + ("T" if alter in asg.treated else "U")
    return coarse, refinement[ego] + refinement[alter]


@dataclass
class DyadDataset:
    """Vectorized dyad sample for one layer: category codes plus link states.

    ``categories`` indexes into ``category_names``; ego/alter index into the
    per-village member tuples so full observations can be materialized on
    demand without holding one object per dyad.
    """

    layer: str
    sample: str
    category_names: tuple[str, ...]
    categories: np.ndarray
    fine_names: tuple[str, ...]
    fine_categories: np.ndarray
    link_w1: np.ndarray
    link_w3: np.ndarray
    village_ids: tuple[str, ...]
    village_index: np.ndarray
    ego_index: np.ndarray
    alter_index: np.ndarray
    members: tuple[tuple[str, ...], ...]

    def __len__(self) -> int:
        return int(self.categories.size)

    def labels(self, scheme: str) -> tuple[np.ndarray, tuple[str, ...]]:
        if scheme == "coarse":
            return self.categories, self.category_names
        if scheme == "fine":
            return self.fine_categories, self.fine_names
        raise DyadicError(f"unknown category scheme {scheme}")

    def observations(self) -> list[DyadObservation]:
        out = []
        for k in range(len(self)):
            vi = int(self.village_index[k])
            members = self.members[vi]
            out.append(DyadObservation(
                village_id=self.village_ids[vi],
                ego=members[int(self.ego_index[k])],
                alter=members[int(self.alter_index[k])],
                link_w1=bool(self.link_w1[k]),
                link_w3=bool(self.link_w3[k]),
                coarse=self.category_names[int(self.categories[k])],
                fine=self.fine_names[int(self.fine_categories[k])],
            ))
        return out


def dyad_dataset(
    panel: StudyPanel,
    layer: str,
    sample: str = "all",
    variant_flags: Sequence[str] = (),
    assignment: Assignment | None = None,
) -> DyadDataset:
    """All ordered within-village dyads matching the sample filter."""
    if sample not in SAMPLES:
        raise DyadicError(f"unknown dyad sample {sample}")
    asg = assignment if assignment is not None else observed_assignment(panel)
    refinement = node_refinement(panel, layer, asg, variant_flags)

    coarse_names = list(COARSE_CATEGORIES)
    coarse_code = {name: i for i, name in enumerate(coarse_names)}
    fine_names = ["UoUo"] + [a + b for a in REFINEMENT_LABELS for b in REFINEMENT_LABELS]
    fine_code = {name: i for i, name in enumerate(fine_names)}
    ref_code = {"Uh": 0, "U1": 1, "To": 2, "T1": 3}

    cats, fines, w1s, w3s, vidx, egos, alters = [], [], [], [], [], [], []
    village_ids = panel.villages
    members_by_village = tuple(panel.members(v) for v in village_ids)
    for vi, village in enumerate(village_ids):
        members = members_by_village[vi]
        n = len(members)
        if n < 2:
            continue
        # Network nodes are the village's members in the same sorted order.
        a1 = panel.network(village, 1, layer, variant_flags).adjacency
        a3 = panel.network(village, 3, layer, variant_flags).adjacency
        off = ~np.eye(n, dtype=bool)
        if sample == "existing_w1":
            keep = a1 & off
        elif sample == "nonexisting_w1":
            keep = ~a1 & off
        else:
            keep = off
        ii, jj = np.nonzero(keep)
        if ii.size == 0:
            continue
        if asg.village_dosages[village] == 0.0:
            cat = np.zeros(ii.size, dtype=np.int8)
            fine = np.zeros(ii.size, dtype=np.int8)
        else:
            treated = np.array([m in asg.treated for m in members])
            pair = treated[ii].astype(np.int8) * 2 + treated[jj].astype(np.int8)
            # (ego, alter) -> UU, UT, TU, TT; offset 1 past UoUo
            cat = np.array([coarse_code["UU"], coarse_code["UT"],
                            coarse_code["TU"], coarse_code["TT"]], dtype=np.int8)[pair]
            rcode = np.array([ref_code[refinement[m]] for m in members], dtype=np.int8)
            fine = (rcode[ii] * 4 + rcode[jj] + 1).astype(np.int8)
        cats.append(cat)
        fines.append(fine)
        w1s.append(a1[ii, jj])
        w3s.append(a3[ii, jj])
        vidx.append(np.full(ii.size, vi, dtype=np.int32))
        egos.append(ii.astype(np.int32))
        alters.append(jj.astype(np.int32))

    empty_i8 = np.zeros(0, dtype=np.int8)
    empty_b = np.zeros(0, dtype=bool)
    empty_i32 = np.zeros(0, dtype=np.int32)
    return DyadDataset(
        layer=layer,
        sample=sample,
        category_names=tuple(coarse_names),
        categories=np.concatenate(cats) if cats else empty_i8,
        fine_names=tuple(fine_names),
        fine_categories=np.concatenate(fines) if fines else empty_i8,
        link_w1=np.concatenate(w1s) if w1s else empty_b,
        link_w3=np.concatenate(w3s) if w3s else empty_b,
        village_ids=village_ids,
        village_index=np.concatenate(vidx) if vidx else empty_i32,
        ego_index=np.concatenate(egos) if egos else empty_i32,
        alter_index=np.concatenate(alters) if alters else empty_i32,
        members=members_by_village,
    )


def enumerate_dyads(
    panel: StudyPanel,
    layer: str,
    sample: str = "all",
    variant_flags: Sequence[str] = (),
    assignment: Assignment | None = None,
) -> list[DyadObservation]:
    """Materialized dyad observations (prefer dyad_dataset for large panels)."""
    return dyad_dataset(panel, layer, sample, variant_flags, assignment).observations()


# ---------------------------------------------------------------------------
# Logistic regression by Newton/IRLS.

@dataclass(frozen=True)
class CoefficientEstimate:
    estimate: float
    std_error: float
    z: float
    p: float


@dataclass
class LogisticFit:
    outcome: str
    scheme: str
    reference: str
    coefficients: dict[str, CoefficientEstimate]
    converged: bool
    iterations: int
    log_likelihood: float
    n_observations: int
    separated: tuple[str, ...] = ()
    dropped: tuple[str, ...] = ()


def logistic_nll(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    eta = X @ beta
    # log(1 + exp(eta)) - y*eta, computed stably
    return float(np.sum(np.logaddexp(0.0, eta) - y * eta))


def logistic_score(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Gradient of the log-likelihood: X'(y - p)."""
    p = _sigmoid(X @ beta)
    return X.T @ (y - p)


def logistic_hessian(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Hessian of the log-likelihood: -X'WX with W = p(1-p)."""
    p = _sigmoid(X @ beta)
    w = p * (1.0 - p)
    return -(X.T @ (X * w[:, None]))


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _normal_two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def fit_categorical_logistic(
    labels: Sequence[str] | np.ndarray,
    y: np.ndarray,
    reference: str = "UoUo",
    outcome: str = "dissolution",
    scheme: str = "coarse",
    max_iter: int = 50,
    tol: float = 1e-8,
) -> LogisticFit:
    """Intercept + one indicator per non-reference category, Newton-fitted.

    Complete separation (a category whose outcomes are all 0 or all 1) is
    reported as non-convergence naming the category; estimates for the
    remaining terms are still returned for inspection.
    """
    labels = np.asarray(labels)
    y = np.asarray(y, dtype=float)
    if labels.size == 0:
        raise DyadicError("no observations to fit")
    present = sorted(set(labels.tolist()))
    expected = COARSE_CATEGORIES if scheme == "coarse" else None
    dropped: tuple[str, ...] = ()
    if expected is not None:
        dropped = tuple(c for c in expected if c not in present)
        if dropped:
            log.warning("categories %s have no observations and are dropped",
                        list(dropped))
    if reference not in present:
        fallback = present[0]
        log.warning("reference category %s absent from the data; using %s",
                    reference, fallback)
        reference = fallback
    others = [c for c in present if c != reference]

    separated = []
    for cat in present:
        rates = y[labels == cat]
        if rates.size and (rates.max() == 0.0 or rates.min() == 1.0):
            separated.append(cat)
    if separated:
        log.warning("complete separation in categories %s; fit flagged as "
                    "non-convergent", separated)

    n = labels.size
    X = np.ones((n, 1 + len(others)))
    for k, cat in enumerate(others):
        X[:, 1 + k] = (labels == cat).astype(float)

    beta = np.zeros(X.shape[1])
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        score = logistic_score(X, y, beta)
        if np.max(np.abs(score)) < tol:
            converged = True
            iterations -= 1
            break
        info = -logistic_hessian(X, y, beta)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(info, score, rcond=None)[0]
        # Step-halving keeps Newton monotone on badly scaled starts.
        nll = logistic_nll(X, y, beta)
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            if logistic_nll(X, y, candidate) <= nll + 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step

    info = -logistic_hessian(X, y, beta)
    try:
        cov = np.linalg.inv(info)
        se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        se = np.full(beta.size, float("nan"))

    terms = ["(Intercept)"] + others
    coefficients = {}
    for k, term in enumerate(terms):
        est = float(beta[k])
        s = float(se[k])
        z = est / s if s > 0 else float("nan")
        coefficients[term] = CoefficientEstimate(
            estimate=est, std_error=s, z=z,
            p=_normal_two_sided_p(z) if math.isfinite(z) else float("nan"),
        )
    return LogisticFit(
        outcome=outcome,
        scheme=scheme,
        reference=reference,
        coefficients=coefficients,
        converged=converged and not separated,
        iterations=iterations,
        log_likelihood=-logistic_nll(X, y, beta),
        n_observations=int(n),
        separated=tuple(separated),
        dropped=dropped,
    )


def fit_logistic_irls(
    observations: "DyadDataset | Sequence[DyadObservation]",
    outcome: str,
    category_scheme: str = "coarse",
) -> LogisticFit:
    """Dissolution/formation/wave-3-presence regression on dyad categories.

    dissolution: among wave-1 links, 1 when the link is gone by wave 3.
    formation: among wave-1 non-links, 1 when a link exists at wave 3.
    wave3_link: all dyads, 1 when a link exists at wave 3 (unconditional).
    """
    if outcome not in OUTCOMES:
        raise DyadicError(f"unknown outcome {outcome}")
    if category_scheme not in SCHEMES:
        raise DyadicError(f"unknown category scheme {category_scheme}")
    if isinstance(observations, DyadDataset):
        codes, names = observations.labels(category_scheme)
        labels = np.asarray(names, dtype=object)[codes]
        w1 = observations.link_w1
        w3 = observations.link_w3
    else:
        key = "coarse" if category_scheme == "coarse" else "fine"
        labels = np.array([getattr(o, key) for o in observations], dtype=object)
        w1 = np.array([o.link_w1 for o in observations], dtype=bool)
        w3 = np.array([o.link_w3 for o in observations], dtype=bool)

    if outcome == "dissolution":
        mask = w1
        y = (~w3[mask]).astype(float)
    elif outcome == "formation":
        mask = ~w1
        y = w3[mask].astype(float)
    else:
        mask = np.ones(labels.size, dtype=bool)
        y = w3.astype(float)
    if not mask.any():
        raise DyadicError(f"no observations left after the {outcome} restriction")
    return fit_categorical_logistic(labels[mask], y, outcome=outcome,
                                    scheme=category_scheme)


def odds_ratio_summary(fit: LogisticFit) -> dict[str, tuple[float, float]]:
    """Per term: exp(estimate) and the implied percent change in the odds."""
    out = {}
    for term, coef in fit.coefficients.items():
        odds = math.exp(coef.estimate)
        out[term] = (odds, 100.0 * (odds - 1.0))
    return out


# ---------------------------------------------------------------------------
# Dyadic vs node-level estimand correspondence.

@dataclass(frozen=True)
class CorrespondenceRow:
    term: str
    dyadic_estimate: float
    node_contrast: float
    focal_quantity: str
    comparison_quantity: str
    signs_agree: bool


def _partner_rates(panel: StudyPanel, layer: str, wave: int,
                   asg: Assignment) -> dict[str, dict[str, float | None]]:
    """Per node: wave-3 link rate to/from treated and untreated partners.

    Rates divide realized links by the number of possible partners of that
    status, making groups with different village sizes comparable.
    """
    rates: dict[str, dict[str, float | None]] = {}
    for village in panel.villages:
        net = panel.network(village, wave, layer)
        mat = net.adjacency
        n = net.n
        treated = np.array([m in asg.treated for m in net.nodes], dtype=float)
        untreated = 1.0 - treated
        pot_t = int(treated.sum()) - treated
        pot_u = (n - 1) - pot_t
        in_t, in_u = treated @ mat, untreated @ mat
        out_t, out_u = mat @ treated, mat @ untreated
        for i, node in enumerate(net.nodes):
            t, u = pot_t[i], pot_u[i]
            rates[node] = {
                "in_from_treated": in_t[i] / t if t > 0 else None,
                "in_from_untreated": in_u[i] / u if u > 0 else None,
                "out_to_treated": out_t[i] / t if t > 0 else None,
                "out_to_untreated": out_u[i] / u if u > 0 else None,
            }
    return rates


def _group_rate(rates, ids, key) -> float:
    vals = [rates[i][key] for i in ids if rates[i][key] is not None]
    if not vals:
        raise DyadicError(f"no defined {key} rates in a correspondence group")
    return float(np.mean(vals))


def estimand_correspondence(
    panel: StudyPanel,
    layer: str,
    assignment: Assignment | None = None,
    data: DyadDataset | None = None,
) -> tuple[list[CorrespondenceRow], LogisticFit]:
    """Check the dyadic coefficients against their node-level counterparts.

    An unconditional wave-3 link regression on coarse categories provides the
    dyadic side; the node side compares wave-3 partner-status link rates:
    UU vs the spillover contrast on in-links from untreated, UT/TU vs the
    total-effect contrasts on in-links from / out-links to untreated, and TT
    vs treated in-links from treated against the control baseline. ``data``
    may pass in the layer's already built "all" dyad sample for the same
    assignment, so it is not built twice.
    """
    asg = assignment if assignment is not None else observed_assignment(panel)
    if data is None:
        data = dyad_dataset(panel, layer, sample="all", assignment=asg)
    elif data.layer != layer or data.sample != "all":
        raise DyadicError(f"correspondence needs the 'all' dyad sample of layer {layer}, "
                          f"not the '{data.sample}' sample of layer {data.layer}")
    fit = fit_categorical_logistic(*_coarse_labels_and_w3(data),
                                   outcome="wave3_link", scheme="coarse")
    rates = _partner_rates(panel, layer, 3, asg)

    treated_villages = asg.scope_villages("all")
    controls = asg.control_villages()
    treated_ids = [i for v in treated_villages for i in panel.members(v)
                   if i in asg.treated]
    untreated_in_treated = [i for v in treated_villages for i in panel.members(v)
                            if i not in asg.treated]
    control_ids = [i for v in controls for i in panel.members(v)]

    baseline = _group_rate(rates, control_ids, "in_from_untreated")
    pairings = [
        ("UU", _group_rate(rates, untreated_in_treated, "in_from_untreated") - baseline,
         "untreated-in-treated in-rate from untreated", "control in-rate from untreated"),
        ("UT", _group_rate(rates, treated_ids, "in_from_untreated") - baseline,
         "treated in-rate from untreated", "control in-rate from untreated"),
        ("TU", _group_rate(rates, treated_ids, "out_to_untreated")
         - _group_rate(rates, control_ids, "out_to_untreated"),
         "treated out-rate to untreated", "control out-rate to untreated"),
        ("TT", _group_rate(rates, treated_ids, "in_from_treated") - baseline,
         "treated in-rate from treated", "control in-rate from untreated"),
    ]
    rows = []
    for term, contrast, focal_desc, comp_desc in pairings:
        coef = fit.coefficients.get(term)
        est = coef.estimate if coef is not None else float("nan")
        rows.append(CorrespondenceRow(
            term=term,
            dyadic_estimate=est,
            node_contrast=contrast,
            focal_quantity=focal_desc,
            comparison_quantity=comp_desc,
            signs_agree=bool(math.copysign(1, est) == math.copysign(1, contrast))
            if est == est and contrast == contrast else False,
        ))
    return rows, fit


def _coarse_labels_and_w3(data: DyadDataset) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(data.category_names, dtype=object)[data.categories]
    return labels, data.link_w3.astype(float)
