"""Dyad-level link evolution: category counts, logistic fits, and node-level checks.

Ordered within-village pairs are labelled by the endpoints' treatment status
(coarse: UoUo in control villages, else UU/UT/TU/TT) and, in treated villages,
by a finer wave-1 exposure refinement (Uh/U1/To/T1: untreated/treated with or
without a treated wave-1 neighbor, the study's one exposure rule
`core.has_treated_neighbor`). Treatment status and village membership come
from the panel's study-wide index (`core.StudyIndex`), under the observed
assignment. Category indicators are the only covariates, so a sample is kept
as counts: per fine category, the number of pairs in each (wave-1 link,
wave-3 link) state, taken per village straight from the cached adjacency
matrices without one row per dyad. The same village loop writes the exported
pairs one text block per village. Dissolution and formation are modelled by
saturated logistic regressions on category indicators, fitted to these grouped
binomial counts in closed form (Agresti, Categorical Data Analysis); the
log-likelihood's score and Hessian are kept to check fits against. A term that
a completely separated category enters is NaN, which exports write as NA.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import OUTCOMES, SCHEMES, StudyPanel, has_treated_neighbor  # noqa: F401 (re-export)

log = logging.getLogger(__name__)

COARSE_CATEGORIES = ("UoUo", "UU", "UT", "TU", "TT")
REFINEMENT_LABELS = ("Uh", "U1", "To", "T1")
FINE_CATEGORIES = ("UoUo",) + tuple(a + b for a in REFINEMENT_LABELS for b in REFINEMENT_LABELS)

# Fine code 1 + 4*r_ego + r_alter -> coarse code 1 + 2*treated_ego + treated_alter;
# refinement codes 2 and 3 (To, T1) are the treated ones.
_FINE_TO_COARSE = np.array([0] + [1 + 2 * (a // 2) + b // 2
                                  for a in range(4) for b in range(4)])
# The coarse category name of each fine category, in FINE_CATEGORIES order.
COARSE_OF_FINE = tuple(COARSE_CATEGORIES[c] for c in _FINE_TO_COARSE)
# A pair's link state is 2*link_w1 + link_w3. Per outcome: the states that are
# trials and the states that are successes.
_OUTCOME_STATES = {
    "dissolution": ((2, 3), (2,)),
    "formation": ((0, 1), (1,)),
    "wave3_link": ((0, 1, 2, 3), (1, 3)),
}


# Reference category of the fits.
REFERENCE = "UoUo"


class DyadicError(ValueError):
    """Invalid dyadic-analysis request."""


def refinement_codes(src: np.ndarray, dst: np.ndarray, treated: np.ndarray) -> np.ndarray:
    """Wave-1 refinement code per node: 2*treated + exposed, indexing REFINEMENT_LABELS.

    ``src``/``dst`` are the wave-1 edges; a node is exposed when a treated
    node is its neighbor in either direction (`core.has_treated_neighbor`).
    """
    return (2 * treated + has_treated_neighbor(src, dst, treated)).astype(np.int8)


def _villages(panel: StudyPanel, layer: str) -> Iterator[tuple]:
    """Per village: id, members, wave-1 and wave-3 adjacency, treated flags, refinement codes.

    The one village loop of everything taken from pairs. The codes are None in
    a control village, where every pair is UoUo. All follow the members' order.
    """
    index = panel.index
    dosages, treated = index.observed
    for k, village in enumerate(index.villages):
        net1 = panel.network(village, 1, layer)
        a3 = panel.network(village, 3, layer).adjacency
        flags = treated[index.members[k]]
        codes = None if dosages[k] == 0.0 else refinement_codes(net1.src, net1.dst, flags)
        yield village, net1.nodes, net1.adjacency, a3, flags, codes


@dataclass
class DyadDataset:
    """Dyad counts for one layer.

    ``counts[f, s]`` is the number of ordered within-village pairs of fine
    category ``FINE_CATEGORIES[f]`` in link state ``s = 2*link_w1 + link_w3``.
    Its length is the number of dyads.
    """

    layer: str
    counts: np.ndarray

    def __len__(self) -> int:
        return int(self.counts.sum())

    def tallies(self, scheme: str) -> tuple[tuple[str, ...], np.ndarray]:
        """Category names and their (category x link state) counts."""
        if scheme == "fine":
            return FINE_CATEGORIES, self.counts
        if scheme == "coarse":
            coarse = np.zeros((len(COARSE_CATEGORIES), 4), dtype=np.int64)
            np.add.at(coarse, _FINE_TO_COARSE, self.counts)
            return COARSE_CATEGORIES, coarse
        raise DyadicError(f"unknown category scheme {scheme}")


def dyad_dataset(panel: StudyPanel, layer: str, sample: str = "all") -> DyadDataset:
    """Counts of all ordered within-village dyads, by fine category and link state.

    Per village and link state with off-diagonal mask M, the refinement
    one-hot matrix R (n x 4) gives the 4 x 4 fine-category counts as R'MR.
    ``sample`` must be "all": each outcome picks its link states from the counts.
    """
    if sample != "all":
        raise DyadicError(f"unknown dyad sample {sample}")
    counts = np.zeros((len(FINE_CATEGORIES), 4), dtype=np.int64)
    for _, _, a1, a3, _, codes in _villages(panel, layer):
        state = 2 * a1.astype(np.int8) + a3
        np.fill_diagonal(state, -1)
        onehot = None if codes is None else np.eye(4)[codes]
        for s in range(4):
            mask = state == s
            if onehot is None:
                counts[0, s] += np.count_nonzero(mask)
            else:
                counts[1:, s] += (onehot.T @ (mask @ onehot)).astype(np.int64).reshape(16)
    return DyadDataset(layer=layer, counts=counts)


DYAD_COLUMNS = "village,ego,alter,coarse,fine,link_w1,link_w3"
# A dyads.csv line's tail "coarse,fine,link_w1,link_w3\n", at 4*fine code + link state.
_DYAD_TAILS = np.array([f"{COARSE_OF_FINE[f]},{FINE_CATEGORIES[f]},{s >> 1},{s & 1}\n"
                        for f in range(len(FINE_CATEGORIES)) for s in range(4)], dtype=object)


def dyad_blocks(panel: StudyPanel, layer: str) -> Iterator[str]:
    """The DYAD_COLUMNS lines of every ordered within-village pair, one block per village.

    Villages in panel order, pairs row by row in member order; a village of
    fewer than two members yields no block. A line joins its ego's "village,ego,",
    its alter's "alter," and its tail, gathered per village in one object array.
    """
    for village, members, a1, a3, _, codes in _villages(panel, layer):
        ii, jj = np.nonzero(~np.eye(len(members), dtype=bool))
        if ii.size:
            fine = 0 if codes is None else 1 + 4 * codes[ii] + codes[jj]
            parts = np.empty((ii.size, 3), dtype=object)
            parts[:, 0] = np.array([f"{village},{m}," for m in members], dtype=object)[ii]
            parts[:, 1] = np.array([f"{m}," for m in members], dtype=object)[jj]
            parts[:, 2] = _DYAD_TAILS[4 * fine + 2 * a1[ii, jj] + a3[ii, jj]]
            yield "".join(parts.ravel().tolist())[:-1]


# ---------------------------------------------------------------------------
# Saturated logistic regression on category indicators, in closed form.

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


def logistic_score(X: np.ndarray, y: np.ndarray, beta: np.ndarray,
                   trials: np.ndarray | float = 1.0) -> np.ndarray:
    """Gradient of the log-likelihood: X'(y - t*p)."""
    p = _sigmoid(X @ beta)
    return X.T @ (y - trials * p)


def logistic_hessian(X: np.ndarray, y: np.ndarray, beta: np.ndarray,
                     trials: np.ndarray | float = 1.0) -> np.ndarray:
    """Hessian of the log-likelihood: -X'WX with W = t*p(1-p)."""
    p = _sigmoid(X @ beta)
    w = trials * p * (1.0 - p)
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
    outcome: str = "dissolution",
    scheme: str = "coarse",
    trials: np.ndarray | None = None,
) -> LogisticFit:
    """Intercept + one indicator per non-``REFERENCE`` category, fitted in closed form.

    Row i holds ``y[i]`` successes in ``trials[i]`` Bernoulli draws (default
    1, one row per observation). Rows are summed per category first, so
    per-category counts and one row per dyad take the same path to the same fit.
    The model is saturated: the intercept is the reference category's sample
    logit log(y / (t - y)), each other term its own logit minus the reference's,
    with variance 1/y + 1/(t - y) per category (the reference's added to every
    other term's).

    Complete separation (a category whose outcomes are all 0 or all 1) has no
    finite MLE: it is reported as non-convergence naming the category, and
    every term the category enters (all of them, for the reference) is NaN.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise DyadicError("no observations to fit")
    categories, rows = np.unique(labels, return_inverse=True)
    present = categories.tolist()
    y = np.bincount(rows, weights=np.asarray(y, dtype=float), minlength=len(present))
    t = np.bincount(rows, weights=None if trials is None else np.asarray(trials, dtype=float),
                    minlength=len(present)).astype(float)
    dropped = tuple(c for c in COARSE_CATEGORIES if c not in present) if scheme == "coarse" else ()
    if dropped:
        log.warning("categories %s have no observations and are dropped", list(dropped))
    reference = REFERENCE
    if reference not in present:
        reference = present[0]
        log.warning("reference category %s absent from the data; using %s",
                    REFERENCE, reference)
    others = [c for c in present if c != reference]

    failures = t - y
    split = (y > 0) & (failures > 0)
    separated = [c for c, ok in zip(present, split) if not ok]
    if separated:
        log.warning("complete separation in categories %s; fit flagged as "
                    "non-convergent", separated)
    with np.errstate(divide="ignore", invalid="ignore"):
        logit = np.where(split, np.log(y / failures), np.nan)
        var = np.where(split, 1.0 / y + 1.0 / failures, np.nan)
        # Category rates of 0 or 1 add nothing (0 log 0 = 0).
        log_likelihood = float(sum(np.sum(k * np.log(k / t), where=k > 0) for k in (y, failures)))
    ref = present.index(reference)
    rest = [present.index(c) for c in others]
    beta = np.concatenate(([logit[ref]], logit[rest] - logit[ref])).tolist()
    se = np.sqrt(np.concatenate(([var[ref]], var[rest] + var[ref]))).tolist()
    # A separated term has est = s = NaN, and so z = p = NaN.
    coefficients = {term: CoefficientEstimate(est, s, est / s, _normal_two_sided_p(est / s))
                    for term, est, s in zip(["(Intercept)"] + others, beta, se)}
    return LogisticFit(outcome=outcome, scheme=scheme, reference=reference,
                       coefficients=coefficients, converged=not separated, iterations=0,
                       log_likelihood=log_likelihood, n_observations=int(t.sum()),
                       separated=tuple(separated), dropped=dropped)


def fit_logistic_irls(
    data: DyadDataset,
    outcome: str,
    category_scheme: str = "coarse",
) -> LogisticFit:
    """Dissolution/formation/wave-3-presence regression on dyad categories.

    dissolution: among wave-1 links, 1 when the link is gone by wave 3.
    formation: among wave-1 non-links, 1 when a link exists at wave 3.
    wave3_link: all dyads, 1 when a link exists at wave 3 (unconditional).

    The fit takes one grouped row per category present: its successes in its trials.
    """
    if outcome not in OUTCOMES:
        raise DyadicError(f"unknown outcome {outcome}")
    names, counts = data.tallies(category_scheme)
    trial_states, success_states = _OUTCOME_STATES[outcome]
    trials = counts[:, trial_states].sum(axis=1)
    successes = counts[:, success_states].sum(axis=1)
    present = trials > 0
    if not present.any():
        raise DyadicError(f"no observations left after the {outcome} restriction")
    return fit_categorical_logistic(np.asarray(names)[present], successes[present],
                                    outcome=outcome, scheme=category_scheme,
                                    trials=trials[present])


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


def _partner_rates(panel: StudyPanel,
                   layer: str) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Per node, in panel order: wave-3 link rates to/from treated and untreated partners.

    Rates divide realized links (column and row sums of the adjacency over
    the partners' treated/untreated masks) by the number of possible partners
    of that status, making groups with different village sizes comparable;
    a rate with no possible partner is NaN. Also returns the nodes' treated
    and in-control-village masks under the observed assignment.
    """
    parts = {key: [] for key in ("in_from_treated", "in_from_untreated", "out_to_untreated")}
    treated_parts, control_parts = [], []
    for _, _, _, mat, treated, codes in _villages(panel, layer):
        n = treated.size
        pot_t = treated.sum() - treated.astype(float)
        pot_u = (n - 1) - pot_t
        for key, links, pot in (("in_from_treated", mat[treated].sum(axis=0), pot_t),
                                ("in_from_untreated", mat[~treated].sum(axis=0), pot_u),
                                ("out_to_untreated", mat[:, ~treated].sum(axis=1), pot_u)):
            parts[key].append(np.divide(links, pot, out=np.full(n, np.nan), where=pot > 0))
        treated_parts.append(treated)
        control_parts.append(np.full(n, codes is None))
    rates = {key: np.concatenate(vals) for key, vals in parts.items()}
    return rates, np.concatenate(treated_parts), np.concatenate(control_parts)


def estimand_correspondence(
    panel: StudyPanel,
    layer: str,
    data: DyadDataset | None = None,
) -> tuple[list[CorrespondenceRow], LogisticFit]:
    """Check the dyadic coefficients against their node-level counterparts.

    An unconditional wave-3 link regression on coarse categories provides the
    dyadic side; the node side compares wave-3 partner-status link rates:
    UU vs the spillover contrast on in-links from untreated, UT/TU vs the
    total-effect contrasts on in-links from / out-links to untreated, and TT
    vs treated in-links from treated against the control baseline. A node
    contrast with a group that has no defined rate is NaN (written NA), with a
    warning naming the term. ``data`` may pass in the layer's already built
    dyad dataset, so it is not built twice.
    """
    if data is None:
        data = dyad_dataset(panel, layer)
    elif data.layer != layer:
        raise DyadicError(f"correspondence needs the dyad dataset of layer {layer}, "
                          f"not of layer {data.layer}")
    fit = fit_logistic_irls(data, "wave3_link", "coarse")
    rates, treated, control = _partner_rates(panel, layer)
    untreated_in_treated = ~treated & ~control
    treated = treated & ~control

    def rate(group: np.ndarray, key: str) -> float:
        vals = rates[key][group & ~np.isnan(rates[key])]
        return float(np.mean(vals)) if vals.size else float("nan")

    baseline = rate(control, "in_from_untreated")
    pairings = [
        ("UU", rate(untreated_in_treated, "in_from_untreated") - baseline,
         "untreated-in-treated in-rate from untreated", "control in-rate from untreated"),
        ("UT", rate(treated, "in_from_untreated") - baseline,
         "treated in-rate from untreated", "control in-rate from untreated"),
        ("TU", rate(treated, "out_to_untreated") - rate(control, "out_to_untreated"),
         "treated out-rate to untreated", "control out-rate to untreated"),
        ("TT", rate(treated, "in_from_treated") - baseline,
         "treated in-rate from treated", "control in-rate from untreated"),
    ]
    rows = []
    for term, contrast, focal_desc, comp_desc in pairings:
        if contrast != contrast:
            log.warning("correspondence %s: %s or %s has no defined value; node contrast is NA",
                        term, focal_desc, comp_desc)
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
