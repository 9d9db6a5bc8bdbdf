"""Per-pair string-id oracle for the dyad categories and their counts.

One Python loop over every ordered within-village pair, labelling each from
string ids and the ``network_oracle`` edge and neighbour lookups: the
plainest reading of the category rules, kept to check the array-level counts
and the streamed dyad rows of ``villagenet.dyadic`` against. Also the logistic
negative log-likelihood that the closed-form fits are checked against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from villagenet.core import StudyPanel
from villagenet.dyadic import DyadicError

from draw_oracle import Assignment, members, observed_assignment
from network_oracle import has_edge, undirected_neighbors


@dataclass(frozen=True)
class OracleDyad:
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
        neighbors = undirected_neighbors(net)
        for node in net.nodes:
            treated = node in asg.treated
            exposed = any(nb in asg.treated for nb in neighbors[node])
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


def enumerate_dyads(
    panel: StudyPanel,
    layer: str,
    sample: str = "all",
    variant_flags: Sequence[str] = (),
    assignment: Assignment | None = None,
) -> list[OracleDyad]:
    """Every ordered within-village pair in the sample, villages in panel order,
    pairs row by row in member order."""
    refinement = node_refinement(panel, layer, assignment, variant_flags)
    out = []
    for village in panel.villages:
        net1 = panel.network(village, 1, layer, variant_flags)
        net3 = panel.network(village, 3, layer, variant_flags)
        for ego in members(panel, village):
            for alter in members(panel, village):
                if ego == alter:
                    continue
                w1 = has_edge(net1, ego, alter)
                if (sample == "existing_w1" and not w1) or (sample == "nonexisting_w1" and w1):
                    continue
                coarse, fine = categorize_dyad(ego, alter, panel, refinement, assignment)
                out.append(OracleDyad(village, ego, alter, w1, has_edge(net3, ego, alter),
                                      coarse, fine))
    return out


OUTCOME_RULES = {
    # outcome: (is the pair a trial, is it a success)
    "dissolution": (lambda d: d.link_w1, lambda d: not d.link_w3),
    "formation": (lambda d: not d.link_w1, lambda d: d.link_w3),
    "wave3_link": (lambda d: True, lambda d: d.link_w3),
}


def state_counts(dyads: Sequence[OracleDyad], scheme: str) -> Counter:
    """Pairs per (category, link state 2*link_w1 + link_w3)."""
    return Counter((d.coarse if scheme == "coarse" else d.fine,
                    2 * d.link_w1 + d.link_w3) for d in dyads)


def outcome_rows(dyads: Sequence[OracleDyad], scheme: str,
                 outcome: str) -> tuple[list[str], list[float]]:
    """One (label, 0/1 outcome) row per pair in the outcome's risk set."""
    is_trial, is_success = OUTCOME_RULES[outcome]
    kept = [d for d in dyads if is_trial(d)]
    labels = [d.coarse if scheme == "coarse" else d.fine for d in kept]
    return labels, [float(is_success(d)) for d in kept]


def logistic_nll(X: np.ndarray, y: np.ndarray, beta: np.ndarray,
                 trials: np.ndarray | float = 1.0) -> float:
    """Negative log-likelihood of y successes in ``trials`` Bernoulli draws per row."""
    eta = X @ beta
    # t*log(1 + exp(eta)) - y*eta, computed stably
    return float(np.sum(trials * np.logaddexp(0.0, eta) - y * eta))
