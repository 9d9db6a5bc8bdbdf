"""Reference per-draw path over string ids, kept as the oracle for the kernel.

One draw is a household-level dict re-randomization, expanded to a set of
treated individual ids; groups are classified by set lookups and a
multi-source BFS per village, and the DiD is computed by `did_statistic` from
the groups' id lists (one `MetricTable.group_mean` per group and wave).
`villagenet` evaluates the same draws with integer masks
(`effects.ContrastKernel`, `randomization.permute_assignment`); the tests
require both to agree draw by draw.
"""

from __future__ import annotations

import numpy as np

from villagenet.core import StudyPanel, TreatmentDesign, dosage_group, treated_household_count
from villagenet.effects import (
    DOSAGE_SCOPES,
    SCALINGS,
    Assignment,
    ContrastSpec,
    EffectError,
    group_change,
    observed_assignment,
)
from villagenet.metrics import MetricTable
from villagenet.randomization import derive_stream

from network_oracle import bfs_distances, undirected_neighbors


def scope_villages(asg: Assignment, scope: str) -> tuple[str, ...]:
    """Treated-side villages selected by a dosage scope."""
    if scope not in DOSAGE_SCOPES:
        raise EffectError(f"unknown dosage scope {scope}")
    out = []
    for v in sorted(asg.village_dosages):
        alpha = asg.village_dosages[v]
        if alpha == 0.0:
            continue
        if scope == "all" or dosage_group(alpha) == scope:
            out.append(v)
    return tuple(out)


def control_villages(asg: Assignment) -> tuple[str, ...]:
    return tuple(v for v in sorted(asg.village_dosages) if asg.village_dosages[v] == 0.0)


def did_statistic(table: MetricTable, metric: str, focal, comparison, control_reference,
                  scaling: str = "control_w1") -> tuple[float, float]:
    """Raw and percentage-scaled difference-in-differences.

    raw = (focal w3 mean - focal w1 mean) - (comparison w3 mean - comparison
    w1 mean); the percentage divides by the control villages' wave-1 mean
    (or their wave-3 mean under the alternative scaling).
    """
    if scaling not in SCALINGS:
        raise EffectError(f"unknown scaling {scaling}")
    f1, f3, _ = group_change(table, metric, focal)
    c1, c3, _ = group_change(table, metric, comparison)
    raw = (f3 - f1) - (c3 - c1)
    ref_wave = 1 if scaling == "control_w1" else 3
    ref, n_ref = table.group_mean(ref_wave, metric, control_reference)
    if n_ref == 0 or ref == 0.0:
        raise EffectError(
            f"unscalable statistic: control wave-{ref_wave} mean of {metric} is "
            f"{'undefined' if n_ref == 0 else 'zero'}"
        )
    return raw, 100.0 * raw / ref


def counterfactual_trend(table: MetricTable, metric: str, focal,
                         comparison) -> tuple[float, float]:
    """Focal wave-1 mean and its expected wave-3 mean under a parallel trend."""
    f1, _, _ = group_change(table, metric, focal)
    c1, c3, _ = group_change(table, metric, comparison)
    return f1, f1 + (c3 - c1)


def permute_assignment(design: TreatmentDesign, rng: np.random.Generator,
                       blocks: dict[str, str] | None = None):
    """(village dosages, household treatments) of one two-stage draw."""
    villages = list(design.villages)
    if blocks is not None:
        groups: dict[str, list[str]] = {}
        for v in villages:
            groups.setdefault(blocks[v], []).append(v)
        group_lists = [groups[b] for b in sorted(groups)]
    else:
        group_lists = [villages]

    new_dosages: dict[str, float] = {}
    for group in group_lists:
        labels = [design.village_dosages[v] for v in group]
        order = rng.permutation(len(group))
        for v, k in zip(group, order):
            new_dosages[v] = labels[k]

    treatments: dict[str, dict[str, bool]] = {}
    for v in villages:
        households = design.households(v)
        n_treated = treated_household_count(new_dosages[v], len(households))
        chosen = rng.choice(len(households), size=n_treated, replace=False)
        mask = set(int(c) for c in chosen)
        treatments[v] = {h: (i in mask) for i, h in enumerate(households)}
    return new_dosages, treatments


def assignment_from_draw(panel: StudyPanel, dosages, treatments) -> Assignment:
    members: dict[tuple[str, str], list[str]] = {}
    for ind in panel.individuals.values():
        members.setdefault((ind.village_id, ind.household_id), []).append(ind.id)
    treated: set[str] = set()
    for village, households in treatments.items():
        for h, is_treated in households.items():
            if is_treated:
                treated.update(members.get((village, h), ()))
    return Assignment(dosages, frozenset(treated))


def classify_spillover_order(panel: StudyPanel, layer: str, asg: Assignment,
                             variant_flags=(), scope: str = "all", mode: str = "exclusive",
                             include_unreachable: bool = False) -> dict[str, str]:
    labels: dict[str, str] = {}
    for village in scope_villages(asg, scope):
        net = panel.network(village, 1, layer, variant_flags)
        treated_here = [i for i in net.nodes if i in asg.treated]
        dist = bfs_distances(undirected_neighbors(net), treated_here)
        for node in net.nodes:
            if node in asg.treated:
                continue
            d = dist.get(node)
            if d == 1:
                labels[node] = "first_order"
            elif d is not None and d >= 2:
                labels[node] = "higher_order"
            elif mode == "distance_only" and include_unreachable:
                labels[node] = "higher_order"
            else:
                labels[node] = "neither"
    return labels


def classify_groups(panel: StudyPanel, spec: ContrastSpec, asg: Assignment):
    in_scope = scope_villages(asg, spec.dosage_scope)
    controls = control_villages(asg)
    if not controls:
        raise EffectError(f"no control villages available for {spec.label()}")
    if not in_scope:
        raise EffectError(f"no treated villages in scope for {spec.label()}")
    control_untreated = tuple(
        i for v in controls for i in panel.members(v) if i not in asg.treated
    )
    scope_members = tuple(i for v in in_scope for i in panel.members(v))
    if spec.kind == "overall":
        focal, comparison = scope_members, control_untreated
    elif spec.kind == "total":
        focal = tuple(i for i in scope_members if i in asg.treated)
        comparison = control_untreated
    elif spec.kind == "spillover":
        focal = tuple(i for i in scope_members if i not in asg.treated)
        comparison = control_untreated
    elif spec.kind == "direct":
        focal = tuple(i for i in scope_members if i in asg.treated)
        comparison = tuple(i for i in scope_members if i not in asg.treated)
    else:
        order = "first_order" if spec.kind == "spillover_first_order" else "higher_order"
        labels = classify_spillover_order(panel, spec.layer, asg, spec.variant_flags,
                                          spec.dosage_scope, spec.higher_order_mode)
        focal = tuple(i for i in scope_members if labels.get(i) == order)
        comparison = control_untreated
    if not focal:
        raise EffectError(f"empty focal group for {spec.label()}")
    if not comparison:
        raise EffectError(f"empty comparison group for {spec.label()}")
    return focal, comparison


def evaluate(panel: StudyPanel, table: MetricTable, spec: ContrastSpec,
             asg: Assignment | None = None, scaling: str = "control_w1"):
    """(raw, pct, n_focal, n_comparison); EffectError when undefined."""
    asg = asg if asg is not None else observed_assignment(panel)
    focal, comparison = classify_groups(panel, spec, asg)
    control = tuple(i for v in control_villages(asg) for i in panel.members(v))
    raw, pct = did_statistic(table, spec.metric, focal, comparison, control, scaling)
    return raw, pct, len(focal), len(comparison)


def null_statistics(panel: StudyPanel, table: MetricTable, specs, permutations: int,
                    master_seed: int, scaling: str = "control_w1",
                    blocks: dict[str, str] | None = None) -> np.ndarray:
    """(n_specs, permutations) percentage DiDs; NaN where the oracle raises."""
    out = np.full((len(specs), permutations), np.nan)
    for j in range(permutations):
        dosages, treatments = permute_assignment(panel.design, derive_stream(master_seed, j),
                                                 blocks)
        asg = assignment_from_draw(panel, dosages, treatments)
        for k, spec in enumerate(specs):
            try:
                out[k, j] = evaluate(panel, table, spec, asg, scaling)[1]
            except EffectError:
                pass
    return out
