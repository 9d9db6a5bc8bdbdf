"""Reference per-draw path over string ids, kept as the oracle for the kernel.

One draw is a household-level dict re-randomization, expanded to a set of
treated individual ids; groups are classified by set lookups and a
multi-source BFS per village, and the DiD is computed by `did_statistic` from
the groups' id lists (one `MetricTable.group_mean` per group and wave, over
the table rows of the group's ids).
`villagenet` evaluates the same draws with integer masks
(`effects.ContrastKernel`, `randomization.permute_assignment`); the tests
require both to agree draw by draw.

The ``kernel_*`` helpers and `draw_by_id` are the other direction: they put
an id-level assignment through villagenet's own kernel and read its draws
back by id, so that tests can state groups and statistics in ids.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from villagenet.core import (
    DOSAGE_SCOPES,
    SCALINGS,
    StudyPanel,
    TreatmentDesign,
    dosage_group,
    treated_household_count,
)
from villagenet.effects import (
    ContrastKernel,
    ContrastSpec,
    EffectError,
    EffectEstimate,
)
from villagenet.metrics import MetricTable, metric_table
from villagenet.randomization import derive_stream

from network_oracle import bfs_distances, undirected_neighbors


@dataclass(frozen=True)
class Assignment:
    """A (possibly re-randomized) treatment state: dosages plus treated ids."""

    village_dosages: Mapping[str, float]
    treated: frozenset[str]


def observed_assignment(panel: StudyPanel) -> Assignment:
    return Assignment(dict(panel.design.village_dosages),
                      frozenset(i for i, ind in panel.individuals.items() if ind.treated))


def members(panel: StudyPanel, village: str) -> tuple[str, ...]:
    """A village's member ids, sorted: the node order of its networks."""
    return panel.networks[(village, 1, "health")].nodes


@lru_cache(maxsize=8)
def _row_of(individuals: tuple[str, ...]) -> dict[str, int]:
    return {ind: k for k, ind in enumerate(individuals)}


def rows_of(table: MetricTable, ids: Sequence[str]) -> np.ndarray:
    """The table rows of ``ids``, in their order."""
    row = _row_of(table.individuals)
    return np.array([row[i] for i in ids], dtype=np.intp)


def group_change(table: MetricTable, metric: str, ids: Sequence[str]) -> tuple[float, float, int]:
    """(wave-1 mean, wave-3 mean, min defined count) with NaNs excluded per wave."""
    rows = rows_of(table, ids)
    m1, n1 = table.group_mean(1, metric, rows)
    m3, n3 = table.group_mean(3, metric, rows)
    if n1 == 0 or n3 == 0:
        raise EffectError(f"group of {len(ids)} has no defined {metric} values")
    return m1, m3, min(n1, n3)


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
    ref, n_ref = table.group_mean(ref_wave, metric, rows_of(table, control_reference))
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
        households = sorted(design.assignments[v])
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
        i for v in controls for i in members(panel, v) if i not in asg.treated
    )
    scope_members = tuple(i for v in in_scope for i in members(panel, v))
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
                                          spec.dosage_scope)
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
    control = tuple(i for v in control_villages(asg) for i in members(panel, v))
    try:
        raw, pct = did_statistic(table, spec.metric, focal, comparison, control, scaling)
    except EffectError as exc:   # an undefined statistic's message names the contrast
        raise EffectError(f"{exc} for {spec.label()}") from None
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


def _draw(panel: StudyPanel, asg: Assignment | None) -> tuple[np.ndarray, np.ndarray]:
    """An assignment as the kernel takes it: (dosage per village, treated flag per individual)."""
    study = panel.index
    if asg is None:
        return study.observed
    return (np.array([asg.village_dosages[v] for v in study.villages], dtype=float),
            np.array([i in asg.treated for i in study.individuals], dtype=bool))


def _degree_kernel(panel: StudyPanel, spec: ContrastSpec) -> ContrastKernel:
    """A kernel of the spec on degree: groups do not depend on the metric."""
    table = metric_table(panel, spec.layer, spec.variant_flags, ("degree",))
    return ContrastKernel(panel, [replace(spec, metric="degree")], table)


def kernel_groups(panel: StudyPanel, spec: ContrastSpec,
                  asg: Assignment | None = None) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The kernel's focal and comparison ids for a contrast (sorted ids)."""
    kernel = _degree_kernel(panel, spec)
    dosages, treated = _draw(panel, asg)
    rows = kernel.masks(dosages, treated)
    focal, comparison = rows[kernel.focal[0]], rows[kernel.comparison[0]]
    error = kernel.group_error(0, dosages, focal.sum(), comparison.sum())
    if error:
        raise EffectError(error)
    ids = np.array(panel.index.individuals, dtype=object)
    return tuple(ids[focal]), tuple(ids[comparison])


def kernel_evaluate(panel: StudyPanel, table: MetricTable, spec: ContrastSpec,
                    asg: Assignment | None = None,
                    scaling: str = "control_w1") -> EffectEstimate:
    """The kernel's point estimate for one contrast under one assignment."""
    return ContrastKernel(panel, [spec], table).estimates(*_draw(panel, asg), scaling)[0]


def kernel_spillover_order(panel: StudyPanel, layer: str, mode: str = "exclusive",
                           asg: Assignment | None = None, variant_flags=(),
                           scope: str = "all",
                           include_unreachable: bool = False) -> dict[str, str]:
    """Untreated members of treated villages in scope, labelled by the kernel's exposure.

    first_order: a treated wave-1 neighbor; higher_order: none, but a treated
    node is reachable (distance >= 2); otherwise 'neither'. Under
    ``mode='distance_only'`` with ``include_unreachable`` the unreachable
    count as higher_order too.
    """
    spillover = _degree_kernel(panel, ContrastSpec("spillover", scope, layer, "degree",
                                                   tuple(variant_flags)))
    dosages, treated = _draw(panel, asg)
    members = spillover.masks(dosages, treated)[spillover.focal[0]]
    exposed, reachable = spillover.exposure(treated)
    if mode == "distance_only" and include_unreachable:
        reachable[:] = True
    labels = np.where(exposed, "first_order", np.where(reachable, "higher_order", "neither"))
    return {panel.index.individuals[i]: str(labels[i]) for i in np.flatnonzero(members)}


def draw_by_id(design: TreatmentDesign, draw: tuple[np.ndarray, np.ndarray]):
    """(village dosages, household treatments) of a drawn (dosages, treated) pair, by id."""
    dosages, treated = draw
    flags = iter(treated.tolist())
    return (dict(zip(design.villages, dosages.tolist())),
            {v: {h: next(flags) for h in sorted(design.assignments[v])} for v in design.villages})
