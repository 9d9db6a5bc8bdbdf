"""Comparison-group construction and the percentage-scaled DiD statistic.

Every contrast compares a focal group's wave-1-to-wave-3 change in a node
metric against a comparison group's change, then scales the difference by the
wave-1 mean of the metric in fully untreated villages so effects read as
percentages. Group membership is a function of the treatment assignment, so
the same code classifies both the observed assignment and re-randomized draws.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import StudyPanel, dosage_group
from .metrics import METRICS, MetricTable
from .networks import bfs_distances

log = logging.getLogger(__name__)

CONTRAST_KINDS = ("overall", "total", "spillover", "direct",
                  "spillover_first_order", "spillover_higher_order")
DOSAGE_SCOPES = ("all", "low", "high")
HIGHER_ORDER_MODES = ("exclusive", "distance_only")
SCALINGS = ("control_w1", "control_w3")


class EffectError(ValueError):
    """A contrast cannot be evaluated on this panel."""


@dataclass(frozen=True)
class Assignment:
    """A (possibly re-randomized) treatment state: dosages plus treated ids."""

    village_dosages: Mapping[str, float]
    treated: frozenset[str]

    def scope_villages(self, scope: str) -> tuple[str, ...]:
        """Treated-side villages selected by a dosage scope."""
        if scope not in DOSAGE_SCOPES:
            raise EffectError(f"unknown dosage scope {scope}")
        out = []
        for v in sorted(self.village_dosages):
            alpha = self.village_dosages[v]
            if alpha == 0.0:
                continue
            if scope == "all" or dosage_group(alpha) == scope:
                out.append(v)
        return tuple(out)

    def control_villages(self) -> tuple[str, ...]:
        return tuple(v for v in sorted(self.village_dosages)
                     if self.village_dosages[v] == 0.0)


def observed_assignment(panel: StudyPanel) -> Assignment:
    return Assignment(dict(panel.design.village_dosages), panel.treated_ids())


@dataclass(frozen=True)
class ContrastSpec:
    kind: str
    dosage_scope: str
    layer: str
    metric: str
    variant_flags: tuple[str, ...] = ()
    higher_order_mode: str = "exclusive"

    def __post_init__(self):
        if self.kind not in CONTRAST_KINDS:
            raise EffectError(f"unknown contrast kind {self.kind}")
        if self.dosage_scope not in DOSAGE_SCOPES:
            raise EffectError(f"unknown dosage scope {self.dosage_scope}")
        if self.higher_order_mode not in HIGHER_ORDER_MODES:
            raise EffectError(f"unknown higher-order mode {self.higher_order_mode}")
        object.__setattr__(self, "variant_flags", tuple(sorted(set(self.variant_flags))))

    def label(self) -> str:
        variant = "+".join(self.variant_flags) if self.variant_flags else "none"
        return f"{self.kind}/{self.dosage_scope}/{self.layer}/{self.metric}/{variant}"


@dataclass(frozen=True)
class EffectEstimate:
    spec: ContrastSpec
    raw_did: float
    pct_effect: float
    n_focal: int
    n_comparison: int
    p_value: float | None = None
    permutations: int = 0
    skipped_draws: int = 0


def classify_groups(panel: StudyPanel, spec: ContrastSpec,
                    assignment: Assignment | None = None) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Focal and comparison individual ids for a contrast.

    overall:   everyone in treated villages in scope  vs  untreated in 0% villages
    total:     treated individuals in scope           vs  untreated in 0% villages
    spillover: untreated in scope's treated villages  vs  untreated in 0% villages
    direct:    treated in scope's treated villages    vs  untreated in those villages
    The first/higher-order kinds restrict the spillover focal group by the
    wave-1 adjacency classification.
    """
    asg = assignment if assignment is not None else observed_assignment(panel)
    scope_villages = asg.scope_villages(spec.dosage_scope)
    controls = asg.control_villages()
    if not controls:
        raise EffectError(f"no control villages available for {spec.label()}")
    if not scope_villages:
        raise EffectError(f"no treated villages in scope for {spec.label()}")

    control_untreated = tuple(
        i for v in controls for i in panel.members(v) if i not in asg.treated
    )
    scope_members = tuple(i for v in scope_villages for i in panel.members(v))

    if spec.kind == "overall":
        focal: tuple[str, ...] = scope_members
        comparison = control_untreated
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
        labels = classify_spillover_order(
            panel, spec.layer, spec.higher_order_mode, assignment=asg,
            variant_flags=spec.variant_flags, scope=spec.dosage_scope,
        )
        focal = tuple(i for i in scope_members if labels.get(i) == order)
        comparison = control_untreated
    if not focal:
        raise EffectError(f"empty focal group for {spec.label()}")
    if not comparison:
        raise EffectError(f"empty comparison group for {spec.label()}")
    return focal, comparison


def classify_spillover_order(
    panel: StudyPanel,
    layer: str,
    mode: str = "exclusive",
    assignment: Assignment | None = None,
    variant_flags: Sequence[str] = (),
    scope: str = "all",
    include_unreachable: bool = False,
) -> dict[str, str]:
    """Partition untreated members of treated villages by wave-1 exposure.

    first_order: at least one treated neighbor (either direction) at wave 1.
    higher_order (exclusive): no treated neighbor, but a treated node is
        reachable on the undirected skeleton, necessarily at distance >= 2.
    higher_order (distance_only): shortest skeleton distance to any treated
        node is >= 2; with ``include_unreachable`` an infinite distance also
        qualifies, otherwise such nodes are 'neither' (counts logged).
    """
    if mode not in HIGHER_ORDER_MODES:
        raise EffectError(f"unknown higher-order mode {mode}")
    asg = assignment if assignment is not None else observed_assignment(panel)
    labels: dict[str, str] = {}
    unreachable = 0
    for village in asg.scope_villages(scope):
        net = panel.network(village, 1, layer, variant_flags)
        adj = net.undirected_neighbors
        treated_here = [i for i in net.nodes if i in asg.treated]
        dist = bfs_distances(adj, treated_here)
        for node in net.nodes:
            if node in asg.treated:
                continue
            d = dist.get(node)
            if d == 1:
                labels[node] = "first_order"
            elif d is not None and d >= 2:
                labels[node] = "higher_order"
            else:  # no path to any treated node
                if mode == "distance_only" and include_unreachable:
                    labels[node] = "higher_order"
                else:
                    labels[node] = "neither"
                    unreachable += 1
    if unreachable:
        log.debug("spillover-order classification: %d untreated nodes with no path "
                  "to a treated node labelled 'neither'", unreachable)
    return labels


def group_change(table: MetricTable, metric: str, ids: Sequence[str]) -> tuple[float, float, int]:
    """(wave-1 mean, wave-3 mean, min defined count) with NaNs excluded per wave."""
    m1, n1 = table.group_mean(1, metric, ids)
    m3, n3 = table.group_mean(3, metric, ids)
    if n1 == 0 or n3 == 0:
        raise EffectError(f"group of {len(ids)} has no defined {metric} values")
    return m1, m3, min(n1, n3)


def did_statistic(
    table: MetricTable,
    metric: str,
    focal: Sequence[str],
    comparison: Sequence[str],
    control_reference: Sequence[str],
    scaling: str = "control_w1",
) -> tuple[float, float]:
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


def counterfactual_trend(
    table: MetricTable,
    metric: str,
    focal: Sequence[str],
    comparison: Sequence[str],
) -> tuple[float, float]:
    """Focal wave-1 mean and its expected wave-3 mean under a parallel trend."""
    f1, _, _ = group_change(table, metric, focal)
    c1, c3, _ = group_change(table, metric, comparison)
    return f1, f1 + (c3 - c1)


def enumerate_specs(
    layers: Sequence[str],
    metrics: Sequence[str],
    scopes: Sequence[str],
    kinds: Sequence[str],
    variants: Sequence[Sequence[str]] = ((),),
    higher_order_mode: str = "exclusive",
) -> list[ContrastSpec]:
    """Deterministic cross-product of requested contrasts."""
    specs = []
    for layer in layers:
        for variant in variants:
            for metric in metrics:
                for scope in scopes:
                    for kind in kinds:
                        specs.append(ContrastSpec(
                            kind=kind, dosage_scope=scope, layer=layer,
                            metric=metric, variant_flags=tuple(variant),
                            higher_order_mode=higher_order_mode,
                        ))
    return specs


def evaluate_contrast(
    panel: StudyPanel,
    table: MetricTable,
    spec: ContrastSpec,
    assignment: Assignment | None = None,
    scaling: str = "control_w1",
) -> EffectEstimate:
    """Point estimate (no p-value) for one contrast under one assignment."""
    asg = assignment if assignment is not None else observed_assignment(panel)
    focal, comparison = classify_groups(panel, spec, asg)
    control = tuple(i for v in asg.control_villages() for i in panel.members(v))
    raw, pct = did_statistic(table, spec.metric, focal, comparison, control, scaling)
    return EffectEstimate(spec=spec, raw_did=raw, pct_effect=pct,
                          n_focal=len(focal), n_comparison=len(comparison))


def effect_suite(
    panel: StudyPanel,
    layers: Sequence[str],
    metrics: Sequence[str],
    scopes: Sequence[str],
    kinds: Sequence[str] = ("overall", "total", "spillover", "direct"),
    variants: Sequence[Sequence[str]] = ((),),
    permutations: int = 0,
    master_seed: int = 0,
    higher_order_mode: str = "exclusive",
    scaling: str = "control_w1",
    threads: int = 1,
    blocks: Mapping[str, str] | None = None,
    tables: dict[tuple[str, tuple[str, ...]], MetricTable] | None = None,
) -> list[EffectEstimate]:
    """All requested contrasts, with permutation p-values when requested.

    The cross-product skips in/out-degree on undirected layers. All specs
    share one set of re-randomization draws derived from the master seed, so
    the output is reproducible and independent of evaluation order. Each
    (layer, variant) metric table holds only the requested metrics; when
    ``tables`` is given, it receives them keyed by (layer, sorted variant
    flags) for reuse.
    """
    from . import randomization  # late import: randomization builds on this module
    from .metrics import metric_table as build_table

    requested = tuple(m for m in metrics if m in METRICS)
    estimates: list[EffectEstimate] = []
    for layer in layers:
        for variant in variants:
            table = build_table(panel, layer, variant, requested)
            if tables is not None:
                tables[(layer, table.variants)] = table
            wanted = [m for m in metrics if m in table.metrics]
            specs = enumerate_specs([layer], wanted, scopes, kinds, [tuple(variant)],
                                    higher_order_mode)
            if permutations > 0:
                results = randomization.permutation_suite(
                    panel, table, specs, permutations, master_seed,
                    scaling=scaling, threads=threads, blocks=blocks,
                )
                estimates.extend(results)
            else:
                for spec in specs:
                    estimates.append(evaluate_contrast(panel, table, spec, scaling=scaling))
    return estimates
