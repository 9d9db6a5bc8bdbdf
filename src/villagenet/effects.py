"""Comparison-group construction and the percentage-scaled DiD statistic.

Every contrast compares a focal group's wave-1-to-wave-3 change in a node
metric against a comparison group's change, then scales the difference by the
wave-1 mean of the metric in fully untreated villages so effects read as
percentages.

Group membership is a function of the treatment assignment, so one kernel,
`ContrastKernel`, classifies both the observed assignment and every
re-randomized draw; it is the only way to groups and statistics. Individuals,
villages and the observed assignment come from the panel's study-wide index
(`core.StudyIndex`), and a metric table's columns are read as they stand,
since they follow the same individuals. Each kernel compiles its (layer,
variant)'s wave-1 skeleton itself: (src, dst) index arrays over those
individuals and the skeleton's connected components. It adds a value matrix
X = [V1 | V3 | defined1 | defined3] over the requested metrics with undefined
values set to 0. A draw is a dosage per village plus a treated flag per
individual. Its focal, comparison and control-reference groups are boolean
rows; first-order exposure is the study's one exposure rule
(`core.has_treated_neighbor`, two bincounts over the skeleton edges).
Higher-order spillover is the untreated in scope with no treated neighbor from
whom a treated node is still reachable (distance 2 or more), "reachable" being
one bincount over component ids, so no BFS runs per draw. All group sums and
defined counts come from one product rows @ X, and the statistic of every spec
follows elementwise. Group means are sums over defined counts, so for
integer-valued metrics (the degree family) they equal the per-group mean bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    CONTRAST_KINDS,
    DOSAGE_SCOPES,
    HIGH_DOSAGES,
    LOW_DOSAGES,
    SCALINGS,
    WAVES,
    StudyIndex,
    StudyPanel,
    has_treated_neighbor,
)
from .metrics import MetricTable, metric_table


class EffectError(ValueError):
    """A contrast cannot be evaluated on this panel."""


@dataclass(frozen=True)
class ContrastSpec:
    kind: str
    dosage_scope: str
    layer: str
    metric: str
    variant_flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in CONTRAST_KINDS:
            raise EffectError(f"unknown contrast kind {self.kind}")
        if self.dosage_scope not in DOSAGE_SCOPES:
            raise EffectError(f"unknown dosage scope {self.dosage_scope}")
        object.__setattr__(self, "variant_flags", tuple(sorted(set(self.variant_flags))))

    @property
    def variant(self) -> str:
        """The variant flags as written in labels and exports: joined by '+', or 'none'."""
        return "+".join(self.variant_flags) if self.variant_flags else "none"

    def label(self) -> str:
        return f"{self.kind}/{self.dosage_scope}/{self.layer}/{self.metric}/{self.variant}"


@dataclass(frozen=True)
class EffectEstimate:
    """One contrast's statistic.

    ``group_means`` holds the means behind it: focal wave 1, focal wave 3,
    comparison wave 1, comparison wave 3.
    """

    spec: ContrastSpec
    raw_did: float
    pct_effect: float
    n_focal: int
    n_comparison: int
    p_value: float | None = None
    permutations: int = 0
    skipped_draws: int = 0
    group_means: tuple[float, float, float, float] | None = None


def _components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Connected-component label (smallest member index) of every node.

    Min-label propagation over the edges in both directions with pointer
    jumping; every label stays a node of the same component and only decreases.
    """
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    label = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, src, label[dst])
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def _in_scope(study: StudyIndex, dosages: np.ndarray, scope: str) -> np.ndarray:
    """Members of the treated-side villages a dosage scope selects."""
    if scope == "all":
        villages = dosages != 0.0
    else:   # "low" or "high"; `ContrastSpec` rejects any other scope
        villages = np.isin(dosages, tuple(LOW_DOSAGES if scope == "low" else HIGH_DOSAGES))
    return villages[study.village]


# Group rows a contrast reads, keyed by (group, scope). The direct contrast's
# focal group is the total contrast's, and its comparison (untreated members of
# scope villages) is the spillover focal group.
_FOCAL_GROUP = {"direct": "total"}
_CONTROL_UNTREATED = ("control_untreated", "all")
_CONTROL = ("control", "all")


class ContrastKernel:
    """Groups and percentage DiD of many specs under any draw, one mask product each.

    overall:   everyone in treated villages in scope  vs  untreated in 0% villages
    total:     treated individuals in scope           vs  untreated in 0% villages
    spillover: untreated in scope's treated villages  vs  untreated in 0% villages
    direct:    treated in scope's treated villages    vs  untreated in those villages
    The first/higher-order kinds restrict the spillover focal group to those
    with a treated wave-1 neighbor / with none but a treated node reachable.

    All specs share one layer and variant, whose wave-1 skeleton the kernel
    compiles itself. It holds arrays and the study index, never the panel, so
    it pickles into worker processes.
    """

    def __init__(self, panel: StudyPanel, specs: Sequence[ContrastSpec], table: MetricTable):
        self.specs = tuple(specs)
        layer, variants = self.specs[0].layer, self.specs[0].variant_flags
        if any((s.layer, s.variant_flags) != (layer, variants) for s in self.specs):
            raise EffectError("a contrast kernel needs specs of one layer and variant")
        self.study = study = panel.index
        nets = [panel.network(v, 1, layer, variants) for v in study.villages]
        self.src = np.concatenate([rows[net.src] for rows, net in zip(study.members, nets)])
        self.dst = np.concatenate([rows[net.dst] for rows, net in zip(study.members, nets)])
        self.component = _components(len(study.individuals), self.src, self.dst)
        keys: dict[tuple[str, str], int] = {}
        self.focal = np.array([keys.setdefault((_FOCAL_GROUP.get(s.kind, s.kind), s.dosage_scope),
                                               len(keys)) for s in self.specs])
        self.comparison = np.array([keys.setdefault(("spillover", s.dosage_scope)
                                                    if s.kind == "direct" else _CONTROL_UNTREATED,
                                                    len(keys)) for s in self.specs])
        self.reference = keys.setdefault(_CONTROL, len(keys))
        self.keys = tuple(keys)
        self.metrics = tuple(dict.fromkeys(s.metric for s in self.specs))
        m = len(self.metrics)
        k = np.array([self.metrics.index(s.metric) for s in self.specs])
        # Flat positions, in a draw's (groups, 4m) sums, of each spec's value sums
        # [focal w1, focal w3, comparison w1, comparison w3, reference] for each
        # reference wave; the matching defined counts sit 2m columns further on.
        def at(row, block):
            return row * 4 * m + block * m + k

        self.positions = tuple(
            np.stack([at(self.focal, 0), at(self.focal, 1), at(self.comparison, 0),
                      at(self.comparison, 1), at(self.reference, ref_block)], axis=1)
            for ref_block in (0, 1))
        self.values = self._values(table)

    def _values(self, table: MetricTable) -> np.ndarray:
        """X = [V1 | V3 | defined1 | defined3], one column per metric in each block."""
        if table.individuals != self.study.individuals:
            raise EffectError(f"metric table of layer {table.layer} does not follow "
                              f"the study's individuals")
        v = np.column_stack([table.column(w, m) for w in WAVES for m in self.metrics])
        defined = ~np.isnan(v)
        return np.hstack([np.where(defined, v, 0.0), defined])

    def exposure(self, treated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(has a treated wave-1 neighbor, shares a skeleton component with a treated node)."""
        reachable = np.bincount(self.component, weights=treated, minlength=treated.size) > 0
        return has_treated_neighbor(self.src, self.dst, treated), reachable[self.component]

    def masks(self, dosages: np.ndarray, treated: np.ndarray) -> np.ndarray:
        """Boolean (groups, individuals) rows of one draw, in ``keys`` order."""
        untreated = ~treated
        control = (dosages == 0.0)[self.study.village]
        if any(g.startswith("spillover_") for g, _ in self.keys):
            exposed, reachable = self.exposure(treated)
        scoped = {scope: _in_scope(self.study, dosages, scope)
                  for scope in {s for _, s in self.keys}}
        rows = np.empty((len(self.keys), treated.size), dtype=bool)
        for g, (group, scope) in enumerate(self.keys):
            members = scoped[scope]
            if group == "control":
                rows[g] = control
            elif group == "control_untreated":
                rows[g] = control & untreated
            elif group == "overall":
                rows[g] = members
            elif group == "total":
                rows[g] = members & treated
            elif group == "spillover":
                rows[g] = members & untreated
            elif group == "spillover_first_order":
                rows[g] = members & untreated & exposed
            else:  # spillover_higher_order: unexposed but reachable, distance >= 2
                rows[g] = members & untreated & ~exposed & reachable
        return rows

    def group_error(self, k: int, dosages: np.ndarray, n_focal: int,
                    n_comparison: int) -> str | None:
        """Why spec k has no focal or comparison group under a draw, or None."""
        label = self.specs[k].label()
        if not (dosages == 0.0).any():
            return f"no control villages available for {label}"
        if not _in_scope(self.study, dosages, self.specs[k].dosage_scope).any():
            return f"no treated villages in scope for {label}"
        if n_focal == 0:
            return f"empty focal group for {label}"
        if n_comparison == 0:
            return f"empty comparison group for {label}"
        return None

    def evaluate(self, dosages: np.ndarray, treated: np.ndarray,
                 scaling: str = "control_w1") -> "Evaluation":
        """Every spec's DiD under one draw; ``pct`` is NaN where a spec is undefined."""
        if scaling not in SCALINGS:
            raise EffectError(f"unknown scaling {scaling}")
        rows = self.masks(dosages, treated)
        sizes = rows.sum(axis=1)
        sums = (rows.astype(float) @ self.values).ravel()
        ref_block = SCALINGS.index(scaling)
        positions = self.positions[ref_block]
        defined = sums[positions + 2 * len(self.metrics)]
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = sums[positions] / defined
            f1, f3, c1, c3, ref = mean.T
            raw = (f3 - f1) - (c3 - c1)
            pct = 100.0 * raw / ref
        f, c = sizes[self.focal], sizes[self.comparison]
        valid = (f > 0) & (c > 0) & (defined > 0).all(axis=1) & (ref != 0.0)
        return Evaluation(self, dosages, WAVES[ref_block], f, c, defined, mean, raw,
                          np.where(valid, pct, np.nan))

    def estimates(self, dosages: np.ndarray, treated: np.ndarray,
                  scaling: str = "control_w1") -> list[EffectEstimate]:
        """Every spec's estimate under one draw; raises at the first undefined one."""
        ev = self.evaluate(dosages, treated, scaling)
        return [ev.estimate(k) for k in range(len(self.specs))]


@dataclass(frozen=True)
class Evaluation:
    """Per-spec arrays of one draw through a `ContrastKernel`."""

    kernel: ContrastKernel
    dosages: np.ndarray
    ref_wave: int
    n_focal: np.ndarray
    n_comparison: np.ndarray
    defined: np.ndarray   # (spec, [focal w1, focal w3, comparison w1, comparison w3, ref])
    mean: np.ndarray      # same layout as ``defined``
    raw: np.ndarray
    pct: np.ndarray

    def error(self, k: int) -> str | None:
        """Why spec k has no statistic under this draw, or None if it has one."""
        spec = self.kernel.specs[k]
        defined = self.defined[k]
        error = self.kernel.group_error(k, self.dosages, self.n_focal[k], self.n_comparison[k])
        if error:
            return error
        for size, counts in ((self.n_focal[k], defined[0:2]),
                             (self.n_comparison[k], defined[2:4])):
            if (counts == 0).any():
                return f"group of {size} has no defined {spec.metric} values for {spec.label()}"
        if defined[4] == 0 or self.mean[k, 4] == 0.0:
            return (f"unscalable statistic: control wave-{self.ref_wave} mean of {spec.metric} "
                    f"is {'undefined' if defined[4] == 0 else 'zero'} for {spec.label()}")
        return None

    def estimate(self, k: int) -> EffectEstimate:
        """Spec k's estimate; EffectError when it is undefined under this draw."""
        if np.isnan(self.pct[k]):
            raise EffectError(self.error(k))
        f1, f3, c1, c3, _ = (float(x) for x in self.mean[k])
        return EffectEstimate(spec=self.kernel.specs[k], raw_did=float(self.raw[k]),
                              pct_effect=float(self.pct[k]), n_focal=int(self.n_focal[k]),
                              n_comparison=int(self.n_comparison[k]),
                              group_means=(f1, f3, c1, c3))


def enumerate_specs(
    layers: Sequence[str],
    metrics: Sequence[str],
    scopes: Sequence[str],
    kinds: Sequence[str],
    variants: Sequence[Sequence[str]] = ((),),
) -> list[ContrastSpec]:
    """Deterministic cross-product of requested contrasts."""
    return [ContrastSpec(kind=kind, dosage_scope=scope, layer=layer, metric=metric,
                         variant_flags=tuple(variant))
            for layer in layers for variant in variants for metric in metrics
            for scope in scopes for kind in kinds]


def effect_suite(
    panel: StudyPanel,
    layers: Sequence[str],
    metrics: Sequence[str],
    scopes: Sequence[str],
    kinds: Sequence[str] = ("overall", "total", "spillover", "direct"),
    variants: Sequence[Sequence[str]] = ((),),
    permutations: int = 0,
    master_seed: int = 0,
    scaling: str = "control_w1",
    threads: int = 1,
    blocks: Mapping[str, str] | None = None,
) -> list[EffectEstimate]:
    """All requested contrasts, with permutation p-values when requested.

    The cross-product skips in/out-degree on undirected layers. Each
    (layer, variant) metric table holds only the requested metrics, and each
    (layer, variant) is compiled into one `ContrastKernel`. All kernels go to
    `randomization.permuted_estimates` together: every draw, derived from the
    master seed, is made once and evaluated by every kernel, so the output is
    reproducible and independent of evaluation order.
    """
    from .randomization import permuted_estimates  # late import: it builds on this module

    kernels = []
    for layer in layers:
        for variant in variants:
            table = metric_table(panel, layer, variant, metrics)
            wanted = [m for m in metrics if m in table.metrics]
            specs = enumerate_specs([layer], wanted, scopes, kinds, [tuple(variant)])
            if specs:
                kernels.append(ContrastKernel(panel, specs, table))
    return [est for est, _ in permuted_estimates(panel, kernels, permutations, master_seed,
                                                 scaling, threads, blocks)]
