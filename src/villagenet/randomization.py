"""Two-stage re-randomization and Monte-Carlo-exact permutation p-values.

Under the sharp null the observed networks are fixed; each draw re-assigns
the village dosage labels (stage 1, optionally within blocks) and re-samples
treated households at the drawn dosage (stage 2). Group membership and the
test statistic are recomputed per draw. Each draw owns an independent RNG
stream derived from (master_seed, draw_index), so results are identical no
matter how draws are batched across workers.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import multiprocessing
import numpy as np

from .core import StudyPanel, TreatmentDesign, treated_household_count
from .effects import (
    Assignment,
    ContrastSpec,
    EffectError,
    EffectEstimate,
    evaluate_contrast,
)
from .metrics import MetricTable

log = logging.getLogger(__name__)

SIDES = ("two", "left", "right")
MAX_SKIP_FRACTION = 0.10


class RandomizationError(RuntimeError):
    """The permutation scheme cannot produce a valid null distribution."""


def derive_stream(master_seed: int, draw_index: int) -> np.random.Generator:
    """Independent per-draw RNG stream; draw i never depends on draws < i."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(draw_index,))
    return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class AssignmentDraw:
    village_dosages: dict[str, float]
    household_treatments: dict[str, dict[str, bool]]
    draw_index: int = -1
    seed_path: tuple[int, int] | None = None


def permute_assignment(
    design: TreatmentDesign,
    rng: np.random.Generator,
    blocks: Mapping[str, str] | None = None,
) -> AssignmentDraw:
    """One two-stage re-randomization of the observed design.

    Stage 1 permutes the observed dosage labels across villages (within
    blocks when given), preserving the dosage multiset exactly. Stage 2
    samples a uniform treated-household subset of the dosage-implied size.
    """
    villages = list(design.villages)
    if blocks is not None:
        missing = [v for v in villages if v not in blocks]
        if missing:
            raise RandomizationError(f"villages without a block label: {missing}")
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
        if n_treated > len(households):
            raise RandomizationError(
                f"village {v}: dosage {new_dosages[v]} demands {n_treated} treated "
                f"households but only {len(households)} exist"
            )
        chosen = rng.choice(len(households), size=n_treated, replace=False)
        mask = set(int(c) for c in chosen)
        treatments[v] = {h: (i in mask) for i, h in enumerate(households)}
    return AssignmentDraw(new_dosages, treatments)


def assignment_from_draw(
    panel: StudyPanel,
    draw: AssignmentDraw,
    household_members: Mapping[str, tuple[str, ...]] | None = None,
) -> Assignment:
    """Individual-level treatment state implied by a household-level draw."""
    if household_members is None:
        household_members = _household_members(panel)
    treated: set[str] = set()
    for village, households in draw.household_treatments.items():
        for h, is_treated in households.items():
            if is_treated:
                treated.update(household_members[h])
    return Assignment(draw.village_dosages, frozenset(treated))


def _household_members(panel: StudyPanel) -> dict[str, tuple[str, ...]]:
    members: dict[str, list[str]] = {}
    for ind in panel.individuals.values():
        members.setdefault(ind.household_id, []).append(ind.id)
    return {h: tuple(sorted(ids)) for h, ids in members.items()}


def pvalue_from_draws(observed: float, draws: Sequence[float], sided: str = "two") -> float:
    """Add-one Monte-Carlo p-value: (1 + exceedances) / (1 + #draws)."""
    if sided not in SIDES:
        raise ValueError(f"sided must be one of {SIDES}")
    arr = np.asarray(draws, dtype=float)
    if sided == "two":
        exceed = int(np.sum(np.abs(arr) >= abs(observed)))
    elif sided == "left":
        exceed = int(np.sum(arr <= observed))
    else:
        exceed = int(np.sum(arr >= observed))
    return (1 + exceed) / (1 + arr.size)


@dataclass(frozen=True)
class PermutationResult:
    observed: float
    null_draws: tuple[float, ...]
    p_value: float
    sided: str
    permutations: int
    skipped: int = 0

    @property
    def two_sided(self) -> bool:
        return self.sided == "two"


@dataclass(frozen=True)
class _DrawTask:
    """Picklable context for evaluating a chunk of draws in a worker."""

    panel: StudyPanel
    table: MetricTable
    specs: tuple[ContrastSpec, ...]
    master_seed: int
    scaling: str
    blocks: dict[str, str] | None

    def run(self, start: int, stop: int) -> np.ndarray:
        hh_members = _household_members(self.panel)
        out = np.full((len(self.specs), stop - start), np.nan)
        for j, draw_index in enumerate(range(start, stop)):
            rng = derive_stream(self.master_seed, draw_index)
            draw = replace(
                permute_assignment(self.panel.design, rng, self.blocks),
                draw_index=draw_index, seed_path=(self.master_seed, draw_index),
            )
            asg = assignment_from_draw(self.panel, draw, hh_members)
            for k, spec in enumerate(self.specs):
                try:
                    est = evaluate_contrast(self.panel, self.table, spec,
                                            assignment=asg, scaling=self.scaling)
                    out[k, j] = est.pct_effect
                except EffectError:
                    pass  # skipped draw, stays NaN
        return out


def _run_chunk(task: _DrawTask, start: int, stop: int) -> np.ndarray:
    return task.run(start, stop)


def null_statistics(
    panel: StudyPanel,
    table: MetricTable,
    specs: Sequence[ContrastSpec],
    permutations: int,
    master_seed: int,
    scaling: str = "control_w1",
    threads: int = 1,
    blocks: Mapping[str, str] | None = None,
) -> np.ndarray:
    """(n_specs, permutations) null statistics; NaN marks a skipped draw."""
    if permutations < 1:
        raise ValueError("permutations must be >= 1")
    task = _DrawTask(panel, table, tuple(specs), master_seed, scaling,
                     dict(blocks) if blocks is not None else None)
    if threads <= 1 or permutations < 2 * threads:
        return task.run(0, permutations)
    bounds = np.linspace(0, permutations, threads + 1).astype(int)
    chunks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=threads, mp_context=ctx) as pool:
        parts = list(pool.map(_run_chunk, [task] * len(chunks),
                              [a for a, _ in chunks], [b for _, b in chunks]))
    return np.concatenate(parts, axis=1)


def permutation_suite(
    panel: StudyPanel,
    table: MetricTable,
    specs: Sequence[ContrastSpec],
    permutations: int,
    master_seed: int,
    scaling: str = "control_w1",
    threads: int = 1,
    blocks: Mapping[str, str] | None = None,
    sided: str = "two",
) -> list[EffectEstimate]:
    """Observed estimates for all specs with shared-draw permutation p-values."""
    observed = [evaluate_contrast(panel, table, spec, scaling=scaling) for spec in specs]
    stats = null_statistics(panel, table, specs, permutations, master_seed,
                            scaling, threads, blocks)
    results = []
    for k, est in enumerate(observed):
        draws = stats[k]
        valid = draws[~np.isnan(draws)]
        skipped = permutations - valid.size
        if skipped > MAX_SKIP_FRACTION * permutations:
            raise RandomizationError(
                f"{skipped}/{permutations} draws skipped for {specs[k].label()}; "
                f"the permutation scheme is incompatible with this contrast"
            )
        if skipped:
            log.warning("%d/%d draws skipped for %s", skipped, permutations,
                        specs[k].label())
        p = pvalue_from_draws(est.pct_effect, valid, sided)
        results.append(replace(est, p_value=p, permutations=permutations,
                               skipped_draws=skipped))
    return results


def permutation_pvalue(
    panel: StudyPanel,
    spec: ContrastSpec,
    permutations: int,
    master_seed: int,
    table: MetricTable | None = None,
    scaling: str = "control_w1",
    threads: int = 1,
    blocks: Mapping[str, str] | None = None,
    sided: str = "two",
) -> PermutationResult:
    """Full permutation result (observed, null draws, p) for one contrast."""
    if table is None:
        from .metrics import metric_table
        table = metric_table(panel, spec.layer, spec.variant_flags, (spec.metric,))
    observed = evaluate_contrast(panel, table, spec, scaling=scaling)
    stats = null_statistics(panel, table, [spec], permutations, master_seed,
                            scaling, threads, blocks)[0]
    valid = stats[~np.isnan(stats)]
    skipped = permutations - valid.size
    if skipped > MAX_SKIP_FRACTION * permutations:
        raise RandomizationError(
            f"{skipped}/{permutations} draws skipped for {spec.label()}"
        )
    if skipped:
        log.warning("%d/%d draws skipped for %s", skipped, permutations, spec.label())
    p = pvalue_from_draws(observed.pct_effect, valid, sided)
    return PermutationResult(
        observed=observed.pct_effect,
        null_draws=tuple(float(x) for x in valid),
        p_value=p,
        sided=sided,
        permutations=permutations,
        skipped=skipped,
    )
