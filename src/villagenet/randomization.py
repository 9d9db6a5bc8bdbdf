"""Two-stage re-randomization and Monte-Carlo-exact permutation p-values.

Under the sharp null the observed networks are fixed; each draw re-assigns
the village dosage labels (stage 1, optionally within blocks) and re-samples
treated households at the drawn dosage (stage 2). Group membership and the
test statistic are recomputed per draw. Each draw owns an independent RNG
stream derived from (master_seed, draw_index), so results are identical no
matter how draws are split across worker processes.

The design is compiled once into index arrays (`DesignIndex`): the observed
dosage per village and each village's households as a slice of one global
household order. Each individual's household index in that order comes from
the panel's study-wide index (`core.StudyIndex.household`). A draw
(`permute_assignment`, the only draw path) writes a dosage per village and a
treated flag per household directly, with the same RNG calls in the same
order as always: one ``permutation`` per block group (blocks sorted), then
one ``choice(n_households, n_treated, replace=False)`` per village in design
order. Individual treatment is one gather from the household flags, and the
`effects.ContrastKernel` turns the draw into every spec's statistic with one
mask product; the observed statistic goes through the same kernel, so
``|T| >= |obs|`` ties are decided by one code path. `permutation_suite` (many
specs, estimates with p-values) and `permutation_pvalue` (one spec, with its
null draws) are two views of one body, `_permuted`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .core import SIDES, StudyPanel, TreatmentDesign, treated_household_count
from .effects import ContrastKernel, ContrastSpec, EffectEstimate
from .metrics import MetricTable, metric_table

log = logging.getLogger(__name__)

MAX_SKIP_FRACTION = 0.10


class RandomizationError(RuntimeError):
    """The permutation scheme cannot produce a valid null distribution."""


def derive_stream(master_seed: int, draw_index: int) -> np.random.Generator:
    """Independent per-draw RNG stream; draw i never depends on draws < i."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(draw_index,))
    return np.random.Generator(np.random.PCG64(seq))


class DesignIndex:
    """A treatment design compiled to index arrays for drawing assignments.

    Villages follow the design's (sorted) order; households are numbered
    village by village, in sorted order within each village, as in
    `core.StudyIndex.household`.
    """

    def __init__(self, design: TreatmentDesign, blocks: Mapping[str, str] | None = None):
        self.villages = design.villages
        self.labels = np.array([design.village_dosages[v] for v in self.villages], dtype=float)
        self.sizes = [len(design.households(v)) for v in self.villages]
        self.offsets = [0, *np.cumsum(self.sizes).tolist()]
        if blocks is None:
            self.groups = [np.arange(len(self.villages))]
        else:
            missing = [v for v in self.villages if v not in blocks]
            if missing:
                raise RandomizationError(f"villages without a block label: {missing}")
            self.groups = [np.array([k for k, v in enumerate(self.villages) if blocks[v] == b])
                           for b in sorted(set(blocks[v] for v in self.villages))]


@dataclass(frozen=True, eq=False)
class AssignmentDraw:
    """One two-stage draw: a dosage per village and a treated flag per household.

    Both arrays follow the `DesignIndex` order.
    """

    dosages: np.ndarray
    treated: np.ndarray


def permute_assignment(
    design: TreatmentDesign | DesignIndex,
    rng: np.random.Generator,
    blocks: Mapping[str, str] | None = None,
) -> AssignmentDraw:
    """One two-stage re-randomization of the observed design.

    Stage 1 permutes the observed dosage labels across villages (within
    blocks when given), preserving the dosage multiset exactly. Stage 2
    samples a uniform treated-household subset of the dosage-implied size.
    A `TreatmentDesign` is compiled with ``blocks`` first; a `DesignIndex`
    is drawn from as compiled.
    """
    index = design if isinstance(design, DesignIndex) else DesignIndex(design, blocks)
    dosages = np.empty_like(index.labels)
    for group in index.groups:
        dosages[group] = index.labels[group][rng.permutation(group.size)]
    treated = np.zeros(index.offsets[-1], dtype=bool)
    for village, alpha, n_households, offset in zip(index.villages, dosages.tolist(),
                                                    index.sizes, index.offsets):
        n_treated = treated_household_count(alpha, n_households)
        if n_treated > n_households:
            raise RandomizationError(
                f"village {village}: dosage {alpha} demands {n_treated} treated "
                f"households but only {n_households} exist"
            )
        treated[offset + rng.choice(n_households, size=n_treated, replace=False)] = True
    return AssignmentDraw(dosages, treated)


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


def _null_chunk(kernel: ContrastKernel, design: DesignIndex, household: np.ndarray,
                master_seed: int, scaling: str, start: int, stop: int) -> np.ndarray:
    """Null statistics of draws start..stop-1, one column per draw."""
    out = np.empty((len(kernel.specs), stop - start))
    for j in range(start, stop):
        draw = permute_assignment(design, derive_stream(master_seed, j))
        out[:, j - start] = kernel.evaluate(draw.dosages, draw.treated[household], scaling).pct
    return out


def null_statistics(
    panel: StudyPanel,
    kernel: ContrastKernel,
    permutations: int,
    master_seed: int,
    scaling: str = "control_w1",
    threads: int = 1,
    blocks: Mapping[str, str] | None = None,
) -> np.ndarray:
    """(n_specs, permutations) null statistics of the kernel's specs; NaN marks a skipped draw.

    With ``threads`` > 1 contiguous chunks of draws run in forked worker
    processes, which receive only the compiled kernel and design.
    """
    if permutations < 1:
        raise ValueError("permutations must be >= 1")
    design = DesignIndex(panel.design, blocks)
    chunk = partial(_null_chunk, kernel, design, panel.index.household, master_seed, scaling)
    if threads <= 1 or permutations < 2 * threads:
        return chunk(0, permutations)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.linspace(0, permutations, threads + 1).astype(int).tolist()
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=threads, mp_context=ctx) as pool:
        parts = list(pool.map(chunk, bounds[:-1], bounds[1:]))
    return np.concatenate(parts, axis=1)


def _valid_draws(draws: np.ndarray, spec: ContrastSpec) -> np.ndarray:
    """A spec's defined null statistics; too many skipped draws is an error."""
    valid = draws[~np.isnan(draws)]
    skipped = draws.size - valid.size
    if skipped > MAX_SKIP_FRACTION * draws.size:
        raise RandomizationError(
            f"{skipped}/{draws.size} draws skipped for {spec.label()}; "
            f"the permutation scheme is incompatible with this contrast"
        )
    if skipped:
        log.warning("%d/%d draws skipped for %s", skipped, draws.size, spec.label())
    return valid


def _permuted(panel: StudyPanel, table: MetricTable, specs: Sequence[ContrastSpec],
              permutations: int, master_seed: int, scaling: str, threads: int,
              blocks: Mapping[str, str] | None,
              sided: str) -> list[tuple[EffectEstimate, np.ndarray]]:
    """Each spec's observed estimate with its p-value, and the defined null draws behind it.

    The observed statistic and every null statistic come from one kernel.
    """
    kernel = ContrastKernel(panel, specs, table)
    observed = kernel.estimates(*panel.index.observed, scaling)
    stats = null_statistics(panel, kernel, permutations, master_seed, scaling, threads, blocks)
    results = []
    for est, draws in zip(observed, stats):
        valid = _valid_draws(draws, est.spec)
        results.append((replace(est, p_value=pvalue_from_draws(est.pct_effect, valid, sided),
                                permutations=permutations,
                                skipped_draws=permutations - valid.size), valid))
    return results


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
    if not specs:
        return []
    return [est for est, _ in _permuted(panel, table, specs, permutations, master_seed,
                                        scaling, threads, blocks, sided)]


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
        table = metric_table(panel, spec.layer, spec.variant_flags, (spec.metric,))
    ((est, valid),) = _permuted(panel, table, [spec], permutations, master_seed,
                                scaling, threads, blocks, sided)
    return PermutationResult(observed=est.pct_effect,
                             null_draws=tuple(float(x) for x in valid),
                             p_value=est.p_value, sided=sided, permutations=permutations,
                             skipped=est.skipped_draws)
