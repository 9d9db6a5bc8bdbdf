"""Two-stage re-randomization and Monte-Carlo-exact permutation p-values.

Under the sharp null the observed networks are fixed; each draw re-assigns
the village dosage labels (stage 1, optionally within blocks) and re-samples
treated households at the drawn dosage (stage 2). Group membership and the
test statistic are recomputed per draw. Each draw owns an independent RNG
stream derived from (master_seed, draw_index), so results are identical no
matter how draws are split across worker processes.

A draw (`permute_assignment`, the only draw path) reads the study's one
integer index (`core.StudyIndex`): the observed dosage per village and each
village's households as the slice ``offsets[k]:offsets[k + 1]`` of one
household numbering. It writes a dosage per village and a treated flag per
household directly, with the same RNG calls in the same order as always: one
``permutation`` per block group (`block_groups`, blocks sorted), then one
``choice(n_households, n_treated, replace=False)`` per village in design
order. Individual treatment is one gather from the household flags
(`StudyIndex.household`), and each `effects.ContrastKernel` (one per layer and
variant) turns the draw into its specs' statistics with one mask product. One
run makes each draw once and every kernel evaluates it, so all contrasts share
one set of null assignments; the observed statistic goes through the same
kernels, so ``|T| >= |obs|`` ties are decided by one code path.
`effects.effect_suite` (many kernels) and `permutation_pvalue` (one spec, with
its null draws) are two views of one body, `permuted_estimates`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .core import SIDES, StudyIndex, StudyPanel, treated_household_count
from .effects import ContrastKernel, ContrastSpec, EffectEstimate
from .metrics import metric_table

log = logging.getLogger(__name__)

MAX_SKIP_FRACTION = 0.10


class RandomizationError(RuntimeError):
    """The permutation scheme cannot produce a valid null distribution."""


def derive_stream(master_seed: int, draw_index: int) -> np.random.Generator:
    """Independent per-draw RNG stream; draw i never depends on draws < i."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(draw_index,))
    return np.random.Generator(np.random.PCG64(seq))


def block_groups(villages: Sequence[str],
                 blocks: Mapping[str, str] | None = None) -> list[np.ndarray]:
    """Village positions permuted together: one array per sorted block, or one of all."""
    if blocks is None:
        return [np.arange(len(villages))]
    missing = [v for v in villages if v not in blocks]
    if missing:
        raise RandomizationError(f"villages without a block label: {missing}")
    return [np.array([k for k, v in enumerate(villages) if blocks[v] == b])
            for b in sorted(set(blocks[v] for v in villages))]


def permute_assignment(study: StudyIndex, groups: Sequence[np.ndarray],
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One two-stage re-randomization of the observed design.

    Stage 1 permutes the observed dosage labels across villages within each
    of ``groups``, preserving the dosage multiset exactly. Stage 2 samples a
    uniform treated-household subset of the dosage-implied size (at most the
    village's households, as every dosage is at most 1). Returns a dosage per
    village and a treated flag per household, in `StudyIndex` order.
    """
    labels, offsets = study.observed[0], study.offsets
    dosages = np.empty_like(labels)
    for group in groups:
        dosages[group] = labels[group][rng.permutation(group.size)]
    treated = np.zeros(offsets[-1], dtype=bool)
    for alpha, lo, hi in zip(dosages.tolist(), offsets, offsets[1:]):
        n_treated = treated_household_count(alpha, hi - lo)
        treated[lo + rng.choice(hi - lo, size=n_treated, replace=False)] = True
    return dosages, treated


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


def _null_chunk(kernels: Sequence[ContrastKernel], study: StudyIndex,
                groups: Sequence[np.ndarray], master_seed: int, scaling: str,
                start: int, stop: int) -> np.ndarray:
    """Null statistics of draws start..stop-1, one column per draw.

    Each draw is made once; every kernel evaluates it into its own rows.
    """
    bounds = np.cumsum([0] + [len(kernel.specs) for kernel in kernels]).tolist()
    rows = [(kernel, slice(lo, hi)) for kernel, lo, hi in zip(kernels, bounds, bounds[1:])]
    out = np.empty((bounds[-1], stop - start))
    for j in range(start, stop):
        dosages, treated = permute_assignment(study, groups, derive_stream(master_seed, j))
        treated = treated[study.household]
        for kernel, block in rows:
            out[block, j - start] = kernel.evaluate(dosages, treated, scaling).pct
    return out


def null_statistics(
    panel: StudyPanel,
    kernels: Sequence[ContrastKernel],
    permutations: int,
    master_seed: int,
    scaling: str = "control_w1",
    threads: int = 1,
    blocks: Mapping[str, str] | None = None,
) -> np.ndarray:
    """(specs, permutations) null statistics of the kernels' specs; NaN marks a skipped draw.

    Rows follow the kernels' specs in order. The block groups are formed once
    and every kernel reads the same draws. With ``threads`` > 1 contiguous
    chunks of draws run in one pool of forked worker processes, which receive
    only the compiled kernels, the study index and the groups.
    """
    study = panel.index
    chunk = partial(_null_chunk, kernels, study, block_groups(study.villages, blocks),
                    master_seed, scaling)
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


def permuted_estimates(panel: StudyPanel, kernels: Sequence[ContrastKernel], permutations: int,
                       master_seed: int, scaling: str = "control_w1", threads: int = 1,
                       blocks: Mapping[str, str] | None = None,
                       sided: str = "two") -> list[tuple[EffectEstimate, np.ndarray]]:
    """Every kernel's observed estimates with p-values, and the defined null draws behind each.

    The observed statistic and every null statistic come from one kernel, and
    all kernels share one set of ``permutations`` draws. Without draws (or
    without kernels) the estimates carry no p-value.
    """
    observed = [est for kernel in kernels
                for est in kernel.estimates(*panel.index.observed, scaling)]
    if permutations < 1 or not observed:
        return [(est, np.empty(0)) for est in observed]
    stats = null_statistics(panel, kernels, permutations, master_seed, scaling, threads, blocks)
    results = []
    for est, draws in zip(observed, stats):
        valid = _valid_draws(draws, est.spec)
        results.append((replace(est, p_value=pvalue_from_draws(est.pct_effect, valid, sided),
                                permutations=permutations,
                                skipped_draws=permutations - valid.size), valid))
    return results


def permutation_pvalue(
    panel: StudyPanel,
    spec: ContrastSpec,
    permutations: int,
    master_seed: int,
    scaling: str = "control_w1",
    threads: int = 1,
    blocks: Mapping[str, str] | None = None,
    sided: str = "two",
) -> PermutationResult:
    """Full permutation result (observed, null draws, p) for one contrast."""
    if permutations < 1:
        raise ValueError("permutations must be >= 1")
    table = metric_table(panel, spec.layer, spec.variant_flags, (spec.metric,))
    ((est, valid),) = permuted_estimates(panel, [ContrastKernel(panel, [spec], table)],
                                         permutations, master_seed, scaling, threads,
                                         blocks, sided)
    return PermutationResult(observed=est.pct_effect,
                             null_draws=tuple(float(x) for x in valid),
                             p_value=est.p_value, sided=sided, permutations=permutations,
                             skipped=est.skipped_draws)
