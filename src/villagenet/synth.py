"""Synthetic two-wave study generator with analytically known planted effects.

Villages, households, and wave-1 directed layers are sampled from a small
configurable model; treatment follows the two-stage design. Wave 3 evolves by
independent per-dyad Bernoulli transitions whose keep/form probabilities
depend only on the dyad's category, which makes the dyadic logistic model
exactly correctly specified and gives closed-form expectations for every
degree-based estimate conditional on wave 1.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ALLOWED_DOSAGES,
    BASE_LAYERS,
    Individual,
    ScenarioError,
    StudyPanel,
    TreatmentDesign,
    treated_household_count,
)
from .dyadic import COARSE_OF_FINE, FINE_CATEGORIES as FINE_NAMES, refinement_codes
from .effects import ContrastKernel, effect_suite, enumerate_specs
from .metrics import MetricTable
from .networks import LayerNetwork

log = logging.getLogger(__name__)

_FINE_TO_COARSE = dict(zip(FINE_NAMES, COARSE_OF_FINE))

DEFAULT_DENSITIES = {"health": 0.020, "friendship": 0.050, "financial": 0.018}


# Each scenario key's JSON shape: a type (a float also takes an int, and no
# type takes a boolean), [shape] for a list of any length, (shape, ...) for a
# list of exactly those, or {str: shape} for an object.
_SHAPES = {"seed": int, "name": str, "arms": [(float, int)], "village_size": (int, int),
           "household_size": (int, int), "layers": [str], "edge_density": {str: float},
           "layer_overlap": float, "p_keep": {str: float}, "p_form": {str: float}}


def _of_shape(value, shape):
    """``value`` in ``shape``, lists as tuples, ints as floats; ValueError if it does not fit."""
    if isinstance(shape, dict) and isinstance(value, dict):
        return {k: _of_shape(v, shape[str]) for k, v in value.items()}
    if isinstance(shape, list) and isinstance(value, list):
        return tuple(_of_shape(v, shape[0]) for v in value)
    if isinstance(shape, tuple) and isinstance(value, list) and len(value) == len(shape):
        return tuple(map(_of_shape, value, shape))
    if (isinstance(shape, type) and not isinstance(value, bool)
            and isinstance(value, (int, float) if shape is float else shape)):
        return shape(value)
    raise ValueError(value)


@dataclass(frozen=True)
class SyntheticScenario:
    """Generator configuration; probabilities are planted oracle truth.

    ``p_keep``/``p_form`` map dyad categories to persistence / formation
    probabilities. Lookup falls back fine -> coarse -> UoUo, and control
    villages always use the UoUo probabilities.
    """

    seed: int = 0
    name: str = "scenario"
    arms: tuple[tuple[float, int], ...] = ((0.0, 4), (0.3, 4))
    village_size: tuple[int, int] = (30, 40)
    household_size: tuple[int, int] = (1, 6)
    layers: tuple[str, ...] = ("health",)
    edge_density: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_DENSITIES))
    layer_overlap: float = 0.0
    p_keep: Mapping[str, float] = field(default_factory=lambda: {"UoUo": 0.6444})
    p_form: Mapping[str, float] = field(default_factory=lambda: {"UoUo": 0.0077})

    def __post_init__(self):
        for alpha, count in self.arms:
            if alpha not in ALLOWED_DOSAGES:
                raise ScenarioError(f"dosage {alpha} is not an allowed arm")
            if count < 0:
                raise ScenarioError("arm village counts must be nonnegative")
        for layer in self.layers:
            if layer not in BASE_LAYERS:
                raise ScenarioError(f"unknown layer {layer}")
            if layer not in self.edge_density:
                raise ScenarioError(f"no edge density for layer {layer}")
        for mapping, what in ((self.p_keep, "p_keep"), (self.p_form, "p_form")):
            if "UoUo" not in mapping:
                raise ScenarioError(f"{what} must define the UoUo baseline")
            for cat, p in mapping.items():
                if not 0.0 <= p <= 1.0:
                    raise ScenarioError(f"{what}[{cat}]={p} outside [0, 1]")
        if not 0.0 <= self.layer_overlap <= 1.0:
            raise ScenarioError("layer_overlap must be in [0, 1]")
        lo, hi = self.village_size
        if not 2 <= lo <= hi:
            raise ScenarioError("village_size must satisfy 2 <= min <= max")
        lo, hi = self.household_size
        if not 1 <= lo <= hi:
            raise ScenarioError("household_size must satisfy 1 <= min <= max")

    @classmethod
    def from_dict(cls, d: Mapping) -> "SyntheticScenario":
        """The scenario a JSON object gives; absent keys take the defaults."""
        if not isinstance(d, dict):
            raise ScenarioError("a scenario must be a JSON object")
        fields = {}
        for key, value in d.items():
            try:
                fields[key] = _of_shape(value, _SHAPES[key])
            except KeyError:
                raise ScenarioError(f"unknown scenario key {key!r}; "
                                    f"expected one of {', '.join(_SHAPES)}") from None
            except (ValueError, OverflowError):   # float() of a huge integer overflows
                raise ScenarioError(f"scenario key {key}: expected a value like "
                                    f"{json.dumps(getattr(cls(), key))}, "
                                    f"got {json.dumps(value, default=repr)}") from None
        return cls(**fields)

    def resolve_probability(self, mapping: Mapping[str, float], fine_label: str) -> float:
        """Fine -> coarse -> UoUo fallback for a planted probability."""
        if fine_label in mapping:
            return mapping[fine_label]
        coarse = _FINE_TO_COARSE[fine_label]
        if coarse in mapping:
            return mapping[coarse]
        return mapping["UoUo"]


def _logit(p: float) -> float:
    if p <= 0.0:
        return float("-inf")
    if p >= 1.0:
        return float("inf")
    return math.log(p / (1.0 - p))


@dataclass
class OracleTruth:
    """Planted truth attached to a generated panel.

    Log-odds contrasts are exact functions of the scenario; expected
    percentage effects are exact expectations over wave-3 transitions
    conditional on the realized wave-1 panel and assignment.
    """

    dissolution_logodds: dict[str, float]
    formation_logodds: dict[str, float]
    expected_pct: dict[str, float]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Wave1State:
    """Realized wave-1 panel plus each dyad's wave-3 link probability.

    ``link_prob`` is p_keep on a wave-1 link and p_form off one, with a zero diagonal.
    """

    scenario: SyntheticScenario
    individuals: dict[str, Individual]
    design: TreatmentDesign
    members: dict[str, tuple[str, ...]]
    adjacency_w1: dict[tuple[str, str], np.ndarray]
    link_prob: dict[tuple[str, str], np.ndarray]

    @property
    def villages(self) -> tuple[str, ...]:
        return tuple(sorted(self.members))


def generate_wave1_state(scenario: SyntheticScenario) -> Wave1State:
    """Sample villages, assignment, and wave-1 layers; attach planted probs."""
    rng = np.random.default_rng(scenario.seed)
    individuals: dict[str, Individual] = {}
    dosages: dict[str, float] = {}
    assignments: dict[str, dict[str, bool]] = {}
    members: dict[str, tuple[str, ...]] = {}

    v_counter = 0
    for alpha, count in scenario.arms:
        for _ in range(count):
            village = f"v{v_counter:03d}"
            v_counter += 1
            size = int(rng.integers(scenario.village_size[0], scenario.village_size[1] + 1))
            # Partition individuals into households of bounded size.
            household_sizes: list[int] = []
            remaining = size
            while remaining > 0:
                s = int(rng.integers(scenario.household_size[0],
                                     scenario.household_size[1] + 1))
                household_sizes.append(min(s, remaining))
                remaining -= household_sizes[-1]
            households = [f"{village}_h{k:03d}" for k in range(len(household_sizes))]
            n_treated = treated_household_count(alpha, len(households))
            chosen = rng.choice(len(households), size=n_treated, replace=False)
            treated_households = {households[int(c)] for c in chosen}
            assignments[village] = {h: (h in treated_households) for h in households}
            dosages[village] = alpha

            ids = []
            k = 0
            for h, h_size in zip(households, household_sizes):
                for _ in range(h_size):
                    iid = f"{village}_i{k:04d}"
                    k += 1
                    ids.append(iid)
                    individuals[iid] = Individual(
                        id=iid, household_id=h, village_id=village,
                        treated=(h in treated_households),
                    )
            members[village] = tuple(sorted(ids))

    design = TreatmentDesign(dosages, assignments)
    # by (fine code, wave-1 link): p_form off a link, p_keep on one
    lookup = np.array([[scenario.resolve_probability(mapping, f)
                        for mapping in (scenario.p_form, scenario.p_keep)] for f in FINE_NAMES])

    adjacency: dict[tuple[str, str], np.ndarray] = {}
    link_prob: dict[tuple[str, str], np.ndarray] = {}
    for village in sorted(members):
        mem = members[village]
        n = len(mem)
        off = ~np.eye(n, dtype=bool)
        treated = np.array([individuals[m].treated for m in mem])
        health_key = (village, "health")
        for layer in scenario.layers:
            p_edge = scenario.edge_density[layer]
            a1 = (rng.random((n, n)) < p_edge) & off
            if layer != "health" and scenario.layer_overlap > 0.0 and health_key in adjacency:
                copied = adjacency[health_key] & (rng.random((n, n)) < scenario.layer_overlap)
                a1 |= copied & off
            adjacency[(village, layer)] = a1

            if design.village_dosages[village] == 0.0:
                fine_code = np.zeros((n, n), dtype=np.int8)
            else:
                rcode = refinement_codes(*np.nonzero(a1), treated)
                fine_code = (rcode[:, None] * 4 + rcode[None, :] + 1).astype(np.int8)
            prob = lookup[fine_code, a1.view(np.int8)]
            np.fill_diagonal(prob, 0.0)
            link_prob[(village, layer)] = prob

    return Wave1State(scenario, individuals, design, members, adjacency, link_prob)


def sample_wave3(state: Wave1State, rng: np.random.Generator) -> dict[tuple[str, str], np.ndarray]:
    """Independent per-dyad transitions from the realized wave 1, in the state's order."""
    return {key: rng.random(prob.shape) < prob for key, prob in state.link_prob.items()}


def _networks_from_matrices(state: Wave1State, wave: int,
                            matrices: Mapping[tuple[str, str], np.ndarray]
                            ) -> dict[tuple[str, int, str], LayerNetwork]:
    nets = {}
    for (village, layer), mat in matrices.items():
        nets[(village, wave, layer)] = LayerNetwork(village, wave, layer, state.members[village],
                                                    pairs=np.nonzero(mat))
    return nets


def panel_from_state(state: Wave1State,
                     wave3: Mapping[tuple[str, str], np.ndarray]) -> StudyPanel:
    """Assemble a StudyPanel; absent layers get empty networks for closure."""
    networks = _networks_from_matrices(state, 1, state.adjacency_w1)
    networks.update(_networks_from_matrices(state, 3, wave3))
    for village in state.villages:
        mem = state.members[village]
        for layer in BASE_LAYERS:
            for wave in (1, 3):
                if (village, wave, layer) not in networks:
                    networks[(village, wave, layer)] = LayerNetwork(
                        village, wave, layer, mem, pairs=((), ()))
    return StudyPanel(dict(state.individuals), state.design, networks)


def expected_degree_table(state: Wave1State, panel: StudyPanel, layer: str) -> MetricTable:
    """Degree metrics with wave-3 values replaced by exact expectations.

    E[wave-3 out-degree of i] = sum_j (A1_ij * p_keep_ij + (1 - A1_ij) *
    p_form_ij); in-degree transposes, total adds. Wave-1 values are realized.
    Rows follow ``panel.index``; ``panel`` is the state's panel.
    """
    index = panel.index
    n = len(index.individuals)
    values = {(w, m): np.full(n, np.nan)
              for w in (1, 3) for m in ("degree", "in_degree", "out_degree")}
    for village, rows in zip(index.villages, index.members):
        a1 = state.adjacency_w1[(village, layer)]
        expected = state.link_prob[(village, layer)]
        out1, in1 = a1.sum(axis=1), a1.sum(axis=0)
        out3, in3 = expected.sum(axis=1), expected.sum(axis=0)
        for wave, out, into in ((1, out1, in1), (3, out3, in3)):
            values[(wave, "out_degree")][rows] = out
            values[(wave, "in_degree")][rows] = into
            values[(wave, "degree")][rows] = out + into
    villages = tuple(index.villages[k] for k in index.village.tolist())
    return MetricTable(layer=layer, variants=(), directed=True,
                       individuals=index.individuals, villages=villages, values=values)


def compute_oracle(state: Wave1State, panel: StudyPanel,
                   scopes: Sequence[str] = ("all",),
                   kinds: Sequence[str] = ("overall", "total", "spillover", "direct"),
                   ) -> OracleTruth:
    """Planted log-odds plus exact expected percentage effects on the state's ``panel``.

    Only the panel's index and wave-1 networks are read; its wave 3 never is.
    """
    sc = state.scenario
    keep0 = sc.p_keep["UoUo"]
    form0 = sc.p_form["UoUo"]
    categories = sorted(set(list(sc.p_keep) + list(sc.p_form)) - {"UoUo"})
    dissolution = {"(Intercept)": _logit(1.0 - keep0)}
    formation = {"(Intercept)": _logit(form0)}
    for cat in categories:
        pk = sc.p_keep.get(cat, keep0)
        pf = sc.p_form.get(cat, form0)
        dissolution[cat] = _logit(1.0 - pk) - _logit(1.0 - keep0)
        formation[cat] = _logit(pf) - _logit(form0)

    expected_pct: dict[str, float] = {}
    for layer in sc.layers:
        specs = enumerate_specs([layer], ["degree", "in_degree", "out_degree"], scopes, kinds)
        if not specs:
            continue
        kernel = ContrastKernel(panel, specs, expected_degree_table(state, panel, layer))
        pct = kernel.evaluate(*panel.index.observed).pct
        expected_pct.update((spec.label(), float(p)) for spec, p in zip(specs, pct)
                            if not math.isnan(p))   # undefined contrasts have no oracle
    return OracleTruth(dissolution, formation, expected_pct)


def generate_panel(scenario: SyntheticScenario,
                   scopes: Sequence[str] = ("all",),
                   ) -> tuple[StudyPanel, OracleTruth]:
    """One synthetic study: panel plus its planted oracle truth.

    Wave-3 sampling uses an RNG stream separate from wave-1 generation so the
    wave-1 state (and hence the oracle) is reproducible independently.
    """
    state = generate_wave1_state(scenario)
    w3_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=scenario.seed, spawn_key=(1,))))
    panel = panel_from_state(state, sample_wave3(state, w3_rng))
    oracle = compute_oracle(state, panel, scopes=scopes)
    return panel, oracle


# ---------------------------------------------------------------------------
# Replication / calibration harness.

def ks_uniform(values: Sequence[float]) -> float:
    """Kolmogorov-Smirnov distance of a sample from U(0, 1)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 0:
        raise ScenarioError("ks_uniform needs at least one value")
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - x), np.max(x - grid_lo)))


@dataclass
class CalibrationRow:
    replicate: int
    spec_label: str
    estimate_pct: float
    oracle_pct: float
    p_value: float | None


@dataclass
class CalibrationReport:
    rows: list[CalibrationRow]
    summary: dict[str, dict[str, float]]


def replicate_study(
    scenario: SyntheticScenario,
    n_replicates: int,
    layers: Sequence[str] = ("health",),
    metrics: Sequence[str] = ("degree",),
    scopes: Sequence[str] = ("all",),
    kinds: Sequence[str] = ("total",),
    permutations: int = 0,
    threads: int = 1,
) -> CalibrationReport:
    """Run the estimation pipeline on fresh panels and compare with oracle.

    Replicate seeds derive from the scenario seed, so reports are reproducible
    and insensitive to evaluation order.
    """
    if n_replicates < 1:
        raise ScenarioError("n_replicates must be >= 1")
    rows: list[CalibrationRow] = []
    for rep in range(n_replicates):
        rep_entropy = np.random.SeedSequence(entropy=scenario.seed, spawn_key=(rep, 17))
        rep_seed = int(rep_entropy.generate_state(1)[0])
        panel, oracle = generate_panel(replace(scenario, seed=rep_seed), scopes=scopes)
        for est in effect_suite(panel, layers, metrics, scopes, kinds,
                                permutations=permutations, master_seed=rep_seed + 1,
                                threads=threads):
            rows.append(CalibrationRow(
                replicate=rep,
                spec_label=est.spec.label(),
                estimate_pct=est.pct_effect,
                oracle_pct=oracle.expected_pct.get(est.spec.label(), float("nan")),
                p_value=est.p_value,
            ))

    summary: dict[str, dict[str, float]] = {}
    for label in sorted({r.spec_label for r in rows}):
        sub = [r for r in rows if r.spec_label == label]
        estimates = np.array([r.estimate_pct for r in sub])
        oracles = np.array([r.oracle_pct for r in sub])
        defined = not np.isnan(oracles).all()
        if not defined:
            log.warning("%s: no oracle value, so mean_oracle and bias are NA", label)
        mean_oracle = float(np.nanmean(oracles)) if defined else float("nan")
        entry: dict[str, float] = {
            "replicates": float(len(sub)),
            "mean_estimate": float(estimates.mean()),
            "mean_oracle": mean_oracle,
            "bias": float(estimates.mean() - mean_oracle),
        }
        signed = [(e, o) for e, o in zip(estimates, oracles)
                  if not math.isnan(o) and o != 0.0]
        if signed:
            entry["sign_coverage"] = float(np.mean(
                [math.copysign(1, e) == math.copysign(1, o) for e, o in signed]))
        pvals = [r.p_value for r in sub if r.p_value is not None]
        if pvals:
            entry["p_ks_uniform"] = ks_uniform(pvals)
        summary[label] = entry
    return CalibrationReport(rows=rows, summary=summary)
