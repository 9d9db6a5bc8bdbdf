"""Study data model: rosters, treatment design, layer construction, inclusion.

The panel is built in two steps. `apply_inclusion_criteria` filters raw roster
rows and survey responses down to the fixed two-wave panel and reports every
exclusion. `build_panel` then constructs one directed network per
(village, wave, layer) from the surviving name-generator responses; derived
networks (aggregated, directed union, residual, intra-household-excluded) are
resolved on demand from those base layers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from math import floor
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .networks import Edge, LayerNetwork, NetworkError, require_same_support

log = logging.getLogger(__name__)

BASE_LAYERS = ("health", "friendship", "financial")
DERIVED_LAYERS = ("social", "aggregated")
ALL_LAYERS = BASE_LAYERS + DERIVED_LAYERS
VARIANT_FLAGS = ("exclude_intra_household", "residual")
RESIDUAL_TARGETS = ("friendship", "financial")
WAVES = (1, 3)

ALLOWED_DOSAGES = (0.0, 0.05, 0.10, 0.20, 0.30, 0.50, 0.75, 1.0)
LOW_DOSAGES = frozenset((0.05, 0.10, 0.20, 0.30))
HIGH_DOSAGES = frozenset((0.50, 0.75, 1.0))


class IngestionError(ValueError):
    """Invalid input data; message carries the offending id or line number."""


def dosage_group(alpha: float) -> str:
    if alpha == 0.0:
        return "control"
    if alpha in LOW_DOSAGES:
        return "low"
    if alpha in HIGH_DOSAGES:
        return "high"
    raise ValueError(f"dosage {alpha} is not one of the allowed arms")


def treated_household_count(alpha: float, n_households: int) -> int:
    """Whole-household count implied by a dosage fraction (round half up)."""
    return int(floor(alpha * n_households + 0.5))


@dataclass(frozen=True)
class Individual:
    id: str
    household_id: str
    village_id: str
    treated: bool
    covariates: Mapping[str, float] | None = None


@dataclass(frozen=True)
class RosterRow:
    """One raw roster line prior to inclusion filtering.

    Wave-3 household/village default to the wave-1 values when the input does
    not carry them, so movers are detectable only when those columns exist.
    """

    individual_id: str
    household_id: str
    village_id: str
    treated: bool
    wave1_present: bool
    wave3_present: bool
    forms_complete: bool = True
    wave3_household_id: str | None = None
    wave3_village_id: str | None = None
    village_dosage: float | None = None
    covariates: Mapping[str, float] | None = None
    line: int | None = None


@dataclass(frozen=True)
class SurveyResponse:
    """A single name-generator nomination: ego named alter on one question."""

    wave: int
    village_id: str
    question_id: str
    ego: str
    alter: str
    line: int | None = None


@dataclass(frozen=True)
class LayerSpec:
    """Question ids feeding one layer; inverted questions name the tie source."""

    layer: str
    question_ids: tuple[str, ...]
    inverted: Mapping[str, bool]

    def __post_init__(self):
        for q in self.question_ids:
            if q not in self.inverted:
                raise IngestionError(f"layer {self.layer}: no inversion flag for question {q}")


DEFAULT_LAYER_SPECS = (
    LayerSpec("health", ("health_advice_get", "health_advice_give"),
              {"health_advice_get": False, "health_advice_give": True}),
    LayerSpec("friendship", ("friend_personal", "friend_free_time", "friend_closest"),
              {"friend_personal": False, "friend_free_time": False, "friend_closest": False}),
    LayerSpec("financial", ("money_borrow", "money_lend"),
              {"money_borrow": False, "money_lend": True}),
)


@dataclass
class TreatmentDesign:
    """Observed village dosages plus the household-level assignment vectors."""

    village_dosages: dict[str, float]
    assignments: dict[str, dict[str, bool]]

    def __post_init__(self):
        for v, alpha in self.village_dosages.items():
            if alpha not in ALLOWED_DOSAGES:
                raise IngestionError(f"village {v}: dosage {alpha} not an allowed arm")
            households = self.assignments.get(v)
            if households is None:
                raise IngestionError(f"village {v}: dosage without household assignment")
            n_treated = sum(households.values())
            if n_treated != treated_household_count(alpha, len(households)):
                raise IngestionError(
                    f"village {v}: {n_treated} treated households inconsistent with "
                    f"dosage {alpha} over {len(households)} households"
                )

    @property
    def villages(self) -> tuple[str, ...]:
        return tuple(sorted(self.village_dosages))

    def dosage_group(self, village_id: str) -> str:
        return dosage_group(self.village_dosages[village_id])

    def households(self, village_id: str) -> tuple[str, ...]:
        return tuple(sorted(self.assignments[village_id]))


def infer_design(
    individuals: Iterable[Individual],
    declared_dosages: Mapping[str, float] | None = None,
) -> TreatmentDesign:
    """Derive the treatment design from individual-level roster flags.

    Declared dosages (from a roster dosage column) are validated against the
    treated-household counts. Without them, the dosage is the allowed arm
    whose rounded household count reproduces the observed treated count,
    nearest to the empirical fraction when several qualify; that inference is
    ambiguous for some household counts, which is why declaring is preferred.
    """
    by_village: dict[str, dict[str, bool]] = {}
    for ind in individuals:
        households = by_village.setdefault(ind.village_id, {})
        prev = households.get(ind.household_id)
        if prev is not None and prev != ind.treated:
            raise IngestionError(
                f"household {ind.household_id} mixes treated and untreated members"
            )
        households[ind.household_id] = ind.treated

    dosages: dict[str, float] = {}
    for village, households in sorted(by_village.items()):
        n = len(households)
        n_treated = sum(households.values())
        candidates = [a for a in ALLOWED_DOSAGES if treated_household_count(a, n) == n_treated]
        if not candidates:
            raise IngestionError(
                f"village {village}: {n_treated}/{n} treated households matches no "
                f"allowed dosage arm"
            )
        if declared_dosages is not None and village in declared_dosages:
            declared = declared_dosages[village]
            if declared not in candidates:
                raise IngestionError(
                    f"village {village}: declared dosage {declared} inconsistent with "
                    f"{n_treated}/{n} treated households"
                )
            dosages[village] = declared
        else:
            fraction = n_treated / n
            dosages[village] = min(candidates, key=lambda a: (abs(a - fraction), a))
    return TreatmentDesign(dosages, by_village)


@dataclass
class ExclusionReport:
    """Counts of dropped roster rows and responses, by reason."""

    individuals: dict[str, int] = field(default_factory=dict)
    responses: dict[str, int] = field(default_factory=dict)

    def count_individual(self, reason: str) -> None:
        self.individuals[reason] = self.individuals.get(reason, 0) + 1

    def count_response(self, reason: str) -> None:
        self.responses[reason] = self.responses.get(reason, 0) + 1


INDIVIDUAL_EXCLUSION_REASONS = ("incomplete_forms", "absent", "moved")
RESPONSE_DROP_REASONS = ("excluded_ego", "excluded_alter", "cross_village")


def apply_inclusion_criteria(
    raw_roster: Sequence[RosterRow],
    raw_responses: Sequence[SurveyResponse],
) -> tuple[list[RosterRow], list[SurveyResponse], ExclusionReport]:
    """Restrict to the fixed panel: complete forms, present both waves, no moves.

    Responses naming an excluded individual lose the edge only; the respondent
    stays in the panel. Cross-village nominations are dropped with a count.
    A response naming an id absent from the roster altogether is an error.
    """
    report = ExclusionReport()
    known: dict[str, RosterRow] = {}
    for row in raw_roster:
        if row.individual_id in known:
            raise IngestionError(f"duplicate roster id {row.individual_id}")
        known[row.individual_id] = row

    kept: dict[str, RosterRow] = {}
    for rid in sorted(known):
        row = known[rid]
        if not row.forms_complete:
            report.count_individual("incomplete_forms")
            continue
        if not (row.wave1_present and row.wave3_present):
            report.count_individual("absent")
            continue
        moved_household = (row.wave3_household_id is not None
                           and row.wave3_household_id != row.household_id)
        moved_village = (row.wave3_village_id is not None
                         and row.wave3_village_id != row.village_id)
        if moved_household or moved_village:
            report.count_individual("moved")
            continue
        kept[rid] = row

    kept_responses: list[SurveyResponse] = []
    for resp in raw_responses:
        for endpoint in (resp.ego, resp.alter):
            if endpoint not in known:
                where = f" (line {resp.line})" if resp.line is not None else ""
                raise IngestionError(
                    f"response names unknown individual {endpoint}{where}"
                )
        if known[resp.ego].village_id != known[resp.alter].village_id:
            report.count_response("cross_village")
            continue
        if resp.ego not in kept:
            report.count_response("excluded_ego")
            continue
        if resp.alter not in kept:
            report.count_response("excluded_alter")
            continue
        kept_responses.append(resp)

    dropped = sum(report.responses.values())
    if dropped:
        log.info("inclusion filtering dropped %d responses: %s", dropped, report.responses)
    return [kept[rid] for rid in sorted(kept)], kept_responses, report


def build_layer(
    responses: Sequence[SurveyResponse],
    layer_spec: LayerSpec,
    village: str,
    wave: int,
    nodes: Sequence[str],
) -> LayerNetwork:
    """Union of nominations among a village's member ids; inverted questions flip direction."""
    node_set = set(nodes)
    question_set = set(layer_spec.question_ids)
    edges: set[Edge] = set()
    for resp in responses:
        if resp.village_id != village or resp.wave != wave:
            continue
        if resp.question_id not in question_set:
            raise IngestionError(
                f"response question {resp.question_id} not in layer {layer_spec.layer}"
            )
        if resp.ego not in node_set or resp.alter not in node_set:
            continue  # excluded individuals lose the edge only
        if resp.ego == resp.alter:
            where = f" (line {resp.line})" if resp.line is not None else ""
            raise IngestionError(f"self-nomination by {resp.ego}{where}")
        if layer_spec.inverted[resp.question_id]:
            edges.add((resp.alter, resp.ego))
        else:
            edges.add((resp.ego, resp.alter))
    return LayerNetwork(village, wave, layer_spec.layer, nodes, frozenset(edges), directed=True)


def aggregate_layers(health: LayerNetwork, friendship: LayerNetwork,
                     financial: LayerNetwork) -> LayerNetwork:
    """Undirected union: a tie of any kind in either direction is one edge."""
    require_same_support(health, friendship, financial)
    pairs = {frozenset(e) for net in (health, friendship, financial) for e in net.edges}
    edges = frozenset(tuple(sorted(p)) for p in pairs)
    return LayerNetwork(health.village_id, health.wave, "aggregated",
                        health.nodes, edges, directed=False)


def directed_union(health: LayerNetwork, friendship: LayerNetwork,
                   financial: LayerNetwork) -> LayerNetwork:
    """Directed union of the three base layers (the directed social network)."""
    require_same_support(health, friendship, financial)
    edges = health.edges | friendship.edges | financial.edges
    return LayerNetwork(health.village_id, health.wave, "social",
                        health.nodes, edges, directed=True)


def residual_network(target: LayerNetwork, health: LayerNetwork) -> LayerNetwork:
    """Remove same-direction health ties from a friendship/financial layer."""
    if target.layer not in RESIDUAL_TARGETS:
        raise NetworkError(f"residual networks are defined for {RESIDUAL_TARGETS}, "
                           f"not {target.layer}")
    require_same_support(target, health)
    return target.replace_edges(target.edges - health.edges)


def exclude_intra_household(network: LayerNetwork,
                            roster: Mapping[str, Individual]) -> LayerNetwork:
    """Drop edges whose endpoints share a household; nodes are unchanged."""
    def household(node: str) -> str:
        try:
            return roster[node].household_id
        except KeyError:
            raise IngestionError(f"node {node} has no roster entry") from None

    kept = frozenset(e for e in network.edges if household(e[0]) != household(e[1]))
    return network.replace_edges(kept)


_T = TypeVar("_T")


@dataclass
class StudyPanel:
    """Immutable bundle of individuals, design, and per-wave layer networks."""

    individuals: dict[str, Individual]
    design: TreatmentDesign
    networks: dict[tuple[str, int, str], LayerNetwork]

    def __post_init__(self):
        self._derived: dict[tuple, LayerNetwork] = {}
        self._compiled: dict[tuple, object] = {}
        grouped: dict[str, list[str]] = {}
        for ind in self.individuals.values():
            grouped.setdefault(ind.village_id, []).append(ind.id)
        self._members: dict[str, tuple[str, ...]] = {
            vid: tuple(sorted(ids)) for vid, ids in grouped.items()
        }
        for (village, wave, layer), net in self.networks.items():
            if net.nodes != self._members[village]:
                raise IngestionError(
                    f"network ({village}, {wave}, {layer}) node set does not match "
                    f"the village's included individuals"
                )

    @property
    def villages(self) -> tuple[str, ...]:
        return self.design.villages

    def members(self, village_id: str) -> tuple[str, ...]:
        return self._members[village_id]

    def treated_ids(self) -> frozenset[str]:
        return frozenset(i for i, ind in self.individuals.items() if ind.treated)

    def compiled(self, key: tuple, build: Callable[[], _T]) -> _T:
        """A structure derived from this panel (e.g. a compiled index), built once per key."""
        if key not in self._compiled:
            self._compiled[key] = build()
        return self._compiled[key]

    def network(self, village: str, wave: int, layer: str,
                variants: Sequence[str] = ()) -> LayerNetwork:
        """Resolve a base or derived network, applying variant edge filters."""
        variants = tuple(sorted(set(variants)))
        for flag in variants:
            if flag not in VARIANT_FLAGS:
                raise ValueError(f"unknown variant flag {flag}")
        if layer not in ALL_LAYERS:
            raise ValueError(f"unknown layer {layer}")
        if "residual" in variants and layer not in RESIDUAL_TARGETS:
            raise ValueError(f"residual variant undefined for layer {layer}")
        key = (village, wave, layer, variants)
        if key in self._derived:
            return self._derived[key]

        def base(name: str) -> LayerNetwork:
            try:
                return self.networks[(village, wave, name)]
            except KeyError:
                raise ValueError(f"no {name} network for village {village} wave {wave}") from None

        if layer in BASE_LAYERS:
            net = base(layer)
        elif layer == "aggregated":
            net = aggregate_layers(base("health"), base("friendship"), base("financial"))
        else:
            net = directed_union(base("health"), base("friendship"), base("financial"))
        if "residual" in variants:
            net = residual_network(net, base("health"))
        if "exclude_intra_household" in variants:
            net = exclude_intra_household(net, self.individuals)
        self._derived[key] = net
        return net


def build_panel(
    roster: Sequence[RosterRow],
    responses: Sequence[SurveyResponse],
    layer_specs: Sequence[LayerSpec] = DEFAULT_LAYER_SPECS,
) -> StudyPanel:
    """Assemble a StudyPanel from inclusion-filtered rows and responses."""
    question_to_layer: dict[str, LayerSpec] = {}
    for spec in layer_specs:
        for q in spec.question_ids:
            if q in question_to_layer:
                raise IngestionError(f"question {q} assigned to more than one layer")
            question_to_layer[q] = spec

    individuals = {
        row.individual_id: Individual(
            id=row.individual_id,
            household_id=row.household_id,
            village_id=row.village_id,
            treated=row.treated,
            covariates=row.covariates,
        )
        for row in roster
    }
    declared: dict[str, float] = {}
    for row in roster:
        if row.village_dosage is None:
            continue
        prev = declared.get(row.village_id)
        if prev is not None and prev != row.village_dosage:
            raise IngestionError(
                f"village {row.village_id}: conflicting declared dosages "
                f"{prev} and {row.village_dosage}"
            )
        declared[row.village_id] = row.village_dosage
    design = infer_design(individuals.values(), declared or None)

    household_villages: dict[str, str] = {}
    for ind in individuals.values():
        prev = household_villages.get(ind.household_id)
        if prev is not None and prev != ind.village_id:
            raise IngestionError(f"household {ind.household_id} spans two villages")
        household_villages[ind.household_id] = ind.village_id

    for resp in responses:
        if resp.wave not in WAVES:
            where = f" (line {resp.line})" if resp.line is not None else ""
            raise IngestionError(f"wave {resp.wave} outside the two-wave panel{where}")
        if resp.question_id not in question_to_layer:
            where = f" (line {resp.line})" if resp.line is not None else ""
            raise IngestionError(f"unknown question id {resp.question_id}{where}")

    members: dict[str, list[str]] = {}
    for ind_id in sorted(individuals):
        members.setdefault(individuals[ind_id].village_id, []).append(ind_id)
    by_cell: dict[tuple[str, int, str], list[SurveyResponse]] = {}
    for resp in responses:
        layer = question_to_layer[resp.question_id].layer
        by_cell.setdefault((resp.village_id, resp.wave, layer), []).append(resp)

    networks: dict[tuple[str, int, str], LayerNetwork] = {}
    for village in sorted(design.villages):
        for wave in WAVES:
            for spec in layer_specs:
                cell = by_cell.get((village, wave, spec.layer), [])
                networks[(village, wave, spec.layer)] = build_layer(
                    cell, spec, village, wave, tuple(members[village])
                )
    return StudyPanel(individuals, design, networks)
