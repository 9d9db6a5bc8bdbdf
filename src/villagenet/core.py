"""Study data model: rosters, treatment design, layer construction, inclusion.

The panel is built in two steps. `apply_inclusion_criteria` filters the raw
roster and survey-response tables (one column per field) down to the fixed
two-wave panel and reports every exclusion. `build_panel` then constructs one
directed network per (village, wave, layer) from the surviving name-generator
responses; derived networks (aggregated, directed union, residual,
intra-household-excluded) are resolved on demand from those base layers.
Every `StudyPanel` checks its networks against its study-wide integer index
(`StudyIndex`); ingested and read panels take their design from `infer_design`,
the one design rule. `has_treated_neighbor` is the one wave-1 exposure rule.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import product, repeat
from math import floor
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .networks import LayerNetwork, NetworkError, _sorted_unique, require_same_support

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

# The analyses' enumerations, kept here (one copy each) so that the CLI can
# validate options without importing the analysis modules.
METRICS = ("degree", "in_degree", "out_degree", "betweenness", "closeness", "clustering")
DIRECTED_ONLY_METRICS = ("in_degree", "out_degree")
CONTRAST_KINDS = ("overall", "total", "spillover", "direct",
                  "spillover_first_order", "spillover_higher_order")
DOSAGE_SCOPES = ("all", "low", "high")
SCALINGS = ("control_w1", "control_w3")
SIDES = ("two", "left", "right")
OUTCOMES = ("dissolution", "formation", "wave3_link")
SCHEMES = ("coarse", "fine")


class IngestionError(ValueError):
    """Invalid input data; message carries the offending id or line number."""


class ScenarioError(ValueError):
    """Invalid synthetic scenario configuration."""


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


def _rows_of(index: Mapping[str, int], names: Sequence[str]) -> np.ndarray:
    """index[name] for every name, -1 where the name is not a key."""
    return np.fromiter(map(index.get, names, repeat(-1)), dtype=np.intp, count=len(names))


@dataclass(frozen=True)
class RosterTable:
    """Raw roster lines prior to inclusion filtering, one column per field.

    Entry k of every column belongs to the same line. Wave-3 household and
    village are None where the input does not carry them, so movers are
    detectable only when those columns exist. ``covariates`` maps each
    covariate column to its values (None where blank); ``line`` holds 1-based
    input line numbers when the table was read from a file.
    """

    individual_id: Sequence[str]
    household_id: Sequence[str]
    village_id: Sequence[str]
    treated: np.ndarray
    wave1_present: np.ndarray
    wave3_present: np.ndarray
    forms_complete: np.ndarray
    wave3_household_id: Sequence[str | None]
    wave3_village_id: Sequence[str | None]
    village_dosage: Sequence[float | None]
    covariates: Mapping[str, Sequence[float | None]] = field(default_factory=dict)
    line: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.individual_id)

    def take(self, rows: Sequence[int]) -> "RosterTable":
        """The table restricted to ``rows``, in that order."""
        def pick(column):
            return [column[k] for k in rows]

        index = np.asarray(rows, dtype=np.intp)
        return RosterTable(
            pick(self.individual_id), pick(self.household_id), pick(self.village_id),
            self.treated[index], self.wave1_present[index], self.wave3_present[index],
            self.forms_complete[index], pick(self.wave3_household_id),
            pick(self.wave3_village_id), pick(self.village_dosage),
            {c: pick(values) for c, values in self.covariates.items()},
            None if self.line is None else self.line[index],
        )


@dataclass(frozen=True)
class CodedColumn:
    """A column of strings as one integer code per row into its distinct ``labels``."""

    labels: Sequence[str]
    codes: np.ndarray

    @classmethod
    def of(cls, values: Sequence[str]) -> "CodedColumn":
        """Labels in order of first appearance."""
        code = {v: k for k, v in enumerate(dict.fromkeys(values))}
        return cls(list(code), _rows_of(code, values))

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, k: int) -> str:
        return self.labels[self.codes[k]]

    def lookup(self, table: Mapping[str, int]) -> np.ndarray:
        """table[value] for every row, -1 where the value is not a key."""
        return _rows_of(table, self.labels)[self.codes]

    def relabel(self, fn: Callable[[str], str]) -> "CodedColumn":
        """Every value replaced by fn(value); rows whose new values agree share a code."""
        merged = CodedColumn.of([fn(label) for label in self.labels])
        return CodedColumn(merged.labels, merged.codes[self.codes])

    def take(self, keep: np.ndarray) -> "CodedColumn":
        return CodedColumn(self.labels, self.codes[keep])


@dataclass(frozen=True)
class ResponseTable:
    """Name-generator nominations, one column per field: ego named alter on one question.

    ``line`` holds 1-based input line numbers when the table was read from a
    file; error messages cite them.
    """

    wave: np.ndarray
    village_id: CodedColumn
    question_id: CodedColumn
    ego: CodedColumn
    alter: CodedColumn
    line: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.wave)

    def take(self, keep: np.ndarray) -> "ResponseTable":
        """The rows where the boolean mask ``keep`` is True, in input order."""
        return ResponseTable(
            self.wave[keep], self.village_id.take(keep), self.question_id.take(keep),
            self.ego.take(keep), self.alter.take(keep),
            None if self.line is None else self.line[keep],
        )

    def where(self, k: int) -> str:
        """Suffix naming the input line of row k, if known."""
        return "" if self.line is None else f" (line {int(self.line[k])})"


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
    """Village dosages and household assignment vectors; ``infer_design`` checks the rule."""

    village_dosages: dict[str, float]
    assignments: dict[str, dict[str, bool]]

    @property
    def villages(self) -> tuple[str, ...]:
        return tuple(sorted(self.village_dosages))


def infer_design(
    individuals: Collection[Individual],
    declared_dosages: Mapping[str, float] | None = None,
    infer_missing: bool = True,
) -> TreatmentDesign:
    """The design of individual-level flags: households share a flag and a village.

    Declared dosages (a roster dosage column, or an archive's village_dosages)
    must name villages with members and match their treated-household counts.
    An undeclared village is an error unless ``infer_missing``; its dosage is
    then the allowed arm whose rounded household count reproduces the treated
    count, nearest to the empirical fraction when several qualify (ambiguous
    for some household counts, which is why declaring is preferred).
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

    declared = declared_dosages or {}
    memberless = sorted(set(declared) - set(by_village))
    if memberless:
        raise IngestionError(f"village {memberless[0]}: declared dosage but no members")
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
        if village in declared:
            if declared[village] not in candidates:
                raise IngestionError(
                    f"village {village}: declared dosage {declared[village]} inconsistent "
                    f"with {n_treated}/{n} treated households"
                )
            dosages[village] = declared[village]
        elif not infer_missing:
            raise IngestionError(f"village {village}: no declared dosage")
        else:
            fraction = n_treated / n
            dosages[village] = min(candidates, key=lambda a: (abs(a - fraction), a))

    household_villages: dict[str, str] = {}
    for ind in individuals:
        if household_villages.setdefault(ind.household_id, ind.village_id) != ind.village_id:
            raise IngestionError(f"household {ind.household_id} spans two villages")
    return TreatmentDesign(dosages, by_village)


@dataclass
class ExclusionReport:
    """Counts of dropped roster rows and responses, by reason."""

    individuals: dict[str, int] = field(default_factory=dict)
    responses: dict[str, int] = field(default_factory=dict)


INDIVIDUAL_EXCLUSION_REASONS = ("incomplete_forms", "absent", "moved")


def apply_inclusion_criteria(
    raw_roster: RosterTable,
    raw_responses: ResponseTable,
) -> tuple[RosterTable, ResponseTable, ExclusionReport]:
    """Restrict to the fixed panel: complete forms, present both waves, no moves.

    Responses naming an excluded individual lose the edge only; the respondent
    stays in the panel. Cross-village nominations are dropped with a count.
    A response naming an id absent from the roster altogether is an error.
    Kept roster rows come back sorted by id, kept responses in input order.
    """
    report = ExclusionReport()
    ids = raw_roster.individual_id
    row_of = dict(zip(ids, range(len(ids))))
    if len(row_of) != len(ids):
        seen: set[str] = set()
        for rid in ids:
            if rid in seen:
                raise IngestionError(f"duplicate roster id {rid}")
            seen.add(rid)

    incomplete = ~raw_roster.forms_complete
    absent = ~incomplete & ~(raw_roster.wave1_present & raw_roster.wave3_present)
    moves = np.array([(h3 is not None and h3 != h) or (v3 is not None and v3 != v)
                      for h, v, h3, v3 in zip(raw_roster.household_id, raw_roster.village_id,
                                              raw_roster.wave3_household_id,
                                              raw_roster.wave3_village_id)], dtype=bool)
    moved = ~incomplete & ~absent & moves
    kept = ~(incomplete | absent | moved)
    for reason, mask in zip(INDIVIDUAL_EXCLUSION_REASONS, (incomplete, absent, moved)):
        if mask.any():
            report.individuals[reason] = int(mask.sum())

    ego = raw_responses.ego.lookup(row_of)
    alter = raw_responses.alter.lookup(row_of)
    unknown = (ego < 0) | (alter < 0)
    if unknown.any():
        k = int(np.argmax(unknown))
        name = raw_responses.ego[k] if ego[k] < 0 else raw_responses.alter[k]
        raise IngestionError(f"response names unknown individual {name}{raw_responses.where(k)}")
    village = CodedColumn.of(raw_roster.village_id).codes
    cross = village[ego] != village[alter]
    drops = {"cross_village": cross, "excluded_ego": ~cross & ~kept[ego],
             "excluded_alter": ~cross & kept[ego] & ~kept[alter]}
    # reasons in order of first occurrence, as a row-by-row count would list them
    for reason in sorted((r for r in drops if drops[r].any()),
                         key=lambda r: int(np.argmax(drops[r]))):
        report.responses[reason] = int(drops[reason].sum())
    keep = ~cross & kept[ego] & kept[alter]

    dropped = sum(report.responses.values())
    if dropped:
        log.info("inclusion filtering dropped %d responses: %s", dropped, report.responses)
    order = sorted(np.flatnonzero(kept).tolist(), key=ids.__getitem__)
    return raw_roster.take(order), raw_responses.take(keep), report


def aggregate_layers(health: LayerNetwork, friendship: LayerNetwork,
                     financial: LayerNetwork) -> LayerNetwork:
    """Undirected union: a tie of any kind in either direction is one edge."""
    return _union(health, friendship, financial, "aggregated", directed=False)


def directed_union(health: LayerNetwork, friendship: LayerNetwork,
                   financial: LayerNetwork) -> LayerNetwork:
    """Directed union of the three base layers (the directed social network)."""
    return _union(health, friendship, financial, "social", directed=True)


def _union(health: LayerNetwork, friendship: LayerNetwork, financial: LayerNetwork,
           layer: str, directed: bool) -> LayerNetwork:
    """All three layers' index pairs in one network; the constructor merges repeats."""
    nets = (health, friendship, financial)
    require_same_support(*nets)
    return LayerNetwork(health.village_id, health.wave, layer, health.nodes, directed=directed,
                        pairs=(np.concatenate([net.src for net in nets]),
                               np.concatenate([net.dst for net in nets])))


def residual_network(target: LayerNetwork, health: LayerNetwork) -> LayerNetwork:
    """Remove same-direction health ties from a friendship/financial layer."""
    if target.layer not in RESIDUAL_TARGETS:
        raise NetworkError(f"residual networks are defined for {RESIDUAL_TARGETS}, "
                           f"not {target.layer}")
    require_same_support(target, health)
    n = target.n
    return target.keep_edges(~np.isin(target.src * n + target.dst, health.src * n + health.dst))


def exclude_intra_household(network: LayerNetwork, household: np.ndarray) -> LayerNetwork:
    """Drop edges whose endpoints share a household; nodes are unchanged.

    ``household`` holds each node's household code, in node order.
    """
    return network.keep_edges(household[network.src] != household[network.dst])


def has_treated_neighbor(src: np.ndarray, dst: np.ndarray, treated: np.ndarray) -> np.ndarray:
    """The wave-1 exposure rule: a treated node is a neighbor in either direction.

    ``src``/``dst`` are the edges' endpoint indices into ``treated``.
    """
    n = treated.size
    return (np.bincount(src, weights=treated[dst], minlength=n)
            + np.bincount(dst, weights=treated[src], minlength=n)) > 0


@dataclass(frozen=True, eq=False)
class StudyIndex:
    """The study's village, household and individual levels as integer codes.

    Individuals are sorted by id study-wide (the `MetricTable` row order) and
    villages follow the design. ``members[k]`` holds the positions of village
    k's members in its networks' node order. Households, the unit of
    treatment, are numbered village by village, sorted within each: village
    k's are ``offsets[k]:offsets[k + 1]`` and ``household`` holds each
    individual's code. Re-randomization draws in this one numbering.
    ``observed`` is the panel's own assignment as (dosage per village,
    treated flag per individual). Each `StudyPanel` builds its own once, as
    `StudyPanel.index`.
    """

    individuals: tuple[str, ...]
    villages: tuple[str, ...]
    members: tuple[np.ndarray, ...]
    village: np.ndarray
    household: np.ndarray
    offsets: tuple[int, ...]
    observed: tuple[np.ndarray, np.ndarray]

    @classmethod
    def of(cls, panel: "StudyPanel") -> "StudyIndex":
        design, villages = panel.design, panel.design.villages
        individuals = tuple(sorted(panel.individuals))
        people = [panel.individuals[iid] for iid in individuals]
        village = _rows_of({v: k for k, v in enumerate(villages)}, [p.village_id for p in people])
        # a village's members in id order, the order of its networks' nodes
        members = tuple(np.split(np.argsort(village, kind="stable"),
                                 np.cumsum(np.bincount(village, minlength=len(villages)))[:-1]))
        households = [(v, h) for v in villages for h in sorted(design.assignments[v])]
        code = {vh: k for k, vh in enumerate(households)}
        offsets = (0, *np.cumsum([len(design.assignments[v]) for v in villages]).tolist())
        household = np.array([code[(p.village_id, p.household_id)] for p in people],
                             dtype=np.intp)
        dosages = np.array([design.village_dosages[v] for v in villages], dtype=float)
        treated = np.array([p.treated for p in people], dtype=bool)
        return cls(individuals, villages, members, village, household, offsets, (dosages, treated))


@dataclass
class StudyPanel:
    """Individuals, design and per-wave layer networks, checked against ``index`` when built."""

    individuals: dict[str, Individual]
    design: TreatmentDesign
    networks: dict[tuple[str, int, str], LayerNetwork]

    def __post_init__(self):
        self._networks: dict[tuple, LayerNetwork] = {}   # resolved by `network`
        self.index = index = StudyIndex.of(self)
        members = {v: tuple(map(index.individuals.__getitem__, rows.tolist()))
                   for v, rows in zip(index.villages, index.members)}
        for (village, wave, layer), net in self.networks.items():
            if net.nodes != members.get(village):
                raise IngestionError(
                    f"network ({village}, {wave}, {layer}) node set does not match "
                    f"the village's included individuals"
                )
        for village, wave, layer in product(index.villages, WAVES, BASE_LAYERS):
            if (village, wave, layer) not in self.networks:
                raise IngestionError(f"no {layer} network for village {village} wave {wave}")

    @property
    def villages(self) -> tuple[str, ...]:
        return self.index.villages

    def network(self, village: str, wave: int, layer: str,
                variants: Sequence[str] = ()) -> LayerNetwork:
        """Resolve a base or derived network, applying variant edge filters; kept once built."""
        variants = tuple(sorted(set(variants)))
        for flag in variants:
            if flag not in VARIANT_FLAGS:
                raise ValueError(f"unknown variant flag {flag}")
        if layer not in ALL_LAYERS:
            raise ValueError(f"unknown layer {layer}")
        key = (village, wave, layer, variants)
        if key in self._networks:
            return self._networks[key]

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
            study = self.index
            nodes = study.members[study.villages.index(village)]
            net = exclude_intra_household(net, study.household[nodes])
        self._networks[key] = net
        return net


def build_panel(
    roster: RosterTable,
    responses: ResponseTable,
    layer_specs: Sequence[LayerSpec] = DEFAULT_LAYER_SPECS,
) -> StudyPanel:
    """Assemble a StudyPanel from inclusion-filtered roster and responses.

    A nomination is a tie in the (village, wave, layer) cell its village
    column names, from ego to alter (alter to ego on inverted questions),
    when both ends are members of that village; repeated ties merge. Every
    cell gets a network, with isolates.
    """
    question_code = {q: 2 * k + int(spec.inverted[q])   # 2 * spec index + inverted
                     for k, spec in enumerate(layer_specs) for q in spec.question_ids}

    individuals: dict[str, Individual] = {}
    covariate_columns = tuple(roster.covariates.items())
    for k, (iid, household, village, treated) in enumerate(zip(
            roster.individual_id, roster.household_id, roster.village_id,
            roster.treated.tolist())):
        covariates = {c: values[k] for c, values in covariate_columns if values[k] is not None}
        individuals[iid] = Individual(iid, household, village, treated, covariates or None)
    declared: dict[str, float] = {}
    for village, dosage in zip(roster.village_id, roster.village_dosage):
        if dosage is None:
            continue
        prev = declared.get(village)
        if prev is not None and prev != dosage:
            raise IngestionError(
                f"village {village}: conflicting declared dosages {prev} and {dosage}"
            )
        declared[village] = dosage
    design = infer_design(individuals.values(), declared)

    wave = responses.wave
    code = responses.question_id.lookup(question_code)
    bad_wave = (wave != WAVES[0]) & (wave != WAVES[1])
    bad = bad_wave | (code < 0)
    if bad.any():
        k = int(np.argmax(bad))
        if bad_wave[k]:
            raise IngestionError(
                f"wave {int(wave[k])} outside the two-wave panel{responses.where(k)}")
        raise IngestionError(
            f"unknown question id {responses.question_id[k]}{responses.where(k)}")

    # Every member gets a slot: village rank * size + position among sorted ids.
    villages = design.villages
    members: dict[str, list[str]] = {v: [] for v in villages}
    for iid in sorted(individuals):
        members[individuals[iid].village_id].append(iid)
    size = max((len(m) for m in members.values()), default=1)
    slot = {iid: r * size + k for r, v in enumerate(villages)
            for k, iid in enumerate(members[v])}
    ego = responses.ego.lookup(slot)
    alter = responses.alter.lookup(slot)
    rank = responses.village_id.lookup({v: r for r, v in enumerate(villages)})
    inside = (ego >= 0) & (alter >= 0) & (ego // size == rank) & (alter // size == rank)
    n_layers = len(layer_specs)
    cell = (rank * len(WAVES) + (wave == WAVES[1])) * n_layers + code // 2
    loops = np.flatnonzero(inside & (ego == alter))
    if loops.size:   # the first one met cell by cell, in file order within a cell
        k = int(loops[np.lexsort((loops, cell[loops]))[0]])
        raise IngestionError(f"self-nomination by {responses.ego[k]}{responses.where(k)}")

    inverted = (code % 2).astype(bool)
    src = np.where(inverted, alter, ego) % size
    dst = np.where(inverted, ego, alter) % size
    key = _sorted_unique(((cell * size + src) * size + dst)[inside])
    bounds = np.searchsorted(key // (size * size),
                             np.arange(len(villages) * len(WAVES) * n_layers + 1))
    pair = key % (size * size)
    networks: dict[tuple[str, int, str], LayerNetwork] = {}
    c = 0
    for village in villages:
        nodes = tuple(members[village])
        for w in WAVES:
            for spec in layer_specs:
                ties = pair[bounds[c]:bounds[c + 1]]
                networks[(village, w, spec.layer)] = LayerNetwork(
                    village, w, spec.layer, nodes, pairs=(ties // size, ties % size))
                c += 1
    return StudyPanel(individuals, design, networks)
