"""Row-by-row reference ingest, kept as the oracle for the column-wise code.

One `RosterRow` per roster line and one `SurveyResponse` per nomination,
filtered and grouped by string ids, one network per (village, wave, layer)
cell from a set of string pairs, and the panel written by
``json.dump(indent=2, sort_keys=True)``. `villagenet` reads the same files
into columns, joins them with integer codes and writes the networks block by
hand; the tests require both to write the same bytes and raise the same
errors. The converters at the end move between rows and the package's tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from villagenet import io as vio
from villagenet.core import (
    DEFAULT_LAYER_SPECS,
    WAVES,
    CodedColumn,
    ExclusionReport,
    IngestionError,
    Individual,
    LayerSpec,
    ResponseTable,
    RosterTable,
    StudyPanel,
    infer_design,
)
from villagenet.networks import LayerNetwork

ROSTER_REQUIRED = vio.ROSTER_REQUIRED
ROSTER_OPTIONAL = vio.ROSTER_OPTIONAL
EDGE_COLUMNS = vio.EDGE_COLUMNS


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


# ---------------------------------------------------------------------------
# Reading, one line at a time.

def _parse_bool(token: str, path: str | Path, line: int, column: str) -> bool:
    t = token.strip().lower()
    if t in {"1", "true", "t", "yes"}:
        return True
    if t in {"0", "false", "f", "no"}:
        return False
    raise IngestionError(f"{path}: line {line}: column {column}: cannot parse boolean {token!r}")


def _read_rows(path: str | Path) -> list[tuple[int, list[str]]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            rows.append((lineno, line.split(",")))
    if not rows:
        raise IngestionError(f"{path}: empty file")
    return rows


def read_roster(path: str | Path) -> list[RosterRow]:
    rows = _read_rows(path)
    lineno, header = rows[0]
    if tuple(header[: len(ROSTER_REQUIRED)]) != ROSTER_REQUIRED:
        raise IngestionError(
            f"{path}: line {lineno}: roster header must start with "
            f"{','.join(ROSTER_REQUIRED)}"
        )
    extras = header[len(ROSTER_REQUIRED):]
    for name in extras:
        if extras.count(name) > 1:
            raise IngestionError(f"{path}: line {lineno}: duplicate column {name}")
    covariate_cols = [c for c in extras if c not in ROSTER_OPTIONAL]

    out = []
    for lineno, fields in rows[1:]:
        if len(fields) != len(header):
            raise IngestionError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(fields)}"
            )
        rec = dict(zip(header, fields))
        covariates = {}
        for c in covariate_cols:
            token = rec[c].strip()
            if token == "":
                continue
            try:
                covariates[c] = float(token)
            except ValueError:
                raise IngestionError(
                    f"{path}: line {lineno}: covariate {c} is not numeric: {token!r}"
                ) from None
        dosage_token = rec.get("village_dosage", "").strip()
        if dosage_token:
            try:
                dosage = float(dosage_token)
            except ValueError:
                raise IngestionError(
                    f"{path}: line {lineno}: village_dosage is not numeric: "
                    f"{dosage_token!r}"
                ) from None
        else:
            dosage = None
        out.append(RosterRow(
            individual_id=rec["individual_id"].strip(),
            household_id=rec["household_id"].strip(),
            village_id=rec["village_id"].strip(),
            treated=_parse_bool(rec["treated"], path, lineno, "treated"),
            wave1_present=_parse_bool(rec["wave1_present"], path, lineno, "wave1_present"),
            wave3_present=_parse_bool(rec["wave3_present"], path, lineno, "wave3_present"),
            forms_complete=_parse_bool(rec["forms_complete"], path, lineno, "forms_complete")
            if "forms_complete" in rec else True,
            wave3_household_id=rec.get("wave3_household_id", "").strip() or None,
            wave3_village_id=rec.get("wave3_village_id", "").strip() or None,
            village_dosage=dosage,
            covariates=covariates or None,
            line=lineno,
        ))
    return out


def read_edges(path: str | Path) -> list[SurveyResponse]:
    rows = _read_rows(path)
    lineno, header = rows[0]
    if tuple(header) != EDGE_COLUMNS:
        raise IngestionError(
            f"{path}: line {lineno}: edge header must be {','.join(EDGE_COLUMNS)}"
        )
    out = []
    for lineno, fields in rows[1:]:
        if len(fields) != len(EDGE_COLUMNS):
            raise IngestionError(
                f"{path}: line {lineno}: expected {len(EDGE_COLUMNS)} fields, "
                f"got {len(fields)}"
            )
        wave_token = fields[0].strip()
        try:
            wave = int(wave_token)
        except ValueError:
            raise IngestionError(
                f"{path}: line {lineno}: wave is not an integer: {wave_token!r}"
            ) from None
        out.append(SurveyResponse(
            wave=wave,
            village_id=fields[1].strip(),
            question_id=fields[2].strip(),
            ego=fields[3].strip(),
            alter=fields[4].strip(),
            line=lineno,
        ))
    return out


# ---------------------------------------------------------------------------
# Inclusion and network building, one response at a time.

def _count(counts: dict[str, int], reason: str) -> None:
    counts[reason] = counts.get(reason, 0) + 1


def apply_inclusion_criteria(
    raw_roster: Sequence[RosterRow],
    raw_responses: Sequence[SurveyResponse],
) -> tuple[list[RosterRow], list[SurveyResponse], ExclusionReport]:
    """Restrict to the fixed panel: complete forms, present both waves, no moves."""
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
            _count(report.individuals, "incomplete_forms")
            continue
        if not (row.wave1_present and row.wave3_present):
            _count(report.individuals, "absent")
            continue
        moved_household = (row.wave3_household_id is not None
                           and row.wave3_household_id != row.household_id)
        moved_village = (row.wave3_village_id is not None
                         and row.wave3_village_id != row.village_id)
        if moved_household or moved_village:
            _count(report.individuals, "moved")
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
            _count(report.responses, "cross_village")
            continue
        if resp.ego not in kept:
            _count(report.responses, "excluded_ego")
            continue
        if resp.alter not in kept:
            _count(report.responses, "excluded_alter")
            continue
        kept_responses.append(resp)
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
    edges: set[tuple[str, str]] = set()
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


# ---------------------------------------------------------------------------
# The panel archive through the json encoder, and the whole command.

def write_panel(panel: StudyPanel, path: str | Path) -> None:
    individuals = [
        {
            "id": ind.id,
            "household_id": ind.household_id,
            "village_id": ind.village_id,
            "treated": ind.treated,
            "covariates": dict(ind.covariates) if ind.covariates else {},
        }
        for ind in (panel.individuals[i] for i in sorted(panel.individuals))
    ]
    networks = {}
    for (village, wave, layer) in sorted(panel.networks):
        net = panel.networks[(village, wave, layer)]
        networks[f"{village}|{wave}|{layer}"] = sorted([u, v] for u, v in net.edges)
    doc = {
        "format_version": vio.FORMAT_VERSION,
        "kind": "panel",
        "individuals": individuals,
        "village_dosages": {v: panel.design.village_dosages[v] for v in panel.villages},
        "networks": networks,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def ingest(roster: Path, edges: Path, layer_map: Path, outdir: Path) -> None:
    """What ``villagenet ingest`` writes, the row-by-row way."""
    rows = read_roster(roster)
    responses = read_edges(edges)
    specs = vio.read_layer_map(layer_map)
    kept_rows, kept_responses, report = apply_inclusion_criteria(rows, responses)
    panel = build_panel(kept_rows, kept_responses, specs)
    write_panel(panel, outdir / "panel.json")
    with open(outdir / "exclusions.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# format: villagenet/exclusions v1\nrecord,reason,count\n")
        for record, counts in (("individual", report.individuals),
                               ("response", report.responses)):
            for reason in sorted(counts):
                fh.write(f"{record},{reason},{counts[reason]}\n")


# ---------------------------------------------------------------------------
# Rows <-> the package's column tables.

def roster_table(rows: Sequence[RosterRow]) -> RosterTable:
    names = list(dict.fromkeys(c for r in rows for c in (r.covariates or {})))
    lines = [r.line for r in rows]
    return RosterTable(
        individual_id=[r.individual_id for r in rows],
        household_id=[r.household_id for r in rows],
        village_id=[r.village_id for r in rows],
        treated=np.array([r.treated for r in rows], dtype=bool),
        wave1_present=np.array([r.wave1_present for r in rows], dtype=bool),
        wave3_present=np.array([r.wave3_present for r in rows], dtype=bool),
        forms_complete=np.array([r.forms_complete for r in rows], dtype=bool),
        wave3_household_id=[r.wave3_household_id for r in rows],
        wave3_village_id=[r.wave3_village_id for r in rows],
        village_dosage=[r.village_dosage for r in rows],
        covariates={c: [(r.covariates or {}).get(c) for r in rows] for c in names},
        line=None if None in lines else np.array(lines, dtype=np.int64),
    )


def roster_rows(table: RosterTable) -> list[RosterRow]:
    out = []
    for k in range(len(table)):
        covariates = {c: v[k] for c, v in table.covariates.items() if v[k] is not None}
        out.append(RosterRow(
            individual_id=table.individual_id[k],
            household_id=table.household_id[k],
            village_id=table.village_id[k],
            treated=bool(table.treated[k]),
            wave1_present=bool(table.wave1_present[k]),
            wave3_present=bool(table.wave3_present[k]),
            forms_complete=bool(table.forms_complete[k]),
            wave3_household_id=table.wave3_household_id[k],
            wave3_village_id=table.wave3_village_id[k],
            village_dosage=table.village_dosage[k],
            covariates=covariates or None,
            line=None if table.line is None else int(table.line[k]),
        ))
    return out


def response_table(responses: Sequence[SurveyResponse]) -> ResponseTable:
    lines = [r.line for r in responses]
    return ResponseTable(
        wave=np.array([r.wave for r in responses], dtype=np.int64),
        village_id=CodedColumn.of([r.village_id for r in responses]),
        question_id=CodedColumn.of([r.question_id for r in responses]),
        ego=CodedColumn.of([r.ego for r in responses]),
        alter=CodedColumn.of([r.alter for r in responses]),
        line=None if None in lines else np.array(lines, dtype=np.int64),
    )


def response_rows(table: ResponseTable) -> list[SurveyResponse]:
    return [SurveyResponse(
        wave=int(table.wave[k]),
        village_id=table.village_id[k],
        question_id=table.question_id[k],
        ego=table.ego[k],
        alter=table.alter[k],
        line=None if table.line is None else int(table.line[k]),
    ) for k in range(len(table))]
