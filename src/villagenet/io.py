"""Delimited-file ingestion, the panel archive, and deterministic exports.

All inputs are UTF-8 comma-delimited with a header row; validation errors cite
1-based line numbers. Every export starts with a format-version line and is
written with sorted, fully deterministic content so byte-level comparison is a
meaningful reproducibility check.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import (
    BASE_LAYERS,
    ExclusionReport,
    IngestionError,
    Individual,
    LayerSpec,
    RosterRow,
    StudyPanel,
    SurveyResponse,
    TreatmentDesign,
)
from .networks import LayerNetwork

FORMAT_VERSION = 1

ROSTER_REQUIRED = ("individual_id", "household_id", "village_id", "treated",
                   "wave1_present", "wave3_present")
ROSTER_OPTIONAL = ("forms_complete", "wave3_household_id", "wave3_village_id",
                   "village_dosage")
EDGE_COLUMNS = ("wave", "village_id", "question_id", "ego_id", "alter_id")
LAYER_COLUMNS = ("question_id", "layer", "inverted")
BLOCK_COLUMNS = ("village_id", "block")

_TRUE = {"1", "true", "t", "yes"}
_FALSE = {"0", "false", "f", "no"}


def _parse_bool(token: str, line: int, column: str) -> bool:
    t = token.strip().lower()
    if t in _TRUE:
        return True
    if t in _FALSE:
        return False
    raise IngestionError(f"line {line}: column {column}: cannot parse boolean {token!r}")


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
            treated=_parse_bool(rec["treated"], lineno, "treated"),
            wave1_present=_parse_bool(rec["wave1_present"], lineno, "wave1_present"),
            wave3_present=_parse_bool(rec["wave3_present"], lineno, "wave3_present"),
            forms_complete=_parse_bool(rec["forms_complete"], lineno, "forms_complete")
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


def read_layer_map(path: str | Path) -> list[LayerSpec]:
    rows = _read_rows(path)
    lineno, header = rows[0]
    if tuple(header) != LAYER_COLUMNS:
        raise IngestionError(
            f"{path}: line {lineno}: layer map header must be {','.join(LAYER_COLUMNS)}"
        )
    per_layer: dict[str, dict[str, bool]] = {}
    for lineno, fields in rows[1:]:
        if len(fields) != len(LAYER_COLUMNS):
            raise IngestionError(f"{path}: line {lineno}: expected 3 fields")
        question, layer, inverted = (f.strip() for f in fields)
        if layer not in BASE_LAYERS:
            raise IngestionError(
                f"{path}: line {lineno}: layer must be one of {BASE_LAYERS}, got {layer!r}"
            )
        for existing in per_layer.values():
            if question in existing:
                raise IngestionError(
                    f"{path}: line {lineno}: question {question} mapped twice"
                )
        per_layer.setdefault(layer, {})[question] = _parse_bool(inverted, lineno, "inverted")
    missing = [l for l in BASE_LAYERS if l not in per_layer]
    if missing:
        raise IngestionError(f"{path}: no questions mapped for layers {missing}")
    return [LayerSpec(layer, tuple(sorted(per_layer[layer])), per_layer[layer])
            for layer in BASE_LAYERS]


def read_blocks(path: str | Path) -> dict[str, str]:
    rows = _read_rows(path)
    lineno, header = rows[0]
    if tuple(header) != BLOCK_COLUMNS:
        raise IngestionError(
            f"{path}: line {lineno}: block header must be {','.join(BLOCK_COLUMNS)}"
        )
    blocks: dict[str, str] = {}
    for lineno, fields in rows[1:]:
        if len(fields) != 2:
            raise IngestionError(f"{path}: line {lineno}: expected 2 fields")
        village, block = fields[0].strip(), fields[1].strip()
        if village in blocks:
            raise IngestionError(f"{path}: line {lineno}: village {village} listed twice")
        blocks[village] = block
    return blocks


# ---------------------------------------------------------------------------
# Panel archive.

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
        "format_version": FORMAT_VERSION,
        "kind": "panel",
        "individuals": individuals,
        "village_dosages": {v: panel.design.village_dosages[v] for v in panel.villages},
        "networks": networks,
    }
    _write_json(doc, path)


def read_panel(path: str | Path) -> StudyPanel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") != "panel":
        raise IngestionError(f"{path}: not a panel archive")
    if doc.get("format_version") != FORMAT_VERSION:
        raise IngestionError(
            f"{path}: format version {doc.get('format_version')} unsupported"
        )
    individuals = {
        rec["id"]: Individual(
            id=rec["id"],
            household_id=rec["household_id"],
            village_id=rec["village_id"],
            treated=bool(rec["treated"]),
            covariates=rec.get("covariates") or None,
        )
        for rec in doc["individuals"]
    }
    assignments: dict[str, dict[str, bool]] = {}
    for ind in individuals.values():
        assignments.setdefault(ind.village_id, {})[ind.household_id] = ind.treated
    design = TreatmentDesign(
        {v: float(a) for v, a in doc["village_dosages"].items()}, assignments
    )
    members: dict[str, list[str]] = {}
    for ind in individuals.values():
        members.setdefault(ind.village_id, []).append(ind.id)
    networks = {}
    for key, edges in doc["networks"].items():
        village, wave, layer = key.split("|")
        networks[(village, int(wave), layer)] = LayerNetwork(
            village, int(wave), layer, tuple(sorted(members[village])),
            frozenset((u, v) for u, v in edges),
        )
    return StudyPanel(individuals, design, networks)


# ---------------------------------------------------------------------------
# Exports.

def fmt_value(x) -> str:
    if x is None:
        return "NA"
    if isinstance(x, float):
        if math.isnan(x):
            return "NA"
        return format(x, ".12g")
    return str(x)


def _write_lines(path: str | Path, kind: str, header: str,
                 lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# format: villagenet/{kind} v{FORMAT_VERSION}\n")
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_exclusion_report(report: ExclusionReport, path: str | Path) -> None:
    lines = [f"individual,{reason},{count}"
             for reason, count in sorted(report.individuals.items())]
    lines += [f"response,{reason},{count}"
              for reason, count in sorted(report.responses.items())]
    _write_lines(path, "exclusions", "record,reason,count", lines)


def write_metric_table(table, path: str | Path) -> None:
    lines = []
    for k, ind in enumerate(table.individuals):
        village = table.villages[k]
        for wave in (1, 3):
            for metric in table.metrics:
                value = table.values[(wave, metric)][k]
                lines.append(
                    f"{ind},{village},{wave},{table.layer},{metric},"
                    f"{fmt_value(float(value))}"
                )
    _write_lines(path, "metrics",
                 "individual_id,village_id,wave,layer,metric,value", sorted(lines))


def write_effects(estimates, path: str | Path) -> None:
    lines = []
    for est in estimates:
        s = est.spec
        variant = "+".join(s.variant_flags) if s.variant_flags else "none"
        lines.append(
            f"{s.kind},{s.dosage_scope},{s.layer},{s.metric},{variant},"
            f"{fmt_value(est.pct_effect)},{fmt_value(est.raw_did)},"
            f"{fmt_value(est.p_value)},{est.n_focal},{est.n_comparison},"
            f"{est.permutations}"
        )
    _write_lines(
        path, "effects",
        "kind,scope,layer,metric,variant,pct_effect,raw_did,p_value,"
        "n_focal,n_comparison,permutations",
        lines,
    )


def write_plot_data(rows, path: str | Path) -> None:
    """Fig-2-style trajectories: per contrast, group means and counterfactual."""
    lines = [
        f"{r['kind']},{r['scope']},{r['layer']},{r['metric']},{r['variant']},"
        f"{r['series']},{r['wave']},{fmt_value(r['value'])}"
        for r in rows
    ]
    _write_lines(path, "plotdata",
                 "kind,scope,layer,metric,variant,series,wave,value", lines)


def write_null_draws(result, path: str | Path) -> None:
    lines = [fmt_value(x) for x in result.null_draws]
    _write_lines(path, "nulldraws",
                 f"# observed={fmt_value(result.observed)} p={fmt_value(result.p_value)} "
                 f"sided={result.sided} skipped={result.skipped}", lines)


def write_distances(rows, path: str | Path) -> None:
    lines = [f"{r['village_id']},{r['dosage_group']},{fmt_value(r['wasserstein'])}"
             for r in rows]
    _write_lines(path, "wasserstein", "village_id,dosage_group,wasserstein", lines)


def write_welch(results: Mapping[str, object], path: str | Path) -> None:
    lines = []
    for name in sorted(results):
        r = results[name]
        lines.append(f"{name},{fmt_value(r.t)},{fmt_value(r.df)},{fmt_value(r.p)},"
                     f"{fmt_value(r.ci95[0])},{fmt_value(r.ci95[1])}")
    _write_lines(path, "welch", "comparison,t,df,p,ci_lo,ci_hi", lines)


def write_curve(curve, path: str | Path) -> None:
    lines = [f"{fmt_value(x)},{fmt_value(y)}" for x, y in curve.fitted]
    _write_lines(path, "doseresponse", "dosage,fitted_change", lines)


def write_points(points, path: str | Path) -> None:
    lines = [f"{fmt_value(x)},{fmt_value(y)}" for x, y in sorted(points)]
    _write_lines(path, "doseresponse-points", "dosage,change", lines)


def write_regression(fit, path: str | Path) -> None:
    from .dyadic import odds_ratio_summary

    ors = odds_ratio_summary(fit)
    lines = []
    for term, coef in fit.coefficients.items():
        odds, pct = ors[term]
        lines.append(
            f"{term},{fmt_value(coef.estimate)},{fmt_value(coef.std_error)},"
            f"{fmt_value(coef.z)},{fmt_value(coef.p)},{fmt_value(odds)},{fmt_value(pct)}"
        )
    meta = (f"# outcome={fit.outcome} scheme={fit.scheme} reference={fit.reference} "
            f"converged={fit.converged} n={fit.n_observations} "
            f"loglik={fmt_value(fit.log_likelihood)}"
            + (f" separated={'+'.join(fit.separated)}" if fit.separated else ""))
    _write_lines(path, "regression",
                 meta + "\nterm,estimate,std_error,z,p,odds_ratio,pct_change", lines)


def write_dyads(rows: Iterable[tuple[str, str, str, str, str, bool, bool]],
                path: str | Path) -> None:
    """One line per (village, ego, alter, coarse, fine, link_w1, link_w3) row, streamed."""
    lines = (f"{village},{ego},{alter},{coarse},{fine},{int(w1)},{int(w3)}"
             for village, ego, alter, coarse, fine, w1, w3 in rows)
    _write_lines(path, "dyads", "village,ego,alter,coarse,fine,link_w1,link_w3", lines)


def write_roster_csv(panel: StudyPanel, path: str | Path) -> None:
    lines = []
    for iid in sorted(panel.individuals):
        ind = panel.individuals[iid]
        alpha = panel.design.village_dosages[ind.village_id]
        lines.append(f"{ind.id},{ind.household_id},{ind.village_id},"
                     f"{int(ind.treated)},1,1,{fmt_value(alpha)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(ROSTER_REQUIRED) + ",village_dosage\n")
        for line in lines:
            fh.write(line + "\n")


def write_edges_csv(panel: StudyPanel, layer_specs: Sequence[LayerSpec],
                    path: str | Path) -> None:
    """Export base-layer edges as responses to each layer's first straight question."""
    question_for = {}
    for spec in layer_specs:
        straight = [q for q in spec.question_ids if not spec.inverted[q]]
        if not straight:
            raise IngestionError(f"layer {spec.layer} has no non-inverted question")
        question_for[spec.layer] = straight[0]
    lines = []
    for (village, wave, layer) in sorted(panel.networks):
        net = panel.networks[(village, wave, layer)]
        q = question_for[layer]
        for u, v in sorted(net.edges):
            lines.append(f"{wave},{village},{q},{u},{v}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(EDGE_COLUMNS) + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_layer_map_csv(layer_specs: Sequence[LayerSpec], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(LAYER_COLUMNS) + "\n")
        for spec in layer_specs:
            for q in spec.question_ids:
                fh.write(f"{q},{spec.layer},{int(spec.inverted[q])}\n")


# ---------------------------------------------------------------------------
# JSON documents.

def _write_json(doc, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def config_digest(config: Mapping) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(command: str, config: Mapping, path: str | Path,
                   tool_version: str) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "manifest",
        "tool_version": tool_version,
        "command": command,
        "config": dict(config),
        "config_sha256": config_digest(config),
    }
    _write_json(doc, path)


def write_oracle(oracle, path: str | Path) -> None:
    doc = {"format_version": FORMAT_VERSION, "kind": "oracle"}
    doc.update(oracle.to_dict())
    _write_json(doc, path)
