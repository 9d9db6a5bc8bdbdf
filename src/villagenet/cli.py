"""Command-line front end: ingest -> metrics -> effects -> inference -> exports.

Every subcommand writes its exports plus a ``manifest.json`` capturing the
fully resolved configuration (inputs, analysis selections, any draw seed).
Re-running a subcommand with ``--config <manifest.json>`` reproduces the
outputs byte for byte; ``--out`` and ``--threads`` are runtime details kept
out of the manifest so they never change results.

Importing this module loads only ``core``, ``io`` and ``networks`` from the
package: parsing and validation need nothing more, since the enumerations the
options are checked against live in ``core``. Each ``run_*`` imports the
analysis modules it calls, so a command starts without loading the others.

Exit codes: 0 success, 1 runtime failure, 2 input validation failure. A
failed run removes the ``--out`` directories it created while they are empty.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import __version__
from . import io as vio
from .core import (
    ALL_LAYERS,
    CONTRAST_KINDS,
    DIRECTED_ONLY_METRICS,
    DOSAGE_SCOPES,
    METRICS,
    OUTCOMES,
    SCALINGS,
    SCHEMES,
    SIDES,
    VARIANT_FLAGS,
    IngestionError,
    ScenarioError,
)
from .networks import NetworkError

log = logging.getLogger("villagenet")

VALIDATION_ERRORS = (IngestionError, NetworkError, ScenarioError, json.JSONDecodeError,
                     FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError)


def _parse_list(value: str) -> list[str]:
    return [v for v in (tok.strip() for tok in value.split(",")) if v]


def _parse_variants(value: str) -> list[tuple[str, ...]]:
    """'none;residual+exclude_intra_household' -> [(), ('exclude...', 'residual')]."""
    out = []
    for group in value.split(";"):
        group = group.strip()
        if group in ("", "none"):
            out.append(())
        else:
            out.append(tuple(sorted(g.strip() for g in group.split("+"))))
    return out


COMMON_OPTIONS = {"threads": 1}

COMMAND_OPTIONS: dict[str, dict[str, object]] = {
    "ingest": {"roster": None, "edges": None, "layer_map": None},
    "metrics": {"panel": None, "layer": "health", "variants": "none"},
    "effects": {
        "panel": None, "layers": "health", "metrics": "degree,in_degree,out_degree",
        "scopes": "all", "kinds": "overall,total,spillover,direct",
        "variants": "none", "permutations": 0, "seed": 0, "blocks": "none",
        "scaling": "control_w1",
    },
    "permtest": {
        "panel": None, "layer": "health", "metric": "degree", "kind": "total",
        "scope": "all", "variants": "none", "permutations": 2000, "seed": 0,
        "sided": "two", "blocks": "none", "scaling": "control_w1",
    },
    "dyadic": {
        "panel": None, "layer": "health", "schemes": "coarse,fine",
        "outcomes": "dissolution,formation", "export_dyads": 0,
        "correspondence": 1,
    },
    "wasserstein": {"panel": None, "layer": "health", "degree_kind": "degree",
                    "normalize": 0},
    "doseresponse": {"panel": None, "layer": "health", "metric": "degree",
                     "group": "overall", "span": 0.75, "degree": 1},
    "simulate": {"scenario": None},
    "replicate": {
        "scenario": None, "replicates": 1, "layers": "health",
        "metrics": "degree", "scopes": "all", "kinds": "total",
        "permutations": 0,
    },
}

RUNTIME_ONLY = ("out", "threads")

DEGREE_KINDS = ("degree", "in_degree", "out_degree")

# Options whose value (or each item of a comma list, or each variant flag) must be one of a set.
CHOICES = {"layer": ALL_LAYERS, "layers": ALL_LAYERS, "schemes": SCHEMES, "outcomes": OUTCOMES,
           "kind": CONTRAST_KINDS, "kinds": CONTRAST_KINDS, "scope": DOSAGE_SCOPES,
           "scopes": DOSAGE_SCOPES, "metric": METRICS, "metrics": METRICS, "scaling": SCALINGS,
           "sided": SIDES, "degree_kind": DEGREE_KINDS,
           "group": ("overall", "treated", "untreated"), "variants": VARIANT_FLAGS}
LIST_OPTIONS = ("layers", "schemes", "outcomes", "kinds", "scopes", "metrics")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="villagenet",
        description="Causal analysis of village-network change in "
                    "two-stage randomized trials",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in COMMAND_OPTIONS.items():
        p = sub.add_parser(command)
        p.set_defaults(parser=p)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", default=None,
                       help="manifest.json to take defaults from")
        for name, default in {**COMMON_OPTIONS, **options}.items():
            flag = "--" + name.replace("_", "-")
            if isinstance(default, int) and not isinstance(default, bool):
                p.add_argument(flag, type=int, default=None)
            elif isinstance(default, float):
                p.add_argument(flag, type=float, default=None)
            else:
                p.add_argument(flag, type=str, default=None)
    return parser


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    defaults = {**COMMON_OPTIONS, **COMMAND_OPTIONS[command]}
    manifest_config: dict = {}
    if args.config:
        doc = vio.read_json(args.config)
        if not isinstance(doc, dict) or doc.get("kind") != "manifest":
            raise IngestionError(f"{args.config}: not a manifest")
        if doc.get("command") != command:
            raise IngestionError(
                f"{args.config}: manifest is for '{doc.get('command')}', not '{command}'"
            )
        manifest_config = doc.get("config", {})
        if not isinstance(manifest_config, dict):
            raise IngestionError(f"{args.config}: config is not an object")
        for name in manifest_config:   # a mistyped key, or an option since retired
            if name not in defaults:
                log.warning("%s: %s takes no option %r; ignoring it", args.config, command, name)
    config = {}
    for name, default in defaults.items():
        cli_value = getattr(args, name)
        if cli_value is not None:
            config[name] = cli_value
        elif name in manifest_config:
            config[name] = value = manifest_config[name]
            # the default's type; a string where there is no default
            accepts, expected = {int: (int, "an integer"), float: ((int, float), "a number")}.get(
                type(default), (str, "a string"))
            if isinstance(value, bool) or not isinstance(value, accepts):
                raise IngestionError(f"--{name.replace('_', '-')}: expected {expected}, "
                                     f"got {json.dumps(value)}")
        elif default is not None:
            config[name] = default
        else:
            raise IngestionError(f"missing required option --{name.replace('_', '-')}")
    # permtest needs at least one draw; effects and replicate take 0 as "no p-values"
    low = 1 if command == "permtest" else 0
    for name, fits, allowed in (("threads", lambda x: x >= 1, ">= 1"),
                                ("replicates", lambda x: x >= 1, ">= 1"),
                                ("permutations", lambda x: x >= low, f">= {low}"),
                                ("span", lambda x: 0 < x <= 1, "in (0, 1]"),
                                ("degree", lambda x: x in (1, 2), "1 or 2")):
        if name in config and not fits(config[name]):
            raise IngestionError(f"--{name} must be {allowed}, got {config[name]}")
    for name, allowed in CHOICES.items():
        if name not in config:
            continue
        raw = str(config[name])
        if name == "variants":
            groups = _parse_variants(raw)
            if len(groups) > 1 and command in ("metrics", "permtest"):
                raise IngestionError(f"--variants: {command} takes one variant group")
            values = [flag for group in groups for flag in group]
        else:
            values = _parse_list(raw) if name in LIST_OPTIONS else [raw]
        for value in values:
            if value not in allowed:
                raise IngestionError(f"--{name.replace('_', '-')}: unknown value '{value}'; "
                                     f"expected one of {', '.join(allowed)}")
    return config


def _blocks_from(config: dict, panel) -> dict[str, str] | None:
    """The ``--blocks`` file, checked against the panel's villages, or None."""
    token = str(config.get("blocks", "none"))
    if token in ("", "none"):
        return None
    return vio.read_blocks(token, panel.villages)


def _finish(command: str, config: dict, outdir: Path) -> None:
    vio.write_manifest(command, {k: v for k, v in config.items() if k not in RUNTIME_ONLY},
                       outdir / "manifest.json", __version__)


def _require_directed(panel, layer: str, option: str, value: str) -> None:
    """Reject a directed-only metric (in/out-degree) on an undirected layer."""
    if (value in DIRECTED_ONLY_METRICS and panel.villages
            and not panel.network(panel.villages[0], 1, layer).directed):
        raise IngestionError(f"--{option.replace('_', '-')}: {value} is undefined on "
                             f"undirected layer {layer}")


def run_ingest(config: dict, outdir: Path) -> None:
    from .core import apply_inclusion_criteria, build_panel

    roster = vio.read_roster(config["roster"])
    responses = vio.read_edges(config["edges"])
    layer_specs = vio.read_layer_map(config["layer_map"])
    kept_roster, kept_responses, report = apply_inclusion_criteria(roster, responses)
    panel = build_panel(kept_roster, kept_responses, layer_specs)
    vio.write_panel(panel, outdir / "panel.json")
    vio.write_table(outdir / "exclusions.csv", "exclusions", "record,reason,count",
                    [("individual", *item) for item in sorted(report.individuals.items())]
                    + [("response", *item) for item in sorted(report.responses.items())])
    n_excluded = sum(report.individuals.values())
    print(f"ingested {len(panel.individuals)} individuals in "
          f"{len(panel.villages)} villages; excluded {n_excluded}; 0 errors")


def run_metrics(config: dict, outdir: Path) -> None:
    from .metrics import metric_table

    panel = vio.read_panel(config["panel"])
    variants = _parse_variants(str(config["variants"]))[0]
    table = metric_table(panel, config["layer"], variants)
    vio.write_metric_table(table, outdir / "metrics.csv")
    print(f"wrote metrics for {len(table.individuals)} individuals on "
          f"layer {config['layer']}")


def run_effects(config: dict, outdir: Path) -> None:
    from .effects import effect_suite

    panel = vio.read_panel(config["panel"])
    layers = _parse_list(str(config["layers"]))
    metrics = _parse_list(str(config["metrics"]))
    scopes = _parse_list(str(config["scopes"]))
    kinds = _parse_list(str(config["kinds"]))
    variants = _parse_variants(str(config["variants"]))
    blocks = _blocks_from(config, panel)
    estimates = effect_suite(
        panel, layers, metrics, scopes, kinds, variants,
        permutations=int(config["permutations"]),
        master_seed=int(config["seed"]),
        scaling=str(config["scaling"]),
        threads=int(config["threads"]),
        blocks=blocks,
    )
    rows, plot = [], []
    for est in estimates:
        s = est.spec
        contrast = (s.kind, s.dosage_scope, s.layer, s.metric, s.variant)
        rows.append((*contrast, est.pct_effect, est.raw_did, est.p_value, est.n_focal,
                     est.n_comparison, est.permutations))
        # Fig-2-style series from the observed draw's group means; the
        # counterfactual follows the comparison group's trend (parallel trends)
        f1, f3, c1, c3 = est.group_means
        plot += [(*contrast, *point) for point in (
            ("focal", 1, f1), ("focal", 3, f3), ("comparison", 1, c1), ("comparison", 3, c3),
            ("counterfactual", 1, f1), ("counterfactual", 3, f1 + (c3 - c1)))]
    vio.write_table(outdir / "effects.csv", "effects",
                    "kind,scope,layer,metric,variant,pct_effect,raw_did,p_value,"
                    "n_focal,n_comparison,permutations", rows)
    vio.write_table(outdir / "plotdata.csv", "plotdata",
                    "kind,scope,layer,metric,variant,series,wave,value", plot)
    print(f"wrote {len(estimates)} effect estimates")


def run_permtest(config: dict, outdir: Path) -> None:
    from .effects import ContrastSpec
    from .randomization import permutation_pvalue

    panel = vio.read_panel(config["panel"])
    _require_directed(panel, str(config["layer"]), "metric", str(config["metric"]))
    blocks = _blocks_from(config, panel)
    spec = ContrastSpec(
        kind=str(config["kind"]),
        dosage_scope=str(config["scope"]),
        layer=str(config["layer"]),
        metric=str(config["metric"]),
        variant_flags=_parse_variants(str(config["variants"]))[0],
    )
    result = permutation_pvalue(
        panel, spec,
        permutations=int(config["permutations"]),
        master_seed=int(config["seed"]),
        scaling=str(config["scaling"]),
        threads=int(config["threads"]),
        blocks=blocks,
        sided=str(config["sided"]),
    )
    vio.write_table(outdir / "nulldraws.txt", "nulldraws",
                    f"# observed={vio.fmt_value(result.observed)} "
                    f"p={vio.fmt_value(result.p_value)} "
                    f"sided={result.sided} skipped={result.skipped}",
                    [(x,) for x in result.null_draws])
    print(f"observed={result.observed:.6g} p={result.p_value:.6g} "
          f"({result.permutations} draws, {result.skipped} skipped)")


def run_dyadic(config: dict, outdir: Path) -> None:
    from .dyadic import (DYAD_COLUMNS, dyad_blocks, dyad_dataset, estimand_correspondence,
                         fit_logistic_irls, odds_ratio_summary)

    panel = vio.read_panel(config["panel"])
    layer = str(config["layer"])
    schemes = _parse_list(str(config["schemes"]))
    outcomes = _parse_list(str(config["outcomes"]))
    data_all = dyad_dataset(panel, layer)
    for outcome in outcomes:
        for scheme in schemes:
            fit = fit_logistic_irls(data_all, outcome, scheme)
            ors = odds_ratio_summary(fit)
            meta = (f"# outcome={fit.outcome} scheme={fit.scheme} reference={fit.reference} "
                    f"converged={fit.converged} n={fit.n_observations} "
                    f"loglik={vio.fmt_value(fit.log_likelihood)}"
                    + (f" separated={'+'.join(fit.separated)}" if fit.separated else ""))
            vio.write_table(outdir / f"{outcome}_{scheme}.csv", "regression",
                            meta + "\nterm,estimate,std_error,z,p,odds_ratio,pct_change",
                            [(term, c.estimate, c.std_error, c.z, c.p, *ors[term])
                             for term, c in fit.coefficients.items()])
    if int(config["correspondence"]):
        rows, fit = estimand_correspondence(panel, layer, data=data_all)
        vio.write_table(outdir / "correspondence.csv", "correspondence",
                        "term,dyadic_estimate,node_contrast,signs_agree",
                        [(r.term, r.dyadic_estimate, r.node_contrast, r.signs_agree)
                         for r in rows])
    if int(config["export_dyads"]):
        vio.write_lines(outdir / "dyads.csv", "dyads", DYAD_COLUMNS, dyad_blocks(panel, layer))
    print(f"wrote dyadic regressions for layer {layer}")


def run_wasserstein(config: dict, outdir: Path) -> None:
    from .core import dosage_group
    from .metrics import metric_table
    from .stats import StatsError, wasserstein1, welch_ttest

    panel = vio.read_panel(config["panel"])
    layer = str(config["layer"])
    kind = str(config["degree_kind"])
    _require_directed(panel, layer, "degree_kind", kind)
    normalize = bool(int(config["normalize"]))
    table = metric_table(panel, layer, metrics=(kind,))
    index = panel.index
    rows = []
    by_group: dict[str, list[float]] = {"control": [], "low": [], "high": []}
    for village, members, alpha in zip(index.villages, index.members,
                                       index.observed[0].tolist()):
        scale = members.size - 1 if normalize and members.size > 1 else 1
        w = wasserstein1(*(table.column(wave, kind)[members] / scale for wave in (1, 3)))
        group = dosage_group(alpha)
        by_group[group].append(w)
        rows.append((village, group, w))
    vio.write_table(outdir / "distances.csv", "wasserstein",
                    "village_id,dosage_group,wasserstein", rows)
    welch = {}
    for arm in ("low", "high"):
        if len(by_group["control"]) >= 2 and len(by_group[arm]) >= 2:
            try:
                welch[f"control_vs_{arm}"] = welch_ttest(by_group["control"], by_group[arm])
            except StatsError as exc:
                log.warning("welch control vs %s skipped: %s", arm, exc)
    vio.write_table(outdir / "welch.csv", "welch", "comparison,t,df,p,ci_lo,ci_hi",
                    [(name, r.t, r.df, r.p, *r.ci95) for name, r in sorted(welch.items())])
    print(f"wrote {len(rows)} distances and {len(welch)} Welch tests")


def run_doseresponse(config: dict, outdir: Path) -> None:
    from .metrics import metric_table
    from .stats import StatsError, loess_fit

    panel = vio.read_panel(config["panel"])
    layer = str(config["layer"])
    metric = str(config["metric"])
    _require_directed(panel, layer, "metric", metric)
    group = str(config["group"])
    table = metric_table(panel, layer, metrics=(metric,))
    index = panel.index
    points = []
    for alpha, rows in zip(index.observed[0].tolist(), index.members):
        if group != "overall":
            rows = rows[index.observed[1][rows] == (group == "treated")]
        if not rows.size:
            continue
        m1, n1 = table.group_mean(1, metric, rows)
        m3, n3 = table.group_mean(3, metric, rows)
        if n1 == 0 or n3 == 0:
            continue   # no defined value at one wave
        points.append((alpha, m3 - m1))
    degree = int(config["degree"])
    try:
        curve = loess_fit(points, span=float(config["span"]), degree=degree)
    except StatsError as exc:   # too few villages for the fit, or too few neighbors in --span
        raise IngestionError(str(exc) if len(points) < degree + 2 else f"--span: {exc}") from None
    vio.write_table(outdir / "doseresponse.csv", "doseresponse", "dosage,fitted_change",
                    curve.fitted)
    vio.write_table(outdir / "points.csv", "doseresponse-points", "dosage,change",
                    sorted(points))
    print(f"wrote dose-response curve over {len(points)} villages")


def run_simulate(config: dict, outdir: Path) -> None:
    from .synth import SyntheticScenario, generate_panel

    scenario = SyntheticScenario.from_dict(vio.read_json(str(config["scenario"])))
    panel, oracle = generate_panel(scenario, scopes=("all", "low", "high"))
    vio.write_panel(panel, outdir / "panel.json")
    vio.write_oracle(oracle, outdir / "oracle.json")
    vio.write_roster_csv(panel, outdir / "roster.csv")
    vio.write_edges_csv(panel, outdir / "edges.csv")
    vio.write_layer_map_csv(outdir / "layer_map.csv")
    print(f"simulated {len(panel.individuals)} individuals in "
          f"{len(panel.villages)} villages")


def run_replicate(config: dict, outdir: Path) -> None:
    from .synth import SyntheticScenario, replicate_study

    scenario = SyntheticScenario.from_dict(vio.read_json(str(config["scenario"])))
    report = replicate_study(
        scenario,
        n_replicates=int(config["replicates"]),
        layers=_parse_list(str(config["layers"])),
        metrics=_parse_list(str(config["metrics"])),
        scopes=_parse_list(str(config["scopes"])),
        kinds=_parse_list(str(config["kinds"])),
        permutations=int(config["permutations"]),
        threads=int(config["threads"]),
    )
    vio.write_table(outdir / "calibration.csv", "calibration",
                    "replicate,spec,estimate_pct,oracle_pct,p_value",
                    [(r.replicate, r.spec_label, r.estimate_pct, r.oracle_pct, r.p_value)
                     for r in report.rows])
    vio.write_table(outdir / "summary.csv", "calibration-summary", "spec,quantity,value",
                    [(label, key, entry[key]) for label, entry in sorted(report.summary.items())
                     for key in sorted(entry)])
    print(f"wrote calibration report over {int(config['replicates'])} replicates")


RUNNERS = {
    "ingest": run_ingest,
    "metrics": run_metrics,
    "effects": run_effects,
    "permtest": run_permtest,
    "dyadic": run_dyadic,
    "wasserstein": run_wasserstein,
    "doseresponse": run_doseresponse,
    "simulate": run_simulate,
    "replicate": run_replicate,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:   # refused by the command's own parser, which names the command
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    outdir = Path(args.out)
    missing = [d for d in (outdir, *outdir.parents) if not d.exists()]   # deepest first
    try:
        config = resolve_config(args.command, args)
        config["out"] = str(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        RUNNERS[args.command](config, outdir)
        _finish(args.command, config, outdir)
        return 0
    except Exception as exc:   # validation failure 2, runtime failure 1
        code = 2 if isinstance(exc, VALIDATION_ERRORS) else 1
        print(f"error: {exc}", file=sys.stderr)
    for d in missing:   # a failed run leaves no empty directory of its own behind
        if not d.is_dir() or any(d.iterdir()):
            break
        d.rmdir()
    return code


if __name__ == "__main__":
    sys.exit(main())
