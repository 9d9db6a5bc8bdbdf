"""Spans and counts around calls into villagenet's layers.

The tracer wraps every public function of the modules in ``src/villagenet``
(plus the few methods the per-layer metrics need) from outside the program:
villagenet's source is not touched. Spans are kept in memory and written out
when the traced process ends. A span's self time is its duration minus the
part covered by its child spans.

Run as a script it traces one CLI command and writes its trace:

    python3 perfbench/tracer.py TRACE.json <villagenet arguments...>
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("io", "core", "networks", "metrics", "effects", "randomization",
          "dyadic", "stats", "synth", "cli")
METHODS = {"core": {"StudyPanel": ("network",)}, "metrics": {"MetricTable": ("group_mean",)}}
MB = 1024 * 1024


def _path_size(args, k: int) -> float:
    return float(os.path.getsize(args[k])) if len(args) > k else 0.0


def _count_table(tracer, args, kwargs, table):
    tracer.counts["metrics.table_builds"] += 1
    tracer.table_keys.add((table.layer, table.variants))


def _count_nulls(tracer, args, kwargs, stats):
    tracer.counts["randomization.null_defined"] += float((stats == stats).sum())
    tracer.counts["randomization.null_total"] += float(stats.size)


def _count_fit(tracer, args, kwargs, fit):
    tracer.counts["dyadic.fits"] += 1
    tracer.counts["dyadic.converged"] += float(fit.converged)
    tracer.counts["dyadic.irls_iterations"] += float(fit.iterations)


def _count_inclusion(tracer, args, kwargs, result):
    tracer.counts["core.responses_read"] += float(len(args[1]))
    tracer.counts["core.responses_kept"] += float(len(result[1]))


def _count_input(tracer, args, kwargs, result):
    tracer.counts["io.input_bytes"] += _path_size(args, 0)


def _count_panel_write(tracer, args, kwargs, result):
    tracer.counts["io.panel_bytes"] += _path_size(args, 1)


def _count_dyads(tracer, args, kwargs, data):
    tracer.counts["dyadic.dyads"] += float(len(data))


# Counts taken from a call's arguments and result, by span name.
AFTER = {
    "io.read_roster": _count_input,
    "io.read_edges": _count_input,
    "io.read_layer_map": _count_input,
    "io.read_panel": _count_input,
    "io.read_json": _count_input,
    "io.write_panel": _count_panel_write,
    "core.apply_inclusion_criteria": _count_inclusion,
    "metrics.metric_table": _count_table,
    "randomization.null_statistics": _count_nulls,
    "dyadic.dyad_dataset": _count_dyads,
    "dyadic.fit_categorical_logistic": _count_fit,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []      # [name, parent index, start, end]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.table_keys: set = set()

    def wrap(self, name: str, fn):
        after = AFTER.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions everywhere villagenet refers to them."""
        modules = [importlib.import_module(f"villagenet.{m}") for m in LAYERS]
        modules.append(importlib.import_module("villagenet"))
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{name}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}",
                                                 getattr(cls, meth)))
        from villagenet.networks import LayerNetwork
        post_init = LayerNetwork.__post_init__

        def counted_post_init(net):
            self.counts["networks.networks_built"] += 1
            post_init(net)

        LayerNetwork.__post_init__ = counted_post_init
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, name, wrapped[id(obj)])
                elif isinstance(obj, dict):   # dispatch tables such as cli.RUNNERS
                    for key, value in obj.items():
                        if id(value) in wrapped:
                            obj[key] = wrapped[id(value)]

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; plus counts."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, list[float]] = {}
        for k, (name, _, start, end) in enumerate(self.spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[k]
        counts = dict(self.counts)
        counts["metrics.table_keys"] = float(len(self.table_keys))
        return {"functions": table, "counts": counts}

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        doc = {**self.summary(), "span_names": names,
               "spans": [[index[n], p, round(s, 7), round(e, 7)] for n, p, s, e in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries (the commands of one round)."""
    table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: dict[str, float] = defaultdict(float)
    for s in summaries:
        for name, row in s["functions"].items():
            acc = table[name]
            for k in range(3):
                acc[k] += row[k]
        for name, value in s["counts"].items():
            counts[name] += value
    return {"functions": dict(table), "counts": dict(counts)}


def _ratio(a: float, b: float) -> float:
    """a / b, reported as 0 when nothing was attempted (b == 0)."""
    return a / b if b else 0.0


def layer_metrics(s: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one round, from its merged summary."""
    fn, counts = s["functions"], s["counts"]

    def self_s(*names: str) -> float:
        return sum(fn[n][2] for n in names if n in fn)

    def calls(name: str) -> float:
        return float(fn[name][0]) if name in fn else 0.0

    def layer_self(layer: str) -> float:
        return sum(row[2] for n, row in fn.items() if n.split(".")[0] == layer)

    def c(name: str) -> float:
        return counts.get(name, 0.0)

    io_exports = [n for n in fn if n.startswith("io.write_") and n != "io.write_panel"]
    out = {
        "io.read_roster_s": (self_s("io.read_roster"), "s"),
        "io.read_edges_s": (self_s("io.read_edges"), "s"),
        "io.write_panel_s": (self_s("io.write_panel"), "s"),
        "io.read_panel_s": (self_s("io.read_panel"), "s"),
        "io.export_s": (self_s(*io_exports), "s"),
        "io.input_mb": (c("io.input_bytes") / MB, "MB"),
        "io.panel_mb": (c("io.panel_bytes") / MB, "MB"),
        "core.inclusion_s": (self_s("core.apply_inclusion_criteria"), "s"),
        "core.build_panel_s": (self_s("core.build_panel", "core.build_layer",
                                      "core.infer_design"), "s"),
        "core.responses_read": (c("core.responses_read"), "count"),
        "core.responses_kept": (c("core.responses_kept"), "count"),
        "core.derived_network_s": (self_s("core.StudyPanel.network", "core.aggregate_layers",
                                          "core.directed_union", "core.residual_network",
                                          "core.exclude_intra_household"), "s"),
        "core.network_calls": (calls("core.StudyPanel.network"), "count"),
        "networks.networks_built": (c("networks.networks_built"), "count"),
        "networks.bfs_calls": (calls("networks.bfs_distances"), "count"),
        "networks.bfs_s": (self_s("networks.bfs_distances"), "s"),
        "metrics.table_calls": (calls("metrics.metric_table"), "count"),
        "metrics.tables_per_layer": (_ratio(c("metrics.table_builds"),
                                            c("metrics.table_keys")), "ratio"),
        "metrics.table_s": (self_s("metrics.metric_table"), "s"),
        "metrics.degree_s": (self_s("metrics.degree_metrics"), "s"),
        "metrics.betweenness_s": (self_s("metrics.betweenness_normalized"), "s"),
        "metrics.closeness_s": (self_s("metrics.closeness_normalized"), "s"),
        "metrics.clustering_s": (self_s("metrics.local_clustering"), "s"),
        "metrics.group_mean_calls": (calls("metrics.MetricTable.group_mean"), "count"),
        "metrics.group_mean_s": (self_s("metrics.MetricTable.group_mean"), "s"),
        "effects.contrast_evals": (calls("effects.evaluate_contrast"), "count"),
        "effects.classify_groups_calls": (calls("effects.classify_groups"), "count"),
        "effects.classify_groups_s": (self_s("effects.classify_groups"), "s"),
        "effects.spillover_order_s": (self_s("effects.classify_spillover_order"), "s"),
        "effects.did_s": (self_s("effects.did_statistic", "effects.group_change",
                                 "effects.counterfactual_trend"), "s"),
        "randomization.draws": (calls("randomization.permute_assignment"), "count"),
        "randomization.permute_s": (self_s("randomization.permute_assignment",
                                           "randomization.derive_stream"), "s"),
        "randomization.assignment_s": (self_s("randomization.assignment_from_draw"), "s"),
        "randomization.null_stats_s": (self_s("randomization.null_statistics"), "s"),
        "randomization.draws_per_s": (_ratio(calls("randomization.permute_assignment"),
                                             fn.get("randomization.null_statistics",
                                                    [0, 0.0, 0.0])[1]), "1/s"),
        "randomization.valid_stat_ratio": (_ratio(c("randomization.null_defined"),
                                                  c("randomization.null_total")), "ratio"),
        "dyadic.dataset_calls": (calls("dyadic.dyad_dataset"), "count"),
        "dyadic.dataset_s": (self_s("dyadic.dyad_dataset"), "s"),
        "dyadic.dyads": (c("dyadic.dyads"), "count"),
        "dyadic.refinement_s": (self_s("dyadic.node_refinement"), "s"),
        "dyadic.fit_s": (self_s("dyadic.fit_categorical_logistic", "dyadic.fit_logistic_irls",
                                "dyadic.logistic_nll", "dyadic.logistic_score",
                                "dyadic.logistic_hessian"), "s"),
        "dyadic.irls_iterations": (c("dyadic.irls_iterations"), "count"),
        "dyadic.nll_evals": (calls("dyadic.logistic_nll"), "count"),
        "dyadic.converged_ratio": (_ratio(c("dyadic.converged"), c("dyadic.fits")), "ratio"),
        "dyadic.correspondence_s": (self_s("dyadic.estimand_correspondence"), "s"),
        "stats.wasserstein_s": (self_s("stats.wasserstein1"), "s"),
        "stats.welch_s": (self_s("stats.welch_ttest", "stats.student_t_sf",
                                 "stats.student_t_ppf", "stats.betainc_regularized"), "s"),
        "stats.loess_s": (self_s("stats.loess_fit"), "s"),
        "synth.generate_panel_s": (layer_self("synth"), "s"),
    }
    for command in ("ingest", "metrics", "wasserstein", "doseresponse", "effects",
                    "dyadic", "simulate"):
        out[f"cli.{command}_s"] = (self_s(f"cli.run_{command}"), "s")
    for layer in LAYERS[:-2] + ("cli",):   # synth runs in set-up only
        out[f"{layer}.self_s"] = (layer_self(layer), "s")
    return out


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from villagenet import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
