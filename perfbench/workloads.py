"""The benchmark's workloads: inputs, CLI commands and the checks on each output.

A workload's ``setup`` writes its inputs from the seed and returns the
operations of one round. An operation is one villagenet CLI command plus the
check its outputs must pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

import checks
import gen

PERMUTATIONS = 30
EFFECT_KINDS = ",".join(checks.KINDS)

# (villages per arm, (smallest, largest) village) for the measured runs and
# for the benchmark's own test.
SIZES = {
    "ingest": (22, (40, 75)),
    "metrics": (2, (70, 130)),
    "inference": (11, (30, 60)),
    "dyadic": (2, (100, 186)),
}
TINY = {
    "ingest": (2, (12, 16)),
    "metrics": (2, (12, 16)),
    "inference": (3, (24, 30)),
    "dyadic": (2, (40, 50)),
}


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Callable[[Path, str], list[str]]   # (output dir, stderr) -> problems


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Path, int, tuple], list[Op]]
    min_rounds: int = 1   # inference compares two rounds' effects.csv byte for byte


def _panel_loader(path: Path):
    return cache(lambda: checks.Panel(path))


def setup_ingest(inputs: Path, seed: int, size: tuple) -> list[Op]:
    truth = gen.ingest_inputs(inputs, seed, *size)
    argv = ("ingest", "--roster", str(inputs / "roster.csv"), "--edges",
            str(inputs / "edges.csv"), "--layer-map", str(inputs / "layer_map.csv"))
    return [Op("ingest", argv, lambda out, err: checks.check_ingest(out, truth))]


def setup_metrics(inputs: Path, seed: int, size: tuple) -> list[Op]:
    path = inputs / "panel.json"
    gen.synth_panel(path, seed, *size)
    panel = _panel_loader(path)
    p = ("--panel", str(path))
    return [
        Op("metrics_health", ("metrics", *p, "--layer", "health"),
           lambda out, err: checks.check_metric_table(out, panel(), "health")),
        Op("metrics_aggregated", ("metrics", *p, "--layer", "aggregated"),
           lambda out, err: checks.check_metric_table(out, panel(), "aggregated")),
        Op("wasserstein", ("wasserstein", *p, "--layer", "health"),
           lambda out, err: checks.check_wasserstein(out, panel())),
        Op("doseresponse", ("doseresponse", *p, "--layer", "health"),
           lambda out, err: checks.check_doseresponse(out, panel())),
    ]


def setup_inference(inputs: Path, seed: int, size: tuple) -> list[Op]:
    path = inputs / "panel.json"
    gen.synth_panel(path, seed, *size)
    panel = _panel_loader(path)
    argv = ("effects", "--panel", str(path), "--layers", "health",
            "--metrics", "degree,in_degree,out_degree", "--scopes", "all,low,high",
            "--kinds", EFFECT_KINDS, "--permutations", str(PERMUTATIONS),
            "--seed", str(seed))
    return [Op("effects", argv,
               lambda out, err: checks.check_effects(out, panel(), PERMUTATIONS, err))]


def setup_dyadic(inputs: Path, seed: int, size: tuple) -> list[Op]:
    path = inputs / "panel.json"
    gen.synth_panel(path, seed, *size)
    panel = _panel_loader(path)
    return [Op("dyadic", ("dyadic", "--panel", str(path), "--layer", "health"),
               lambda out, err: checks.check_dyadic(out, panel()))]


WORKLOADS = {
    "ingest": Workload(setup_ingest),
    "metrics": Workload(setup_metrics),
    "inference": Workload(setup_inference, min_rounds=2),
    "dyadic": Workload(setup_dyadic),
}
