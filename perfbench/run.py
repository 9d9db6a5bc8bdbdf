#!/usr/bin/env python3
"""Benchmark of the villagenet CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a villagenet checkout. The workload's inputs are made
from the seed (set-up, timed several times); then rounds of the workload's
CLI commands run, each command in a fresh child process with one thread,
until the next round would pass ``--seconds``. Outputs are checked after the
last round. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
rounds); with ``--trace 1`` rounds alternate untraced and traced, and the
metrics are the per-layer ones from the traced rounds.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import filecmp
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3


@dataclass
class OpRun:
    """One executed CLI command and its resource use."""

    outdir: Path
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stderr: str
    trace: dict | None = None


@dataclass
class Round:
    ops: list[OpRun] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)

    @property
    def rss_mb(self) -> float:
        return max(op.rss_mb for op in self.ops)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_command(argv: list[str], outdir: Path, trace_path: Path | None) -> OpRun:
    """Run one villagenet command in a child process; time it with wait4."""
    outdir.mkdir(parents=True, exist_ok=True)
    if trace_path is None:
        cmd = [sys.executable, "-m", "villagenet.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), *argv]
    cmd += ["--out", str(outdir), "--threads", "1"]
    stdout_path, stderr_path = outdir.with_suffix(".stdout"), outdir.with_suffix(".stderr")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    trace = None
    if trace_path is not None and trace_path.exists():
        with open(trace_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        trace = {"functions": doc["functions"], "counts": doc["counts"]}
    return OpRun(outdir, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, proc.returncode,
                 stderr_path.read_text(encoding="utf-8", errors="replace"), trace)


def run_round(ops, rundir: Path, index: int, traced: bool, execute=run_command) -> Round:
    rnd = Round()
    for op in ops:
        outdir = rundir / f"round{index:03d}" / op.name
        trace_path = rundir / "traces" / f"round{index:03d}-{op.name}.json" if traced else None
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
        rnd.ops.append(execute(list(op.argv), outdir, trace_path))
    return rnd


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def check_rounds(ops, rounds: list[Round]) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, problems) over every command of every round.

    The first round's outputs get the full independent checks; a later
    round's outputs must equal the first round's byte for byte (the program
    is deterministic for fixed inputs and seed), and share its verdict.
    """
    attempted = failed = 0
    correct = True
    problems: list[str] = []
    first: dict[str, tuple[OpRun, bool]] = {}
    for rnd in rounds:
        for op, run in zip(ops, rnd.ops):
            attempted += 1
            if run.returncode != 0:
                failed += 1
                problems.append(f"{op.name}: exit {run.returncode}: {run.stderr[-500:]}")
                continue
            if op.name not in first:
                try:
                    found = op.check(run.outdir, run.stderr)
                except Exception:
                    found = [f"check raised:\n{traceback.format_exc()}"]
                first[op.name] = (run, not found)
                ok = not found
                problems += [f"{op.name}: {p}" for p in found]
            else:
                ref, ref_ok = first[op.name]
                ok = ref_ok and same_files(ref.outdir, run.outdir)
                if ref_ok and not ok:
                    problems.append(f"{op.name}: outputs differ from the first round's")
            if not ok:
                failed += 1
                correct = False
    return attempted, failed, correct, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 sizes=None, execute=run_command) -> dict:
    """Set up, run and check one workload; return the result object."""
    wl = workloads.WORKLOADS[name]
    size = (sizes or workloads.SIZES)[name]
    inputs = workdir / "inputs"
    setup_times = []
    setup_trace = None
    if trace:
        setup_tracer = tracer.Tracer()
        setup_tracer.install()
        ops = wl.setup(inputs, seed, size)
        setup_trace = setup_tracer.summary()
    else:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ops = wl.setup(inputs, seed, size)
            setup_times.append(time.perf_counter() - start)

    plain: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    while True:
        plain.append(run_round(ops, workdir, len(plain) + len(traced), False, execute))
        if trace:
            traced.append(run_round(ops, workdir, len(plain) + len(traced), True, execute))
        done = len(plain)
        elapsed = time.perf_counter() - start
        if done >= wl.min_rounds and elapsed * (done + 1) / done > seconds:
            break

    attempted, failed, correct, problems = check_rounds(ops, plain + traced)
    for p in problems[:10]:
        print(f"perfbench: {p}", file=sys.stderr)
    if trace:
        metrics = traced_metrics(traced, plain, setup_trace)
    else:
        metrics = {
            "wall_s": (statistics.median(r.wall_s for r in plain), "s"),
            "cpu_s": (statistics.median(r.cpu_s for r in plain), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (statistics.median(r.rss_mb for r in plain), "MB"),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced_metrics(traced: list[Round], plain: list[Round], setup_trace: dict) -> dict:
    per_round = [tracer.layer_metrics(tracer.merge([op.trace for op in r.ops if op.trace]))
                 for r in traced]
    setup = tracer.layer_metrics(setup_trace)
    metrics = {}
    for key, (_, unit) in per_round[0].items():
        metrics[key] = (statistics.median(m[key][0] for m in per_round), unit)
    metrics["synth.generate_panel_s"] = setup["synth.generate_panel_s"]
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                   - statistics.median(r.wall_s for r in plain), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "villagenet" / "cli.py").is_file():
        print(f"perfbench: no villagenet source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    workdir = HERE / "out" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        if args.trace:
            keep = HERE / "out" / "traces" / f"{args.workload}-s{args.seed}"
            shutil.rmtree(keep, ignore_errors=True)
            shutil.copytree(workdir / "traces", keep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
