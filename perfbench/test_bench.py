"""The benchmark's own test: every workload at a tiny size, clean and corrupted.

    python3 -m pytest -q perfbench/test_bench.py

A clean run must have no failed operation. A run whose command output is
corrupted after the command exits (one flipped edge, one changed metric
value, effect or coefficient) must count that operation as failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def flip_edge(outdir: Path) -> None:
    path = outdir / "panel.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    for edges in doc["networks"].values():
        present = {tuple(e) for e in edges}
        for u, v in edges:
            if (v, u) not in present:
                edges.remove([u, v])
                edges.append([v, u])
                path.write_text(json.dumps(doc), encoding="utf-8")
                return
    raise AssertionError("no edge to flip")


def change_value(filename: str, column: int, match: str):
    """Corrupter that adds 0.5 to one numeric field of the first matching row."""
    def corrupt(outdir: Path) -> None:
        path = outdir / filename
        lines = path.read_text(encoding="utf-8").splitlines()
        for k, line in enumerate(lines):
            fields = line.split(",")
            if match in line and not line.startswith("#") and len(fields) > column:
                try:
                    fields[column] = repr(float(fields[column]) + 0.5)
                except ValueError:
                    continue
                lines[k] = ",".join(fields)
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                return
        raise AssertionError(f"nothing to corrupt in {filename}")
    return corrupt


CORRUPTIONS = {
    "ingest": ("ingest", flip_edge),
    "metrics": ("metrics_health", change_value("metrics.csv", 5, "betweenness")),
    "inference": ("effects", change_value("effects.csv", 5, "spillover,")),
    "dyadic": ("dyadic", change_value("formation_coarse.csv", 1, "UT")),
}


def corrupting(op_name: str, corrupt, round_index: int = 0):
    """A command runner that corrupts one op's output in one round."""
    def execute(argv, outdir, trace_path):
        result = run.run_command(argv, outdir, trace_path)
        if outdir.name == op_name and outdir.parent.name == f"round{round_index:03d}":
            corrupt(outdir)
        return result
    return execute


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_clean_run_has_no_failed_operation(name, tmp_path):
    result = run.run_workload(name, 3, 0, False, tmp_path, sizes=workloads.TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corrupted_output_counts_as_failed(name, tmp_path):
    op_name, corrupt = CORRUPTIONS[name]
    result = run.run_workload(name, 3, 0, False, tmp_path, sizes=workloads.TINY,
                              execute=corrupting(op_name, corrupt))
    # Later rounds are compared with the corrupted first round, so they fail too.
    assert result["failed"] >= 1 and not result["correct"]


def test_changed_second_round_counts_as_failed(tmp_path):
    op_name, corrupt = CORRUPTIONS["inference"]
    result = run.run_workload("inference", 3, 0, False, tmp_path, sizes=workloads.TINY,
                              execute=corrupting(op_name, corrupt, round_index=1))
    assert result["attempted"] == 2 and result["failed"] == 1


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = run.run_workload("inference", 3, 0, True, tmp_path, sizes=workloads.TINY)
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert result["metrics"]["randomization.draws"]["value"] == workloads.PERMUTATIONS


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "ingest",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
