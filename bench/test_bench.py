"""Smoke test of the benchmark itself, at tiny cohort sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 40


def run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        list(tracer.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--units", str(TINY))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
               if not line.startswith("#")}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    assert printed["failed_frac"] == "1"
    assert printed["fuse_s"] == "s"
    if workloads.WORKLOADS[workload].clusterings:
        assert printed["cluster_s"] == "s"


def test_tampered_artifact_raises_failed_frac(monkeypatch):
    def tampering_run(cfg):
        run = staged_run(cfg)
        with open(Path(cfg.output) / "features.csv", "a") as fh:
            fh.write("\n")
        return run

    staged_run = harness.staged_run
    monkeypatch.setattr(harness, "staged_run", tampering_run)
    result = harness.run(workloads.WORKLOADS["ward-tall"], 3, 0, False, units=TINY)
    assert result["failed"] > 0
    assert result["extra"]["failed_frac"][0] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "ward-tall", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
