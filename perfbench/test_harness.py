"""Tests of the benchmark harness itself (quick smoke runs):

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import speed

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def summary(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_what_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, *run.unit_of(name)) for name in run.per_layer_names()
    ]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--smoke", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = summary(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc = bench("--workload", "certify", "--seed", "3", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = summary(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["quad_ring.cohn_four_squares.share"]["value"] > 0
    assert metrics["trace.spans"]["value"] > 0


def test_two_runs_at_one_seed_agree():
    proc = bench("--selfcheck", "--seed", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_overrun_is_stopped_from_outside():
    res, err = run.run_child(
        [str(run.HERE / "worker.py"), "--workload", "scan_direct", "--seed", "1", "--seconds", "60"], timeout=1
    )
    assert res is None and err.startswith("over budget")


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "scan", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracle_determinant_on_known_elements():
    identity = [1] + [0] * 15
    assert oracle.group_determinant(identity) == 1
    assert oracle.group_determinant([3 * c for c in identity]) == 3**16
    # The sum of all group elements acts with rank one.
    assert oracle.group_determinant([1] * 16) == 0


def test_work_is_scaled_by_the_reference_samples_inside_or_around_it():
    host = speed.Tracker()
    host.samples = [(0.0, 0.001, 2e-4), (1.0, 1.001, 4e-4), (2.0, 2.002, 6e-4)]
    # Holds the sample at 1.0: its sampling time is not work.
    assert host.measured(0.5, 1.5) == pytest.approx(0.999)
    assert host.scaled(0.5, 1.5) == pytest.approx(0.999 * speed.NOMINAL_S / 4e-4)
    # Holds no sample: the mean of the samples before and after it.
    assert host.scaled(1.2, 1.3) == pytest.approx(0.1 * speed.NOMINAL_S / 5e-4)
