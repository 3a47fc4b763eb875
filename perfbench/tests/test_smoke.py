"""Smoke test of the benchmark: every workload on an 8^2 grid, no timing thresholds.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

bench.import_solver()

import workloads  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=workloads.NAMES)
def results(request):
    return {trace: bench.run(request.param, seed=3, seconds=0.0, trace=trace, smoke=True)
            for trace in (False, True)}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_reported_with_its_unit(results, trace, section):
    metrics = results[trace]["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], float)


def test_gates_run_and_pass(results):
    for result in results.values():
        assert result["attempted"] >= 1
        assert result["failed"] == 0 and result["correct"]
        assert result["gates"] and all(result["gates"].values())
        assert isinstance(result["output_digest"], str)


def test_exact_layer_counts(results):
    layer = {k: v["value"] for k, v in results[True]["metrics"].items()}
    name = results[True]["workload"]
    if name == "rk2-128-diag":
        assert layer["grid.pad.calls_per_step"] == 124
        assert layer["symcalc.eig_fields.calls_per_step"] == 4
    elif name == "imex-256-sigma2":
        assert layer["integrate.imex.lap_waste_ratio"] == 0.5
        assert layer["integrate.heat_solve.calls_per_step"] == 5
    elif name == "oracle":
        assert layer["grid.pad.calls_per_step"] == 0
        assert layer["symcalc.scalar.calls"] > 0


def test_missed_gate_counts_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "DRIFT_TOL", -1.0)
    result = bench.run("rk2-128-diag", seed=3, seconds=0.0, trace=False, smoke=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_raised_solver_error_counts_as_failure(monkeypatch):
    original = workloads.cli.verify_report

    def closure_blows_up(suite, seed):
        if suite == "closure":
            raise workloads.integrate.BlowupError("forced")
        return original(suite, seed)

    monkeypatch.setattr(workloads.cli, "verify_report", closure_blows_up)
    result = bench.run("oracle", seed=3, seconds=0.0, trace=False, smoke=True)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "BlowupError" in result["failures"][0]["detail"]


def test_fails_without_the_solver_sources(tmp_path):
    """A directory holding only the benchmark must exit non-zero, printing no result."""
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
