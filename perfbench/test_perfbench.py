"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest perfbench -q

The smoke runs use the 128x64 grid, so the whole file takes about a minute.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from halfline_nls import SolutionField, solve_ibvp  # noqa: E402
from halfline_nls.cli import main as cli_main, write_field  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert np.isfinite(m["value"]), name
        # every metric is also printed by name and unit before the result
        assert f"{name} = " in proc.stdout


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for f in BENCH.glob("*.py"):
        (bare / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "standing-wave",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_seed_zero_is_the_pinned_case_and_seeds_repeat():
    sw = workloads.WORKLOADS["standing-wave"]
    cli = workloads.WORKLOADS["gaussian-cli"]
    assert workloads.draw_params(sw, 0) == {"A": 1.0, "c": 6.0}
    assert workloads.draw_params(cli, 0) == {"center": 10.0, "width": 1.5}
    assert workloads.draw_params(sw, 7) == workloads.draw_params(sw, 7)
    assert workloads.draw_params(sw, 7) != workloads.draw_params(sw, 8)


def _flip_slice(u, k):
    vals = u.values.copy()
    vals[k] = -vals[k]
    return SolutionField(u.sgrid, u.tgrid, vals)


def test_sign_flipped_slice_fails_the_library_check():
    wl, grid = workloads.WORKLOADS["standing-wave"], workloads.SMOKE
    params = workloads.draw_params(wl, 0)
    u, report = solve_ibvp(*workloads.library_problem(wl, params, grid))
    _, failures = workloads.check_library(wl, grid, params, u, report)
    assert failures == []
    bad = _flip_slice(u, u.tgrid.m // 2)
    _, failures = workloads.check_library(wl, grid, params, bad, report)
    assert any("rel_err" in f for f in failures)
    report.converged = False
    _, failures = workloads.check_library(wl, grid, params, u, report)
    assert failures == ["report.converged is false"]


def test_corrupted_or_missing_cli_output_fails_the_cli_check(tmp_path):
    wl, grid = workloads.WORKLOADS["gaussian-cli"], workloads.SMOKE
    params = workloads.draw_params(wl, 0)
    cfg = tmp_path / "case.cfg"
    cfg.write_text(workloads.cli_config(params, grid, wl.T), encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["solve", str(cfg), "--out", str(out)]) == 0
    oracle = workloads.cli_oracle(params, grid, wl.T)
    _, _, failures = workloads.check_cli(wl, grid, out, 0, oracle)
    assert failures == []

    field = workloads.read_cli_field(out / "field.csv")
    whole = SolutionField(workloads.spatial_grid(grid), field.tgrid, field.values)
    write_field(out / "field.csv", _flip_slice(whole, field.tgrid.m // 2))
    _, _, failures = workloads.check_cli(wl, grid, out, 0, oracle)
    assert any("rel_err" in f for f in failures)

    (out / "trace.csv").unlink()
    _, _, failures = workloads.check_cli(wl, grid, out, 3, oracle)
    assert "exit code 3" in failures
    assert "missing outputs: trace.csv" in failures


def test_self_time_and_first_call_per_time_grid():
    def span(name, start, end, parent, grid=None):
        return {"name": name, "start": start, "end": end, "parent": parent,
                "solve": 0, "grid": grid}

    g1, g2 = [1.0, 8], [0.5, 8]
    spans = [
        span("solver.solve_ibvp", 0.0, 10.0, None),
        span("operators.forcing", 0.0, 2.0, 0, g1),  # first on g1: a build
        span("solver.apply", 2.0, 5.0, 0, g1),
        span("operators.forcing", 3.0, 4.0, 2, g1),
        span("operators.forcing", 5.0, 6.5, 0, g2),  # first on g2
        span("solver.apply", 6.5, 9.0, 0, g2),
        span("operators.forcing", 7.0, 7.5, 5, g2),
    ]
    values, rest, duhamel = tracing.solve_metrics(spans)
    assert values["operators.forcing.calls"] == 4
    assert values["operators.forcing.first_s"] == pytest.approx(3.5)
    assert rest == pytest.approx([1.0, 0.5])
    assert duhamel == []
    assert values["solver.self_s"] == pytest.approx(10.0 - 2.0 - 3.0 - 1.5 - 2.5)
    assert values["solver.apply.self_s"] == pytest.approx(3.0 - 1.0 + 2.5 - 0.5)
    assert values["solver.useful_apps_ratio"] == pytest.approx(0.5)
    merged = tracing.layer_metrics([(values, rest, duhamel)], {})
    assert set(merged) == set(tracing.LAYER_UNITS)
    assert merged["operators.forcing.rest_ms.p50"] == pytest.approx(750.0)


def test_calibration_scales_by_the_kernels_speed():
    assert calibration.scaled(3.0, calibration.REF_S) == pytest.approx(3.0)
    # a host twice as slow as the reference: the scaled time is halved
    assert calibration.scaled(3.0, 2 * calibration.REF_S) == pytest.approx(1.5)
    assert 0.0 < calibration.Kernel().measure() < 5.0
