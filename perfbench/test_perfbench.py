"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import (
    LAYERS,
    failed_ops,
    layer_self_times,
    layer_unit,
    oracle_allowance,
    per_layer,
    pilot_path_steps,
    resim_factor,
    self_times,
    time_to_ci_s,
    within_reference,
)
from workloads import WORKLOADS, evaluate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("barrier_solver.solve_barrier", 1.0, 4.0, 0),
        _span("path_engine.map_reduce_paths", 2.0, 3.0, 1),
        _span("cost_model.fprime", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    layers = layer_self_times(spans)
    assert set(LAYERS) <= set(layers)
    assert layers["cli"] == pytest.approx(6.0)
    assert layers["path_engine"] == pytest.approx(1.0)
    # self times partition the root span
    assert sum(layers.values()) == pytest.approx(10.0)


def _verify_spans(n, n_steps, pilot):
    """Span shape of `verify`: a 3-pass solve, then four full passes in checks."""
    mr = "path_engine.map_reduce_paths"
    spans = [_span("cli.main", 0.0, 100.0),
             _span("barrier_solver.solve_barrier", 1.0, 40.0, 0, {"n_paths": n, "iterations": 10})]
    for k, paths in enumerate((pilot, pilot, n)):
        spans.append(_span(mr, 2.0 + 10 * k, 10.0 + 10 * k, 1, {"n_paths": paths, "n_steps": n_steps}))
    for k in range(4):
        spans.append(_span("verification.check", 41.0 + 14 * k, 54.0 + 14 * k, 0))
        parent = len(spans) - 1
        spans.append(_span(mr, 42.0 + 14 * k, 53.0 + 14 * k, parent, {"n_paths": n, "n_steps": n_steps}))
    return spans


def test_resim_factor_and_pilot_steps_match_verify_formula():
    n, n_steps = 3000, 9211
    pilot = max(400, n // 64)
    spans = _verify_spans(n, n_steps, pilot)
    assert pilot_path_steps(spans) == 2 * pilot * n_steps
    layer = per_layer(spans, 100.0, 100.0, n, 1.0, 1.0)
    assert layer["path_engine.passes"] == 7
    assert layer["path_engine.resim_factor"] == pytest.approx((2 * pilot + 5 * n) / n)
    assert layer["path_engine.resim_factor"] == pytest.approx(5.2667, abs=1e-4)
    assert layer["barrier_solver.bisect_iterations"] == 10
    assert resim_factor(1800 * 10, 1000, 10) == pytest.approx(1.8)


def test_per_layer_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = per_layer(_verify_spans(100, 10, 50), 100.0, 101.0, 100, 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    for m in spec["per_layer"]:
        assert layer_unit(m["name"]) == m["unit"], m["name"]
    assert layer["trace.overhead_s"] == pytest.approx(1.0)
    assert layer["trace.coverage"] == pytest.approx(1.0)


def test_time_to_ci_scales_with_squared_halfwidth():
    assert time_to_ci_s(10.0, 0.01) == pytest.approx(10.0)
    assert time_to_ci_s(10.0, 0.005) == pytest.approx(2.5)
    assert time_to_ci_s(4.0, 0.02) == pytest.approx(16.0)


def test_failed_ops_counts_failures_over_attempts():
    assert failed_ops([True, False, True, False]) == (4, 2, 0.5)
    assert failed_ops([True]) == (1, 0, 0.0)
    assert failed_ops([]) == (0, 0, 0.0)


def test_reference_tolerance_is_floor_or_three_ci():
    assert within_reference(-0.735, 0.001, -0.7449)        # floor 1e-2 applies
    assert not within_reference(-0.735, 0.001, -0.7451)
    assert within_reference(-0.60, 0.008, -0.623)          # 3 ci = 0.024 applies
    assert not within_reference(-0.60, 0.008, -0.625)


def test_bm_oracle_allowance_names_the_discrete_monitoring_bias():
    allowance = oracle_allowance(sigma=1.0, dt=0.01, ci=0.0035, bisect_tol=0.001)
    assert allowance == pytest.approx(0.5826 * 0.1 + 0.0105 + 0.001)
    assert oracle_allowance(sigma=0.0, dt=0.01, ci=0.0, bisect_tol=0.001) == pytest.approx(0.001)


def _bm_payloads(b_star, ci, rho_means):
    grid = [-1.5, -1.375, -1.25, -1.125, -1.0]
    return {
        "solve": {"result": {"solve": {"b_star": b_star, "ci_halfwidth": ci}}},
        "rho": {"result": {"rho": [{"b": b, "mean": m} for b, m in zip(grid, rho_means)]}},
    }


def test_bm_checks_use_oracle_allowance_and_report_bias():
    ctx = {"oracle_b_star": -1.25, "sigma": 1.0, "dt": 0.01, "bisect_tol": 0.001, "C": 1.0}
    checks, fig = evaluate("bm_coarse", _bm_payloads(-1.195, 0.0035, [-2.2, -1.7, -0.8, -0.7, -0.2]), ctx)
    assert dict(checks) == {"b_star_near_oracle": True, "rho_curve_finite_nondecreasing": True}
    assert fig["b_star_abs_err"] == pytest.approx(0.055)
    assert fig["rho_ec_abs_err"] == pytest.approx(0.2)
    checks, _ = evaluate("bm_coarse", _bm_payloads(-1.15, 0.0035, [-2.2, -1.7, -1.9, math.nan, -0.2]), ctx)
    assert dict(checks) == {"b_star_near_oracle": False, "rho_curve_finite_nondecreasing": False}


def test_verify_checks_need_all_three_passed():
    reports = [
        {"name": "barrier_derivative", "passed": True, "details": [{}]},
        {"name": "slope_identity", "passed": False, "details": [{}]},
        {"name": "convexity", "passed": True, "details": [{"se": 0.01}, {"se": 0.03}, {"se": 0.02}]},
    ]
    checks, fig = evaluate("kou_verify", {"verify": {"result": {"verify": reports, "b_star": -0.7}}}, {})
    assert [ok for _, ok in checks] == [True, False, True]
    assert fig["ci_halfwidth"] == pytest.approx(0.03)


class _FakeRun:
    """Stands in for run._Run: every execution returns the same canned figures."""

    def __init__(self):
        self.execs = []

    def execute(self, workers, trace=False):
        ex = {"walls": {"solve": 10.0}, "calibration_s": 0.1, "calibration_after_s": 0.14,
              "setup_s": 1.5, "peak_rss_mb": 500.0, "sizes": {"workers": workers},
              "figures": {"ci_halfwidth": 0.005, "ci_command": "solve"}}
        self.execs.append(ex)
        return ex

    def setup_probe(self):
        return 1.0


def test_end_to_end_metrics_are_calibrated_medians():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = run._end_to_end(_FakeRun(), WORKLOADS["kou_solve"], seconds=0.0)
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(metrics)
    for m in spec["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    # 10 s at a mean calibration of 0.12 s is 5 s at the reference 0.06 s
    assert run.CALIBRATION_REF_S == 0.06
    assert metrics["wall_cal_s"]["value"] == pytest.approx(5.0)
    assert metrics["time_to_ci_cal_s"]["value"] == pytest.approx(5.0 * 0.25)
    # one execution's set-up plus two probes
    assert metrics["setup_s"]["value"] == pytest.approx(1.0)


def test_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


_TRACED_SOLVE = """
import sys, json
sys.path[:0] = [{src!r}, {here!r}]
from metrics import per_layer
from spans import Recorder, install
import levybarrier.cli as cli
rec = Recorder()
install(rec)
rc = cli.main(["solve", "--config", {config!r}, "--out", {out!r}, "--paths", "800",
               "--dt", "0.05", "--seed", "3"])
print(json.dumps([rc, per_layer(rec.spans, 1.0, 1.0, 800, 1.0, 1.0)]))
"""


def test_installed_spans_count_solver_passes(tmp_path):
    code = _TRACED_SOLVE.format(src=str(ROOT / "src"), here=str(HERE),
                                config=str(ROOT / "configs" / "kou_two_sided.json"),
                                out=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    rc, layer = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rc == 0
    assert layer["path_engine.passes"] == 3
    assert layer["barrier_solver.solve.calls"] == 1
    # pilot of 400 paths run twice, then the main 800-path pass
    assert layer["path_engine.resim_factor"] == pytest.approx(2.0)
    assert layer["barrier_solver.pilot_path_steps"] == 800 * layer["path_engine.path_steps"] // 1600
    assert layer["levy_model.jump_sample.calls"] > 0
    assert layer["cost_model.fprime.evals"] > 0
    assert layer["path_engine.reflect.calls"] == 3
