import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from levybarrier import estimators, path_engine
from levybarrier.cli import main

KOU = Path(__file__).resolve().parent.parent / "configs" / "kou_two_sided.json"
CP = KOU.parent / "compound_poisson.json"
ALL_CHECKS = '["barrier_derivative","slope_identity","convexity","martingale","hjb"]'


def write_config(tmp_path, **updates):
    cfg = {
        "model": {"gamma": 1.0, "sigma": 0.0, "jumps": {"rate": 0.0}},
        "problem": {"cost": {"kind": "quadratic"}, "C": 1.0, "q": 0.1},
        "sim": {"dt": 5e-3, "n_paths": 50, "master_seed": 7, "tail_tol": 1e-6},
    }
    for key, val in updates.items():
        cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run(args):
    return main([str(a) for a in args])


def test_solve_pure_drift_config(tmp_path):
    cfg = write_config(tmp_path, solve={"bisect_tol": 2e-3})
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 0
    result = json.loads((out / "result.json").read_text())
    b_star = result["result"]["solve"]["b_star"]
    assert abs(b_star + 10.05) <= 0.02  # closed form -qC/2 - mu/q
    assert (out / "meta.json").exists()
    assert "timestamp" not in json.dumps(result)


def test_byte_identical_rerun_and_worker_invariance(tmp_path):
    cfg = write_config(tmp_path, solve={"bisect_tol": 2e-3})
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(["solve", "--config", cfg, "--out", out1]) == 0
    assert run(["solve", "--config", cfg, "--out", out2]) == 0
    assert run(["solve", "--config", cfg, "--out", out3, "--workers", "3"]) == 0
    b1 = (out1 / "result.json").read_bytes()
    assert b1 == (out2 / "result.json").read_bytes()
    assert b1 == (out3 / "result.json").read_bytes()
    # a mollified cost crosses the process pool: its callables pickle
    mollified = ["verify", "--config", KOU, "--paths", "64", "--dt", "0.01",
                 "--set", "problem.cost.kind=quartic", "--set", "problem.mollify.epsilon=0.2"]
    assert run(mollified + ["--out", tmp_path / "m1"]) == 0
    assert run(mollified + ["--out", tmp_path / "m2", "--workers", "2"]) == 0
    assert (tmp_path / "m1" / "result.json").read_bytes() == (tmp_path / "m2" / "result.json").read_bytes()


def test_perturb_byte_identical_across_workers(tmp_path):
    # symmetric atoms with antithetic pairs: the mirror half reuses its streams
    cfg = write_config(
        tmp_path,
        model={"gamma": 0.0, "sigma": 0.0,
               "jumps": {"rate": 1.0, "dist": {"kind": "atoms", "values": [-1.0, 1.0], "probs": [0.5, 0.5]}}},
        problem={"cost": {"kind": "quadratic"}, "C": 0.0, "q": 0.5},
        sim={"dt": 5e-3, "n_paths": 200, "master_seed": 3, "antithetic": True},
        perturb={"eps_grid": [0.2, 0.05], "bisect_tol": 1e-3},
    )
    out1, out3 = tmp_path / "a", tmp_path / "c"
    assert run(["perturb", "--config", cfg, "--out", out1]) == 0
    assert run(["perturb", "--config", cfg, "--out", out3, "--workers", "3"]) == 0
    assert (out1 / "result.json").read_bytes() == (out3 / "result.json").read_bytes()


def test_records_carry_sample_diagnostics(tmp_path):
    cfg = write_config(
        tmp_path,
        model={"gamma": 0.0, "sigma": 1.0},
        problem={"cost": {"kind": "quadratic"}, "C": 1.0, "q": 0.5},
        sim={"dt": 1e-2, "n_paths": 200, "master_seed": 5},
        solve={"bisect_tol": 1e-3},
        value={"x": 0.0, "b": -1.0},
    )
    for command in ("solve", "value"):
        assert run([command, "--config", cfg, "--out", tmp_path / command]) == 0
    solve = json.loads((tmp_path / "solve" / "result.json").read_text())["result"]["solve"]
    rho = solve["rho_at_b_star"]
    assert rho["kurtosis"] > 0 and rho["stderr_reliable"] is True
    assert solve["discounted_u0"]["mean"] > 0 and solve["discounted_u0"]["stderr"] > 0
    value = json.loads((tmp_path / "value" / "result.json").read_text())["result"]["value"]
    assert all(value[k]["kurtosis"] > 0 and value[k]["stderr_reliable"] is True for k in ("v", "v1", "v2"))


def test_override_recorded_and_applied(tmp_path):
    cfg = write_config(tmp_path, solve={"bisect_tol": 2e-3})
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out, "--set", "problem.C=0.0", "--seed", "9"]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["overrides"] == {"problem.C": 0.0, "sim.master_seed": 9}
    assert abs(result["result"]["solve"]["b_star"] + 10.0) <= 0.02  # C = 0 root


def test_unknown_key_rejected_with_path(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["model"]["jumps"]["dst"] = {}
    cfg_path.write_text(json.dumps(cfg))
    assert run(["solve", "--config", cfg_path, "--out", tmp_path / "o"]) == 2
    assert "model.jumps.dst" in capsys.readouterr().err


@pytest.mark.parametrize("rate, dist, message", [
    (1.0, {"kind": "gaussian", "mean": 0, "std": 0.3, "p_up": 0.9, "values": [5]},
     "config.model.jumps.dist.p_up: unknown key"),
    (0.0, {"kind": "uniform", "lo": -1, "hi": 1, "std": 0.3}, "config.model.jumps.dist.std: unknown key"),
    (1.0, {"kind": "kou", "p_up": 0.5, "eta_up": 2.0}, "config.model.jumps.dist.eta_down: required field is missing"),
    (1.0, {"kind": "levy"}, "config.model.jumps.dist.kind: unknown kind 'levy'"),
    (1.0, {"kind": "kou", "p_up": 1.5, "eta_up": 2.0, "eta_down": 2.0}, "config.model: kou p_up must lie in [0, 1]"),
], ids=["foreign_keys", "foreign_key_at_rate_0", "missing", "unknown_kind", "invalid_param"])
def test_jump_dist_checked_against_its_family(tmp_path, capsys, rate, dist, message):
    cfg = write_config(tmp_path, model={"gamma": 1.0, "sigma": 0.5, "jumps": {"rate": rate, "dist": dist}})
    assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, config, override, message", [
    ("solve", KOU, 'model.jumps.dist.p_up="abc"', "config.model.jumps.dist.p_up: expected a number, got 'abc'"),
    ("solve", KOU, "model.jumps.dist.p_up=[0.5]", "config.model.jumps.dist.p_up: expected a number, got [0.5]"),
    ("perturb", CP, "model.jumps.dist.values=5", "config.model.jumps.dist.values: expected a list of numbers, got 5"),
], ids=["string", "list_for_number", "number_for_list"])
def test_jump_dist_params_typed_by_family(tmp_path, capsys, command, config, override, message):
    assert run([command, "--config", config, "--out", tmp_path / "o", "--paths", "10", "--set", override]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind, key, value", [
    ("quadratic", "slopes", [1, 2]),
    ("quartic", "kinks", [0.0]),
    ("abs", "slopes", [-1, 1]),
])
def test_cost_keys_checked_against_its_kind(tmp_path, capsys, kind, key, value):
    cfg = write_config(tmp_path, problem={"cost": {"kind": kind, key: value}, "C": 0.5, "q": 0.1})
    assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert f"config.problem.cost.{key}: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("command, override, message", [
    ("solve", 'solve.bisect_tol="abc"', "config.solve.bisect_tol: expected a number, got 'abc'"),
    ("rho", "rho.b_grid=5", "config.rho.b_grid: expected a list of numbers, got 5"),
    ("solve", 'sim.antithetic="false"', "config.sim.antithetic: expected true or false, got 'false'"),
    ("solve", "sim.n_paths=[50]", "config.sim.n_paths: expected an integer, got [50]"),
    ("solve", "sim.n_paths=50.5", "config.sim.n_paths: expected an integer, got 50.5"),
    ("solve", "model.gamma=true", "config.model.gamma: expected a number, got True"),
    ("verify", "verify.checks=5", "config.verify.checks: expected a list of check names, got 5"),
    # the sim grid is checked before the horizon is derived from it
    ("solve", "sim.dt=0", "config.sim.dt: expected a positive number, got 0.0"),
    ("solve", "sim.tail_tol=0", "config.sim.tail_tol: expected a number in (0, 1), got 0.0"),
    ("solve", "sim.tail_tol=-1", "config.sim.tail_tol: expected a number in (0, 1), got -1.0"),
    ("solve", "sim.tail_tol=2", "config.sim.tail_tol: expected a number in (0, 1), got 2.0"),
    # non-finite numbers never reach the library
    ("solve", "problem.C=nan", "config.problem.C: expected a number, got 'nan'"),
    ("solve", "problem.C=-Infinity", "config.problem.C: expected a number, got -inf"),
    ("solve", "problem.q=inf", "config.problem.q: expected a number, got 'inf'"),
    ("solve", "problem.q=1e400", "config.problem.q: expected a number, got inf"),
    ("value", "value.x=inf", "config.value.x: expected a number, got 'inf'"),
    ("rho", "rho.b_grid=[0,1e400]", "config.rho.b_grid: expected a list of numbers, got [0, inf]"),
    # the grid is bounded before its steps are counted, let alone allocated
    ("solve", "problem.q=1e-300", "config.sim.dt: the horizon log(1 / sim.tail_tol) / problem.q = 1.38e+301"),
    ("solve", "sim.dt=1e-300", "config.sim.dt: the horizon log(1 / sim.tail_tol) / problem.q = 138 is 1.38e+302 steps"),
    ("rho", "problem.q=1e-9", "config.sim.dt: the horizon log(1 / sim.tail_tol) / problem.q = 1.38e+10"),
    ("solve", "sim.horizon_T=1e10", "config.sim: horizon_T / dt = 2e+12 grid steps exceed the budget"),
], ids=["bisect_tol", "b_grid", "antithetic", "n_paths", "fractional_n_paths", "gamma", "checks",
        "dt_zero", "tail_tol_zero", "tail_tol_negative", "tail_tol_above_one",
        "C_nan", "C_minus_infinity", "q_inf", "q_overflow", "value_x_inf", "b_grid_overflow",
        "q_tiny", "dt_tiny", "rho_q_tiny", "horizon_huge"])
def test_wrongly_typed_value_exit_2(tmp_path, capsys, command, override, message):
    cfg = write_config(tmp_path, rho={"b_grid": [0.0]})
    assert run([command, "--config", cfg, "--out", tmp_path / "o", "--set", override]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [("rho", KOU), ("perturb", CP)], ids=["rho", "perturb"])
def test_clock_skeleton_beyond_budget_exit_2(tmp_path, capsys, command, config):
    # rate 1e6 at q = 0.5: K = 18,420,687 segments per path, over the skeleton budget for one path
    assert run([command, "--config", config, "--out", tmp_path / "o", "--paths", "10",
                "--set", "model.jumps.rate=1e6"]) == 2
    err = capsys.readouterr().err
    assert "config error: clock skeleton of" in err and "K = 18420687 jumps" in err and "problem.q" in err


def test_huge_discount_refused_on_the_grid(tmp_path, capsys, monkeypatch):
    # a derived horizon log(1 / tail_tol) / q shorter than one step of dt would round up to one
    # step, on which a solve prints b* = -C / (2 dt) with ci 0: every grid command refuses it
    seen = []
    monkeypatch.setattr(estimators, "map_reduce_paths", lambda *args, **kwargs: seen.append(args))
    for command in ("solve", "value", "sweep", "verify"):
        assert run([command, "--config", KOU, "--out", tmp_path / command, "--paths", "10",
                    "--set", "problem.q=1e300"]) == 2
        err = capsys.readouterr().err
        assert "config error: config.sim.dt: the horizon" in err
        assert "problem.q" in err and "sim.tail_tol" in err
    assert seen == [] and not any(tmp_path.rglob("result.json"))


@pytest.mark.parametrize("command, config, flags", [
    ("solve", KOU, ["--horizon", "0.05", "--dt", "0.05"]),  # an explicit horizon is the user's choice
    ("rho", KOU, []),  # read off the clock skeleton: no grid
    ("perturb", CP, []),
], ids=["solve_explicit_horizon", "rho", "perturb"])
def test_huge_discount_runs_where_no_grid_is_derived(tmp_path, command, config, flags):
    assert run([command, "--config", config, "--out", tmp_path / "o", "--paths", "10",
                "--set", "problem.q=1e300", *flags]) == 0


@pytest.mark.parametrize("text", ["5", "null", "[1]", '"x"'])
def test_config_not_an_object_exit_2(tmp_path, capsys, text):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    for extra in ([], ["--paths", "10"]):  # refused before the overrides are applied
        assert run(["solve", "--config", cfg_path, "--out", tmp_path / "o", *extra]) == 2
        assert "config error: config: expected a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section", ["model.jumps", "problem.cost", "problem.mollify", "solve", "sim"])
def test_section_not_an_object_exit_2(tmp_path, capsys, section):
    cfg_path = write_config(tmp_path, solve={"bisect_tol": 2e-3})
    cfg = json.loads(cfg_path.read_text())
    *parents, last = section.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[last] = 5
    cfg_path.write_text(json.dumps(cfg))
    assert run(["solve", "--config", cfg_path, "--out", tmp_path / "o"]) == 2
    assert f"config.{section}: expected an object" in capsys.readouterr().err


def test_unsorted_grid_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, rho={"b_grid": [1.0, 0.0]})
    assert run(["rho", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "sorted" in capsys.readouterr().err
    # the CLI names the config path of what the library would refuse
    for command, override, message in (
        ("rho", "rho.b_grid=[1,0]", "config.rho.b_grid: expected a nonempty list sorted strictly increasing"),
        ("sweep", "sweep.b_grid=[1,0]", "config.sweep.b_grid: expected a nonempty list sorted strictly increasing"),
        ("rho", "rho.b_grid=[]", "config.rho.b_grid: expected a nonempty list sorted strictly increasing, got []"),
        ("rho", "rho.method=5", "config.rho.method: expected time_integral or exp_clock, got 5"),
        ("perturb", "perturb.eps_grid=[]", "config.perturb.eps_grid: expected a nonempty list of positive "
                                           "numbers sorted strictly decreasing, got []"),
        ("perturb", "perturb.eps_grid=[0.1,0.2]", "config.perturb.eps_grid: expected a nonempty list"),
        ("perturb", "perturb.eps_grid=[0.1,-0.1]", "config.perturb.eps_grid: expected a nonempty list"),
    ):
        config = CP if command == "perturb" else KOU
        assert run([command, "--config", config, "--out", tmp_path / "o", "--paths", "10", "--set", override]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["1e-9", "1e-20"])
def test_histogram_beyond_budget_exit_2(tmp_path, capsys, tol):
    # 1e-9 bins would ask for ~90 GiB; at 1e-20 the bin index overflows int64
    start = time.perf_counter()
    assert run(["solve", "--config", KOU, "--out", tmp_path / "o", "--paths", "64", "--dt", "0.05",
                "--set", f"solve.bisect_tol={tol}"]) == 2
    assert time.perf_counter() - start < 20.0
    assert "config error: bisect_tol too small" in capsys.readouterr().err


def test_missing_field_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"model": {"gamma": 1.0, "sigma": 0.0}}))
    assert run(["solve", "--config", cfg_path, "--out", tmp_path / "o"]) == 2
    assert "problem" in capsys.readouterr().err


@pytest.mark.parametrize("command, model", [
    ("solve", {"gamma": 0.0, "sigma": 1.0, "jumps": {"rate": 0.0}}),
    ("perturb", {"gamma": 0.0, "sigma": 0.0,
                 "jumps": {"rate": 1.0, "dist": {"kind": "atoms", "values": [-1.0], "probs": [1.0]}}}),
])
def test_negative_seed_exit_2(tmp_path, capsys, command, model):
    cfg = write_config(tmp_path, model=model, perturb={"eps_grid": [0.1], "bisect_tol": 1e-3})
    assert run([command, "--config", cfg, "--out", tmp_path / "o", "--seed", "-1"]) == 2
    assert "config error:" in capsys.readouterr().err


def test_assumption_violation_exit_3(tmp_path):
    cfg = write_config(tmp_path, problem={"cost": {"kind": "abs"}, "C": 5.0, "q": 0.5})
    assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 3


def test_theta_bar_above_kou_tail_rate_exit_3(tmp_path, capsys):
    # E[exp(|J|)] is infinite for up-jumps with rate 0.8 < theta_bar = 1 (default)
    cfg = write_config(
        tmp_path,
        model={"gamma": 0.0, "sigma": 0.5,
               "jumps": {"rate": 1.0, "dist": {"kind": "kou", "p_up": 0.5, "eta_up": 0.8,
                                               "eta_down": 3.0}}},
        problem={"cost": {"kind": "quadratic"}, "C": 0.5, "q": 0.5},
        sim={"dt": 1e-2, "n_paths": 20, "master_seed": 3},
    )
    for command in ("solve", "verify"):
        assert run([command, "--config", cfg, "--out", tmp_path / command]) == 3
        err = capsys.readouterr().err
        assert "theta_bar = 1" in err and "rate 0.8" in err


def test_driftless_cp_needs_perturb_exit_3(tmp_path):
    cfg = write_config(
        tmp_path,
        model={"gamma": 0.0, "sigma": 0.0,
               "jumps": {"rate": 1.0, "dist": {"kind": "atoms", "values": [-1.0, 1.0], "probs": [0.5, 0.5]}}},
        problem={"cost": {"kind": "quadratic"}, "C": 0.0, "q": 0.5},
        sim={"dt": 5e-3, "n_paths": 200, "master_seed": 3},
    )
    assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 3


def test_perturb_command(tmp_path):
    # atoms at -1 carry no compensation, so gamma = 0 is exactly driftless
    cfg = write_config(
        tmp_path,
        model={"gamma": 0.0, "sigma": 0.0,
               "jumps": {"rate": 1.0, "dist": {"kind": "atoms", "values": [-1.0], "probs": [1.0]}}},
        problem={"cost": {"kind": "quadratic"}, "C": 1.0, "q": 0.5},
        sim={"dt": 2e-3, "n_paths": 300, "master_seed": 3},
        perturb={"eps_grid": [0.1, 0.05], "bisect_tol": 1e-3},
    )
    out = tmp_path / "out"
    assert run(["perturb", "--config", cfg, "--out", out]) == 0
    result = json.loads((out / "result.json").read_text())
    assert abs(result["result"]["perturb"]["b_star"] + 0.25) <= 2e-3
    assert len(result["result"]["perturb"]["eps_sequence"]) == 2


def test_rho_csv_monotone(tmp_path):
    cfg = write_config(
        tmp_path,
        model={"gamma": 0.0, "sigma": 1.0, "jumps": {"rate": 0.0}},
        problem={"cost": {"kind": "quadratic"}, "C": 0.5, "q": 0.5},
        sim={"dt": 5e-3, "n_paths": 300, "master_seed": 5},
        rho={"b_grid": [-2.0, -1.0, 0.0, 1.0]},
    )
    out = tmp_path / "out"
    assert run(["rho", "--config", cfg, "--out", out]) == 0
    lines = (out / "rho.csv").read_text().splitlines()
    assert lines[0] == "b,rho_mean,rho_stderr"
    means = [float(line.split(",")[1]) for line in lines[1:]]
    assert means == sorted(means)


def test_exp_clock_rho_byte_identical_across_workers(tmp_path):
    cfg = write_config(
        tmp_path,
        model={"gamma": 0.0, "sigma": 1.0, "jumps": {"rate": 0.0}},
        problem={"cost": {"kind": "quadratic"}, "C": 0.5, "q": 0.5},
        sim={"dt": 1e-2, "n_paths": 130, "master_seed": 5},
        rho={"b_grid": [-2.0, -1.0, 0.0, 1.0], "method": "exp_clock"},
    )
    one, two = tmp_path / "one", tmp_path / "two"
    assert run(["rho", "--config", cfg, "--out", one, "--workers", "1"]) == 0
    assert run(["rho", "--config", cfg, "--out", two, "--workers", "2"]) == 0
    assert (one / "result.json").read_bytes() == (two / "result.json").read_bytes()


def test_rho_reads_no_grid(tmp_path):
    # rho reads the clock skeleton: dt does not enter, and 500 paths x K = 9,216 jumps
    # (q = 0.001) exceed one skeleton chunk of 2**22 floats
    cfg = write_config(
        tmp_path,
        model={"gamma": 0.1, "sigma": 0.5,
               "jumps": {"rate": 1.0, "dist": {"kind": "kou", "p_up": 0.5, "eta_up": 3.0, "eta_down": 3.0}}},
        problem={"cost": {"kind": "quadratic"}, "C": 0.5, "q": 0.5},
        sim={"dt": 1e-2, "n_paths": 120, "master_seed": 5},
        rho={"b_grid": [-1.0, 0.0, 1.0]},
    )
    for method in ("time_integral", "exp_clock"):
        means = []
        for dt in ("0.01", "0.002"):
            out = tmp_path / f"{method}_{dt}"
            argv = ["rho", "--config", cfg, "--out", out, "--dt", dt, "--set", f"rho.method={method}"]
            assert run(argv) == 0
            means.append([r["mean"] for r in json.loads((out / "result.json").read_text())["result"]["rho"]])
        assert means[0] == means[1]
    long_clock = tmp_path / "long"
    argv = ["rho", "--config", cfg, "--out", long_clock, "--paths", "500", "--set", "problem.q=0.001"]
    assert run(argv) == 0
    curve = json.loads((long_clock / "result.json").read_text())["result"]["rho"]
    assert len(curve) == 3 and all(np.isfinite(r["mean"]) for r in curve)


def test_value_and_sweep_commands(tmp_path):
    cfg = write_config(
        tmp_path,
        sim={"dt": 5e-3, "n_paths": 40, "master_seed": 7, "tail_tol": 1e-6},
        value={"x": 0.0, "b": -1.0},
        sweep={"x": 0.0, "b_grid": [-2.0, -1.0, 0.0]},
    )
    out = tmp_path / "out"
    assert run(["value", "--config", cfg, "--out", out]) == 0
    result = json.loads((out / "result.json").read_text())
    # pure drift d=1, q=0.1, x=0 >= b: v = 2 d^2 / q^3
    assert result["result"]["value"]["v"]["mean"] == pytest.approx(2000.0, rel=0.02)
    assert run(["sweep", "--config", cfg, "--out", out]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "b,v_mean,v_stderr"
    assert len(lines) == 4


def test_verify_command_on_drift_model(tmp_path):
    cfg = write_config(
        tmp_path,
        sim={"dt": 2e-3, "n_paths": 16, "master_seed": 7, "tail_tol": 1e-6},
        solve={"bisect_tol": 2e-3},
        verify={"checks": ["barrier_derivative", "slope_identity", "convexity", "hjb"],
                "x": -5.0, "fd_h": 0.25},
    )
    out = tmp_path / "out"
    assert run(["verify", "--config", cfg, "--out", out]) == 0
    result = json.loads((out / "result.json").read_text())
    reports = {r["name"]: r for r in result["result"]["verify"]}
    assert set(reports) == {"barrier_derivative", "slope_identity", "convexity", "hjb"}
    assert all(r["passed"] for r in reports.values())
    csv_text = (out / "check_hjb.csv").read_text().splitlines()
    assert csv_text[0] == "x,residual,tolerance,passed"


def test_martingale_csv_keys_rows_by_t(tmp_path):
    out = tmp_path / "out"
    assert run(["verify", "--config", KOU, "--out", out, "--paths", 64, "--dt", 0.05,
                "--set", 'verify.checks=["martingale"]']) == 0
    assert (out / "check_martingale.csv").read_text().splitlines()[0] == "t,residual,tolerance,passed"


def test_verify_solves_at_the_configured_bisect_tol(tmp_path):
    # verify's b* is the b* that solve gives on the same config, solve.bisect_tol included
    args = ["--config", KOU, "--paths", 200, "--dt", 0.01, "--set", "solve.bisect_tol=0.05"]
    assert run(["solve", *args, "--out", tmp_path / "s"]) == 0
    assert run(["verify", *args, "--set", 'verify.checks=["convexity"]', "--out", tmp_path / "v"]) == 0
    solved = json.loads((tmp_path / "s" / "result.json").read_text())["result"]["solve"]["b_star"]
    assert json.loads((tmp_path / "v" / "result.json").read_text())["result"]["b_star"] == solved


@pytest.mark.parametrize("extra, passes", [([], [64, 64]), (["--set", "verify.checks=" + ALL_CHECKS], [64] * 3)],
                         ids=["three_checks", "five_checks"])
def test_verify_reads_its_checks_off_one_pass(tmp_path, monkeypatch, extra, passes):
    # the solve, then one pass shared by every check; the martingale check's
    # node values add one on their own seed
    seen = []
    real = path_engine.map_reduce_paths

    def counted(triplet, cfg, *args, **kwargs):
        seen.append(cfg.n_paths)
        return real(triplet, cfg, *args, **kwargs)

    monkeypatch.setattr(estimators, "map_reduce_paths", counted)
    out = tmp_path / "out"
    assert run(["verify", "--config", KOU, "--out", out, "--paths", 64, "--dt", 0.05, *extra]) == 0
    assert seen == passes
    reports = json.loads((out / "result.json").read_text())["result"]["verify"]
    assert len(reports) == (5 if extra else 3)


@pytest.mark.parametrize("checks", ['[{"a":1}]', '["convexty"]'])
def test_unknown_check_exit_2_before_any_pass(tmp_path, capsys, monkeypatch, checks):
    # the check names are read before the solve: a typo or an unhashable entry runs no grid pass
    seen = []
    monkeypatch.setattr(estimators, "map_reduce_paths", lambda *args, **kwargs: seen.append(args))
    assert run(["verify", "--config", KOU, "--out", tmp_path / "o", "--paths", 64, "--dt", 0.05,
                "--set", f"verify.checks={checks}"]) == 2
    assert "config error: config.verify.checks: unknown check" in capsys.readouterr().err
    assert seen == []


@pytest.mark.parametrize("t_grid", ["[-1.0, 1.0]", "[1.0, 1e9]", "[1.0, NaN]"])
def test_t_grid_off_the_horizon_exit_2_before_any_pass(tmp_path, capsys, monkeypatch, t_grid):
    # every time lies in [0, horizon]; a negative one would wrap to the end of the grid
    seen = []
    monkeypatch.setattr(estimators, "map_reduce_paths", lambda *args, **kwargs: seen.append(args))
    assert run(["verify", "--config", KOU, "--out", tmp_path / "o", "--paths", 64, "--dt", 0.05,
                "--set", 'verify.checks=["martingale"]', "--set", f"verify.t_grid={t_grid}"]) == 2
    assert "config error: config.verify.t_grid: expected" in capsys.readouterr().err
    assert seen == []


def test_default_t_grid_fits_a_short_horizon(tmp_path):
    # q = 5 leaves a horizon of 1.85 < 2.5: the five default times spread over it instead of being refused
    out = tmp_path / "out"
    assert run(["verify", "--config", KOU, "--out", out, "--paths", 64, "--dt", 0.05, "--set", "problem.q=5",
                "--set", 'verify.checks=["martingale"]']) == 0
    times = [row["t"] for row in json.loads((out / "result.json").read_text())["result"]["verify"][0]["details"]]
    assert times[0] == 0.0 and times[-1] == pytest.approx(1.85) and len(times) == 6


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_exit_2(tmp_path, capsys, monkeypatch, workers):
    # a process count below 1 is refused before any pass, not run on one worker and recorded as given
    seen = []
    monkeypatch.setattr(estimators, "map_reduce_paths", lambda *args, **kwargs: seen.append(args))
    out = tmp_path / "o"
    assert run(["solve", "--config", KOU, "--out", out, "--paths", 64, "--workers", workers]) == 2
    assert f"config error: --workers: expected a positive process count, got {workers}" in capsys.readouterr().err
    assert seen == [] and not (out / "meta.json").exists()


def test_verify_hands_no_pair_below_its_barrier(tmp_path, monkeypatch):
    # the check pass reflects each barrier once, as (b, b), and reads every start off it: the 19 pairs
    # the three default checks ask sit on 3 barriers (b* - h, b*, b* + h), and no pair is reflected
    handed = []
    real = estimators.map_reduce_paths

    def wrapped(triplet, cfg, reduce, **kwargs):
        if reduce.keywords.get("reads"):  # the solve's reducer reads no start
            handed.append((reduce.keywords.get("pairs", ()), reduce.keywords["reads"]))
        return real(triplet, cfg, reduce, **kwargs)

    monkeypatch.setattr(estimators, "map_reduce_paths", wrapped)
    assert run(["verify", "--config", KOU, "--out", tmp_path / "o", "--paths", 64, "--dt", 0.05]) == 0
    [(pairs, reads)] = handed
    assert pairs == () and len(reads) == 19 and len({b for _, b in reads}) == 3


@pytest.mark.parametrize("command", ["solve", "value", "sweep", "verify"])
def test_mollified_problem_through_config(tmp_path, command):
    # every command finishes on a mollified cost: its values are closed forms
    cfg = write_config(
        tmp_path,
        model={"gamma": 0.0, "sigma": 1.0, "jumps": {"rate": 0.0}},
        problem={"cost": {"kind": "abs"}, "C": 0.0, "q": 0.5, "mollify": {"epsilon": 0.2}},
        sim={"dt": 5e-3, "n_paths": 500, "master_seed": 11},
        solve={"bisect_tol": 2e-3},
        value={"x": 0.0, "b": -0.5},
        sweep={"x": 0.0, "b_grid": [-0.8, -0.5, -0.2]},
    )
    out = tmp_path / "out"
    size = [] if command == "solve" else ["--paths", "200", "--dt", "0.01"]
    assert run([command, "--config", cfg, "--out", out] + size) == 0
    result = json.loads((out / "result.json").read_text())["result"]
    assert command in result
    if command == "solve":
        # smoothed |x| barrier sits near -log 2 + eps for this model
        assert abs(result["solve"]["b_star"] + np.log(2.0) - 0.2) <= 0.1


@pytest.mark.parametrize("command, size", [("solve", ["--paths", "64", "--dt", "0.01"]),
                                           ("value", ["--paths", "16", "--dt", "0.001"])])
def test_result_independent_of_blas_threads(tmp_path, command, size):
    # the solve's pooled histogram and the value's 18,421-point grid sums
    # are longer than the dot products OpenBLAS keeps on one thread
    src = Path(path_engine.__file__).resolve().parent.parent
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "levybarrier.cli", command, "--config", str(KOU),
                        "--out", str(out)] + size, env=env, check=True, capture_output=True)
        outputs.append((out / "result.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_imports_no_scipy():
    src = Path(path_engine.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    probe = "import levybarrier.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_one_worker_solve_loads_no_process_pool_nor_checks(tmp_path):
    # a fresh interpreter: one worker never starts a pool, and only verify reads the checks
    src = Path(path_engine.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = ["solve", "--config", str(KOU), "--out", str(tmp_path / "o"), "--paths", "8", "--dt", "0.05"]
    probe = (f"import sys; from levybarrier.cli import main; assert main({argv!r}) == 0; "
             "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing', "
             "'levybarrier.verification') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("key", ["checks", "x_grid", "t_grid"])
def test_empty_verify_list_exit_2_before_any_pass(tmp_path, capsys, monkeypatch, key):
    # an empty list is refused with its dotted path, not read as its default nor run as no check
    seen = []
    monkeypatch.setattr(estimators, "map_reduce_paths", lambda *args, **kwargs: seen.append(args))
    out = tmp_path / "o"
    assert run(["verify", "--config", KOU, "--out", out, "--paths", 64, "--dt", 0.05,
                "--set", f"verify.{key}=[]"]) == 2
    assert f"config error: config.verify.{key}: expected a nonempty list" in capsys.readouterr().err
    assert seen == [] and not (out / "result.json").exists()


@pytest.mark.parametrize("command, config, size", [
    ("solve", KOU, ["--dt", "0.05"]),
    ("rho", KOU, []),
    ("perturb", CP, []),
    ("value", KOU, ["--dt", "0.05"]),
], ids=["grid_solve", "skeleton_rho", "perturb", "value"])
def test_one_path_reports_no_error_bound(tmp_path, command, config, size):
    # one path is one sample (one grid batch, one lattice replicate): its stderr is unknown, not 0
    out = tmp_path / "o"
    assert run([command, "--config", config, "--out", out, "--paths", 1] + size) == 0
    result = json.loads((out / "result.json").read_text())["result"][command]
    if command in ("solve", "perturb"):
        record = result["eps_sequence"][-1][1] if command == "perturb" else result
        assert record["ci_halfwidth"] == np.inf and record["discounted_u0"]["stderr"] == np.inf
        estimates = [record["rho_at_b_star"]]
    else:
        estimates = result if command == "rho" else list(result.values())
    assert all(est["stderr"] == np.inf and est["stderr_reliable"] is False for est in estimates)


@pytest.mark.parametrize("config, extra, code", [
    (KOU, ["--paths", 1], 2),
    (KOU, ["--paths", 2, "--set", "sim.antithetic=true"], 2),
    (None, ["--paths", 1], 0),
], ids=["kou_one_path", "kou_one_pair", "pure_drift_one_path"])
def test_verify_refuses_one_sample_of_a_stochastic_model(tmp_path, capsys, monkeypatch, config, extra, code):
    # a check's stderr from one path (or one antithetic pair) is no error bound; a deterministic path is
    # exact.  The refusal comes before any pass, the solve's included
    seen = []
    real = estimators.map_reduce_paths
    monkeypatch.setattr(estimators, "map_reduce_paths", lambda *args, **kwargs: seen.append(1) or real(*args, **kwargs))
    out = tmp_path / "o"
    config = write_config(tmp_path) if config is None else config
    assert run(["verify", "--config", config, "--out", out, "--dt", 0.05, *extra]) == code
    if code:
        assert "config error: n_paths = " in capsys.readouterr().err
    assert (seen == []) == (code != 0)
    assert (out / "result.json").exists() == (code == 0)


@pytest.mark.parametrize("key, value", [("h", "0"), ("h", "-0.05"), ("fd_h", "-1"), ("x_grid", "[0,1,2]")])
def test_verify_arguments_exit_2_before_any_pass(tmp_path, capsys, monkeypatch, key, value):
    # verify's own arguments are refused with their dotted path before the solve: a zero h would
    # divide by zero, a negative one pass with a negative curvature allowance, and a negative fd_h
    # would be blamed on the x_grid it spreads
    seen = []
    monkeypatch.setattr(estimators, "map_reduce_paths", lambda *args, **kwargs: seen.append(args))
    out = tmp_path / "o"
    assert run(["verify", "--config", KOU, "--out", out, "--paths", 64, "--dt", 0.05,
                "--set", f"verify.{key}={value}"]) == 2
    assert f"config error: config.verify.{key}: " in capsys.readouterr().err
    assert seen == [] and not (out / "result.json").exists()


@pytest.mark.parametrize("sets", [
    ['verify.checks=["barrier_derivative"]', "verify.fd_h=-1"],
    ['verify.checks=["convexity"]', "verify.x_grid=[-2,-1.5,-1,-0.5,0]", "verify.fd_h=-1"],
    ['verify.checks=["convexity"]', "verify.h=0"],
], ids=["fd_h_without_hjb", "fd_h_with_a_given_x_grid", "h_without_a_difference_check"])
def test_verify_ignores_a_step_no_asked_check_reads(tmp_path, sets):
    # h is read by barrier_derivative and slope_identity alone, fd_h by hjb and by the default x_grid
    # it spaces for convexity: neither is refused where no asked check reads it
    extra = [arg for kv in sets for arg in ("--set", kv)]
    assert run(["verify", "--config", KOU, "--out", tmp_path / "o", "--paths", 64, "--dt", 0.05, *extra]) == 0


def test_one_path_pure_drift_solve_keeps_ci_zero(tmp_path):
    # a deterministic model's one path is the exact answer
    out = tmp_path / "o"
    assert run(["solve", "--config", write_config(tmp_path, solve={"bisect_tol": 2e-3}), "--out", out,
                "--paths", 1]) == 0
    record = json.loads((out / "result.json").read_text())["result"]["solve"]
    assert record["ci_halfwidth"] == 0.0 and record["rho_at_b_star"]["stderr"] == 0.0
    assert record["rho_at_b_star"]["stderr_reliable"] is True
