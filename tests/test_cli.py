import json
from pathlib import Path

import numpy as np
import pytest

from levybarrier import barrier_solver, estimators, path_engine
from levybarrier.cli import main

KOU = Path(__file__).resolve().parent.parent / "configs" / "kou_two_sided.json"
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


def test_unsorted_grid_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, rho={"b_grid": [1.0, 0.0]})
    assert run(["rho", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "sorted" in capsys.readouterr().err


def test_missing_field_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"model": {"gamma": 1.0, "sigma": 0.0}}))
    assert run(["solve", "--config", cfg_path, "--out", tmp_path / "o"]) == 2
    assert "problem" in capsys.readouterr().err


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


@pytest.mark.parametrize("extra, passes", [([], [64, 64]), (["--set", "verify.checks=" + ALL_CHECKS], [64] * 3)],
                         ids=["three_checks", "five_checks"])
def test_verify_reads_its_checks_off_one_pass(tmp_path, monkeypatch, extra, passes):
    # the solve, then one pass shared by every check; the martingale check's
    # node values add one on their own seed
    seen = []
    real = path_engine.map_reduce_paths

    def counted(triplet, x_start, cfg, *args, **kwargs):
        seen.append(cfg.n_paths)
        return real(triplet, x_start, cfg, *args, **kwargs)

    for module in (path_engine, estimators, barrier_solver):
        monkeypatch.setattr(module, "map_reduce_paths", counted)
    out = tmp_path / "out"
    assert run(["verify", "--config", KOU, "--out", out, "--paths", 64, "--dt", 0.05, *extra]) == 0
    assert seen == passes
    reports = json.loads((out / "result.json").read_text())["result"]["verify"]
    assert len(reports) == (5 if extra else 3)


def test_mollified_problem_through_config(tmp_path):
    cfg = write_config(
        tmp_path,
        model={"gamma": 0.0, "sigma": 1.0, "jumps": {"rate": 0.0}},
        problem={"cost": {"kind": "abs"}, "C": 0.0, "q": 0.5, "mollify": {"epsilon": 0.2}},
        sim={"dt": 5e-3, "n_paths": 500, "master_seed": 11},
        solve={"bisect_tol": 2e-3},
    )
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 0
    result = json.loads((out / "result.json").read_text())
    # smoothed |x| barrier sits near -log 2 + eps for this model
    assert abs(result["result"]["solve"]["b_star"] + np.log(2.0) - 0.2) <= 0.1
