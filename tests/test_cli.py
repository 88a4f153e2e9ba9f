import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from levybarrier import barrier_solver, estimators, path_engine, verification
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
], ids=["bisect_tol", "b_grid", "antithetic", "n_paths", "fractional_n_paths", "gamma", "checks"])
def test_wrongly_typed_value_exit_2(tmp_path, capsys, command, override, message):
    cfg = write_config(tmp_path, rho={"b_grid": [0.0]})
    assert run([command, "--config", cfg, "--out", tmp_path / "o", "--set", override]) == 2
    assert message in capsys.readouterr().err


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
    ):
        assert run([command, "--config", KOU, "--out", tmp_path / "o", "--paths", "10", "--set", override]) == 2
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

    for module in (estimators, barrier_solver, verification):
        monkeypatch.setattr(module, "map_reduce_paths", counted)
    out = tmp_path / "out"
    assert run(["verify", "--config", KOU, "--out", out, "--paths", 64, "--dt", 0.05, *extra]) == 0
    assert seen == passes
    reports = json.loads((out / "result.json").read_text())["result"]["verify"]
    assert len(reports) == (5 if extra else 3)


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
