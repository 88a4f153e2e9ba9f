"""Batch front-end: read a JSON config, run a command, emit JSON/CSV results.

Commands
--------
solve    optimal barrier via bisection on rho-hat + C
value    (v1, v2, v) at a given barrier and start
rho      rho-hat over a barrier grid (CSV: b,rho_mean,rho_stderr)
sweep    v-hat_b(x) over a barrier grid (CSV: b,v_mean,v_stderr)
verify   structural checks, all read off one shared pass after the solve
         (CSV per check: x,residual,tolerance,passed)
perturb  driftless compound Poisson barrier via vanishing drifts

Config schema (defaults in brackets):

    model:   gamma, sigma, theta_bar [1.0],
             jumps: rate [0], dist: {kind, ...params}
    problem: cost: {kind, ...params}, C, q, mollify: {epsilon, anchor [0]}
    sim:     dt, horizon_T [derived from tail_tol], n_paths, master_seed,
             antithetic [false], tail_tol [1e-4]
    solve:   bisect_tol [relative 1e-3]
    value:   x, b
    rho:     b_grid, method [time_integral]
    sweep:   x, b_grid
    verify:  checks [all], x, b, h [0.05], fd_h [0.25], x_grid, t_grid
    perturb: eps_grid [0.2, 0.1, 0.05, 0.025], bisect_tol

Unknown keys are rejected with the offending dotted path.  result.json is
byte-identical across runs with the same config and seed (worker count and
timestamps never enter it; volatile metadata goes to meta.json).

Exit codes: 0 success, 2 config validation, 3 solver preconditions
(assumption violated / no sign change), 4 numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from pathlib import Path

from . import __version__
from .barrier_solver import barrier_sweep, solve_barrier, solve_barrier_perturbed
from .cost_model import ProblemSpec, builtin_cost, mollify
from .errors import (
    AssumptionViolated,
    ConfigError,
    InvalidModel,
    LevyBarrierError,
    NoSignChange,
    NonConvexSpec,
    NonFiniteSample,
    NotSpectrallyNegative,
)
from .estimators import estimate_record, estimate_rho_curve, estimate_value
from .levy_model import JumpSpec, LevyTriplet
from .path_engine import SimConfig, horizon_for
from .verification import run_checks

COMMANDS = ("solve", "value", "rho", "sweep", "verify", "perturb")

_SCHEMA = {
    "model": {"gamma", "sigma", "theta_bar", "jumps"},
    "model.jumps": {"rate", "dist"},
    "model.jumps.dist": {"kind", "p_up", "eta_up", "eta_down", "mean", "std", "lo", "hi", "values", "probs"},
    "problem": {"cost", "C", "q", "mollify"},
    "problem.cost": {"kind", "slopes", "kinks"},
    "problem.mollify": {"epsilon", "anchor"},
    "sim": {"dt", "horizon_T", "n_paths", "master_seed", "antithetic", "tail_tol"},
    "solve": {"bisect_tol"},
    "value": {"x", "b"},
    "rho": {"b_grid", "method"},
    "sweep": {"x", "b_grid"},
    "verify": {"checks", "x", "b", "h", "fd_h", "x_grid", "t_grid"},
    "perturb": {"eps_grid", "bisect_tol"},
}


def _reject_unknown(cfg: dict, path: str = "") -> None:
    allowed = _SCHEMA.get(path) if path else set(_SCHEMA) | set(COMMANDS)
    if allowed is None:
        return
    for key in cfg:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"config.{where}: unknown key")
        sub = cfg[key]
        subpath = f"{path}.{key}" if path else key
        if isinstance(sub, dict):
            _reject_unknown(sub, subpath)


def _need(cfg: dict, path: str):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"config.{path}: required field is missing")
        node = node[part]
    return node


def _build_model(cfg: dict) -> LevyTriplet:
    section = _need(cfg, "model")
    jumps_cfg = section.get("jumps", {"rate": 0.0})
    rate = float(jumps_cfg.get("rate", 0.0))
    if rate > 0:
        dist = jumps_cfg.get("dist")
        if not isinstance(dist, dict) or "kind" not in dist:
            raise ConfigError("config.model.jumps.dist: need a dist with a 'kind' for rate > 0")
        kind = dist["kind"]
        try:
            if kind == "kou":
                jumps = JumpSpec.kou_mixture(rate, dist["p_up"], dist["eta_up"], dist["eta_down"])
            elif kind == "gaussian":
                jumps = JumpSpec.gaussian_sizes(rate, dist["mean"], dist["std"])
            elif kind == "uniform":
                jumps = JumpSpec.uniform_sizes(rate, dist["lo"], dist["hi"])
            elif kind == "atoms":
                jumps = JumpSpec.atom_sizes(rate, dist["values"], dist["probs"])
            else:
                raise ConfigError(f"config.model.jumps.dist.kind: unknown kind {kind!r}")
        except KeyError as exc:
            raise ConfigError(f"config.model.jumps.dist.{exc.args[0]}: required field is missing")
    else:
        jumps = JumpSpec.none()
    try:
        return LevyTriplet(
            gamma=float(_need(cfg, "model.gamma")),
            sigma=float(_need(cfg, "model.sigma")),
            jumps=jumps,
            exp_moment_theta=float(section.get("theta_bar", 1.0)),
        )
    except InvalidModel as exc:
        raise ConfigError(f"config.model: {exc}")


def _build_problem(cfg: dict) -> ProblemSpec:
    cost_cfg = dict(_need(cfg, "problem.cost"))
    kind = cost_cfg.pop("kind", None)
    if kind is None:
        raise ConfigError("config.problem.cost.kind: required field is missing")
    try:
        cost = builtin_cost(kind, **cost_cfg)
    except (NonConvexSpec, ValueError) as exc:
        raise ConfigError(f"config.problem.cost: {exc}")
    moll = cfg["problem"].get("mollify")
    if moll and moll.get("epsilon"):
        cost = mollify(cost, float(moll["epsilon"]), float(moll.get("anchor", 0.0)))
    try:
        return ProblemSpec(cost=cost, C=float(_need(cfg, "problem.C")), q=float(_need(cfg, "problem.q")))
    except ValueError as exc:
        raise ConfigError(f"config.problem: {exc}")


def _build_sim(cfg: dict, q: float) -> SimConfig:
    sim = _need(cfg, "sim")
    tail_tol = float(sim.get("tail_tol", 1e-4))
    dt = float(_need(cfg, "sim.dt"))
    horizon = sim.get("horizon_T")
    if horizon is None:
        horizon = horizon_for(q, tail_tol, dt)
    try:
        out = SimConfig(
            dt=dt,
            horizon_T=float(horizon),
            n_paths=int(_need(cfg, "sim.n_paths")),
            master_seed=int(_need(cfg, "sim.master_seed")),
            antithetic=bool(sim.get("antithetic", False)),
            tail_tol=tail_tol,
        )
        out.validate_for(q)
    except ValueError as exc:
        raise ConfigError(f"config.sim: {exc}")
    return out


def _apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    applied = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r}: {part} is not a section")
        node[parts[-1]] = value
        applied[key] = value
    return applied


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _check_to_csv(out_dir: Path, name: str, report) -> None:
    rows = []
    for row in report.details:
        key = "x" if "x" in row else ("t" if "t" in row else "b")
        rows.append([row.get(key), row.get("residual"), row.get("tolerance"), row.get("passed")])
    _write_csv(out_dir / f"check_{name}.csv", ["x", "residual", "tolerance", "passed"], rows)


def _run_command(command: str, cfg: dict, out_dir: Path, n_workers: int) -> dict:
    model = _build_model(cfg)
    problem = _build_problem(cfg)
    sim = _build_sim(cfg, problem.q)

    if command == "solve":
        tol = cfg.get("solve", {}).get("bisect_tol")
        res = solve_barrier(model, problem, sim, bisect_tol=tol, n_workers=n_workers)
        print(f"solve: b_star={res.b_star:.6g} ci_halfwidth={res.ci_halfwidth:.3g}")
        return {"solve": res.to_record()}

    if command == "value":
        x = float(_need(cfg, "value.x"))
        b = float(_need(cfg, "value.b"))
        v1, v2, v = estimate_value(model, problem, b, x, sim, n_workers=n_workers)
        print(f"value: v={v.mean:.6g} +/- {v.stderr:.2g}")
        return {
            "value": {
                "v": estimate_record("value_total", v, b=b, x=x),
                "v1": estimate_record("value_running", v1, b=b, x=x),
                "v2": estimate_record("value_control", v2, b=b, x=x),
            }
        }

    if command == "rho":
        section = cfg.get("rho", {})
        b_grid = _need(cfg, "rho.b_grid")
        method = section.get("method", "time_integral")
        curve = estimate_rho_curve(model, problem, b_grid, sim, method=method, n_workers=n_workers)
        _write_csv(
            out_dir / "rho.csv",
            ["b", "rho_mean", "rho_stderr"],
            [[b, est.mean, est.stderr] for b, est in curve],
        )
        print(f"rho: {len(curve)} barriers, rho({curve[0][0]:g})={curve[0][1].mean:.4g} .. "
              f"rho({curve[-1][0]:g})={curve[-1][1].mean:.4g}")
        return {"rho": [estimate_record("rho", est, b=b) for b, est in curve]}

    if command == "sweep":
        x = float(_need(cfg, "sweep.x"))
        b_grid = _need(cfg, "sweep.b_grid")
        curve = barrier_sweep(model, problem, x, b_grid, sim, n_workers=n_workers)
        _write_csv(
            out_dir / "sweep.csv",
            ["b", "v_mean", "v_stderr"],
            [[b, est.mean, est.stderr] for b, est in curve],
        )
        best = min(curve, key=lambda be: be[1].mean)
        print(f"sweep: min v at b={best[0]:g} (v={best[1].mean:.6g})")
        return {"sweep": [estimate_record("sweep_value", est, b=b, x=x) for b, est in curve]}

    if command == "verify":
        section = cfg.get("verify", {})
        names = section.get("checks", ["barrier_derivative", "slope_identity", "convexity", "martingale", "hjb"])
        res = solve_barrier(model, problem, sim, n_workers=n_workers)
        b = float(section.get("b", res.b_star))
        x = float(section.get("x", b + 1.0))
        h = float(section.get("h", 0.05))
        fd_h = float(section.get("fd_h", 0.25))
        x_grid = section.get("x_grid") or [b + (i - 7) * fd_h * 2 for i in range(15)]
        t_grid = section.get("t_grid") or [0.5 * k for k in range(1, 6)]
        check_args = {
            "barrier_derivative": {"x": x, "b": b, "h": h},
            "slope_identity": {"x": x, "b": b, "h": h},
            "convexity": {"x_grid": x_grid, "b_star": res.b_star},
            "martingale": {"x": x, "t_grid": t_grid, "b_star": res.b_star},
            "hjb": {"x_grid": x_grid, "fd_h": fd_h, "b_star": res.b_star},
        }
        for name in names:
            if name not in check_args:
                raise ConfigError(f"config.verify.checks: unknown check {name!r}")
        reports = run_checks(model, problem, sim, [(n, check_args[n]) for n in names], n_workers=n_workers)
        for name, rep in zip(names, reports):
            _check_to_csv(out_dir, name, rep)
        print("verify: " + " ".join(f"{r.name}={'PASS' if r.passed else 'FAIL'}" for r in reports))
        return {"verify": [r.to_record() for r in reports], "b_star": res.b_star}

    if command == "perturb":
        section = cfg.get("perturb", {})
        eps_grid = section.get("eps_grid", [0.2, 0.1, 0.05, 0.025])
        res = solve_barrier_perturbed(
            model, problem, sim, eps_grid=eps_grid, bisect_tol=section.get("bisect_tol"),
            n_workers=n_workers,
        )
        print(f"perturb: b_star={res.b_star:.6g} (smallest eps of {len(res.levels)})")
        return {"perturb": res.to_record()}

    raise ConfigError(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="levybarrier", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="config override, repeatable")
    parser.add_argument("--seed", type=int, help="override sim.master_seed")
    parser.add_argument("--paths", type=int, help="override sim.n_paths")
    parser.add_argument("--dt", type=float, help="override sim.dt")
    parser.add_argument("--horizon", type=float, help="override sim.horizon_T")
    parser.add_argument("--workers", type=int, default=1,
                        help="process count (never affects results or output files)")
    args = parser.parse_args(argv)

    try:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        overrides = list(args.overrides)
        for flag, key in (("seed", "sim.master_seed"), ("paths", "sim.n_paths"),
                          ("dt", "sim.dt"), ("horizon", "sim.horizon_T")):
            val = getattr(args, flag)
            if val is not None:
                overrides.append(f"{key}={val}")
        applied = _apply_overrides(cfg, overrides)
        _reject_unknown(cfg)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        result = _run_command(args.command, cfg, out_dir, max(1, args.workers))
    except (ConfigError, ValueError) as exc:
        # every input reaches the library through the config, so a rejected
        # value is a config problem, not a numeric one
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AssumptionViolated, NoSignChange) as exc:
        print(f"solver precondition failed: {exc}", file=sys.stderr)
        return 3
    except (NonFiniteSample, NotSpectrallyNegative, InvalidModel, ArithmeticError,
            LevyBarrierError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4

    payload = {
        "command": args.command,
        "config": cfg,
        "overrides": applied,
        "result": result,
    }
    (out_dir / "result.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    meta = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
        "workers": args.workers,
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
