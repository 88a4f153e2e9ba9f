"""Batch front-end: read a JSON config, run a command, emit JSON/CSV results.

Commands
--------
solve    optimal barrier via bisection on rho-hat + C
value    (v1, v2, v) at a given barrier and start
rho      rho-hat over a barrier grid, read exactly off the exponential-clock
         skeleton: no grid, so sim.dt does not enter (CSV: b,rho_mean,rho_stderr)
sweep    v-hat_b(x) over a barrier grid (CSV: b,v_mean,v_stderr)
verify   structural checks, all read off one shared pass after the solve
         (CSV per check: x,residual,tolerance,passed; t for x in martingale's)
perturb  driftless compound Poisson barrier via vanishing drifts

Config schema (defaults in brackets):

    model:   gamma, sigma, theta_bar [1.0],
             jumps: rate [0], dist: {kind, ...params}, params by kind:
                 kou: p_up, eta_up, eta_down;  gaussian: mean, std;
                 uniform: lo, hi;  atoms: values, probs
    problem: cost: {kind, ...params}, C, q, mollify: {epsilon, anchor [0]}
    sim:     dt, horizon_T [derived from tail_tol], n_paths, master_seed,
             antithetic [false], tail_tol [1e-4]
    solve:   bisect_tol [relative 1e-3]
    value:   x, b
    rho:     b_grid, method [time_integral]
    sweep:   x, b_grid
    verify:  checks [all], x, b, h [0.05], fd_h [0.25], x_grid,
             t_grid [0.5, 1, ..., 2.5, or five times spread evenly up to a
             shorter horizon] (times in [0, horizon])
    perturb: eps_grid [0.2, 0.1, 0.05, 0.025], bisect_tol

Unknown keys (a dist or cost parameter included that its kind does not
take), wrongly typed values (a dist parameter is typed by its family),
empty lists (verify.checks too), unsorted grids, an unknown rho method and
a martingale time outside [0, horizon] are rejected with the offending
dotted path.
result.json is byte-identical across runs with the same config and seed
(worker count and timestamps never enter it; volatile metadata goes to
meta.json).

Exit codes: 0 success, 2 config validation (or --workers below 1), 3 solver
preconditions (assumption violated / no sign change), 4 numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
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
)
from .estimators import estimate_record, estimate_value, skeleton_rho_curve
from .levy_model import JUMP_FAMILIES, JumpSpec, LevyTriplet
from .path_engine import CHUNK_TARGET_FLOATS, ENGINE_VERSION, SimConfig, horizon_for

COMMANDS = ("solve", "value", "rho", "sweep", "verify", "perturb")
CHECKS = ("barrier_derivative", "slope_identity", "convexity", "martingale", "hjb")

_SCHEMA = {
    "model": {"gamma", "sigma", "theta_bar", "jumps"},
    "model.jumps": {"rate", "dist"},
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
        elif subpath in _SCHEMA:
            raise ConfigError(f"config.{subpath}: expected an object")


_COST_KEYS = {"quadratic": {}, "quartic": {}, "abs": {}, "piecewise_linear": {"slopes": list, "kinks": list}}
_EXPECTED = {float: "a number", int: "an integer", bool: "true or false", list: "a list of numbers"}
_REQUIRED = object()


def _need(cfg: dict, path: str, kind=None, default=_REQUIRED):
    """``config.<path>``, converted to ``kind`` when given: float, int, bool (a JSON true or
    false only: bool("false") is True) or list (of floats); a float or list is finite.  An
    absent or null field is ``default``, or an error when none is given."""
    node = cfg
    for part in path.split("."):
        node = node.get(part) if isinstance(node, dict) else None
    if node is None:
        if default is _REQUIRED:
            raise ConfigError(f"config.{path}: required field is missing")
        return default
    if kind is None or (kind is bool and isinstance(node, bool)):
        return node
    try:
        if kind is list and isinstance(node, list):
            values = [float(v) for v in node]
            if all(map(math.isfinite, values)):
                return values
        if kind in (float, int) and not isinstance(node, (bool, list, dict)):
            value = kind(node)
            if (not isinstance(node, float) or value == node) and math.isfinite(value):  # int(2.5) would be 2
                return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"config.{path}: expected {_EXPECTED[kind]}, got {node!r}")


def _params(cfg: dict, path: str, kinds: dict) -> dict:
    """The fields of the section at ``path`` named by ``kinds``, each read as its kind; the
    section holds no other key but its own kind."""
    for key in _need(cfg, path):
        if key != "kind" and key not in kinds:
            raise ConfigError(f"config.{path}.{key}: unknown key")
    return {name: _need(cfg, f"{path}.{name}", kind) for name, kind in kinds.items()}


def _grid(cfg: dict, path: str) -> list:
    """``config.<path>``, a nonempty list of numbers sorted strictly increasing."""
    grid = _need(cfg, path, list)
    if not grid or any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ConfigError(f"config.{path}: expected a nonempty list sorted strictly increasing, got {grid}")
    return grid


def _given_list(cfg: dict, path: str) -> list | None:
    """``config.<path>``, a nonempty list of numbers, or None when absent."""
    values = _need(cfg, path, list, None)
    if values == []:
        raise ConfigError(f"config.{path}: expected a nonempty list of numbers, got []")
    return values


def _build_jumps(cfg: dict) -> JumpSpec:
    """The law of ``model.jumps``; a dist given is checked against its family even at rate 0."""
    rate = _need(cfg, "model.jumps.rate", float, 0.0)
    if _need(cfg, "model.jumps.dist", default=None) is None and rate <= 0:
        return JumpSpec.none()
    kind = _need(cfg, "model.jumps.dist.kind")
    family = JUMP_FAMILIES.get(str(kind))
    if family is None:
        raise ConfigError(f"config.model.jumps.dist.kind: unknown kind {kind!r}")
    params = _params(cfg, "model.jumps.dist", family.param_kinds())
    return family(rate, **params) if rate > 0 else JumpSpec.none()


def _build_model(cfg: dict) -> LevyTriplet:
    try:
        return LevyTriplet(
            gamma=_need(cfg, "model.gamma", float),
            sigma=_need(cfg, "model.sigma", float),
            jumps=_build_jumps(cfg),
            exp_moment_theta=_need(cfg, "model.theta_bar", float, 1.0),
        )
    except InvalidModel as exc:
        raise ConfigError(f"config.model: {exc}")


def _build_problem(cfg: dict) -> ProblemSpec:
    kind = _need(cfg, "problem.cost.kind")
    try:
        cost = builtin_cost(kind, **_params(cfg, "problem.cost", _COST_KEYS.get(str(kind), {})))
    except (NonConvexSpec, ValueError) as exc:
        raise ConfigError(f"config.problem.cost: {exc}")
    epsilon = _need(cfg, "problem.mollify.epsilon", float, None)
    if epsilon:
        cost = mollify(cost, epsilon, _need(cfg, "problem.mollify.anchor", float, 0.0))
    try:
        return ProblemSpec(cost=cost, C=_need(cfg, "problem.C", float), q=_need(cfg, "problem.q", float))
    except ValueError as exc:
        raise ConfigError(f"config.problem: {exc}")


def _build_sim(cfg: dict, q: float) -> SimConfig:
    tail_tol = _need(cfg, "sim.tail_tol", float, 1e-4)
    dt = _need(cfg, "sim.dt", float)
    horizon = _need(cfg, "sim.horizon_T", float, None)
    if dt <= 0:  # horizon_for divides by it
        raise ConfigError(f"config.sim.dt: expected a positive number, got {dt!r}")
    if not 0 < tail_tol < 1:  # and takes its log
        raise ConfigError(f"config.sim.tail_tol: expected a number in (0, 1), got {tail_tol!r}")
    if horizon is None:
        horizon = horizon_for(q, tail_tol)
        if not horizon / dt < CHUNK_TARGET_FLOATS - 1:  # checked before the steps are counted
            raise ConfigError(f"config.sim.dt: the horizon log(1 / sim.tail_tol) / problem.q = {horizon:.3g} "
                              f"is {horizon / dt:.3g} steps of {dt:g}, beyond the budget of "
                              f"{CHUNK_TARGET_FLOATS - 1} per path; use a larger sim.dt, problem.q or sim.tail_tol")
        horizon = horizon_for(q, tail_tol, dt)
    try:
        out = SimConfig(
            dt=dt,
            horizon_T=horizon,
            n_paths=_need(cfg, "sim.n_paths", int),
            master_seed=_need(cfg, "sim.master_seed", int),
            antithetic=_need(cfg, "sim.antithetic", bool, False),
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
    """check_<name>.csv, one row per detail keyed by its x (its t for the martingale check)."""
    key = "x" if all("x" in row for row in report.details) else "t"
    rows = [[row[key], row["residual"], row["tolerance"], row["passed"]] for row in report.details]
    _write_csv(out_dir / f"check_{name}.csv", [key, "residual", "tolerance", "passed"], rows)


def _run_command(command: str, cfg: dict, out_dir: Path, n_workers: int) -> dict:
    model = _build_model(cfg)
    problem = _build_problem(cfg)
    sim = _build_sim(cfg, problem.q)

    if command == "solve":
        tol = _need(cfg, "solve.bisect_tol", float, None)
        res = solve_barrier(model, problem, sim, bisect_tol=tol, n_workers=n_workers)
        print(f"solve: b_star={res.b_star:.6g} ci_halfwidth={res.ci_halfwidth:.3g}")
        return {"solve": res.to_record()}

    if command == "value":
        x = _need(cfg, "value.x", float)
        b = _need(cfg, "value.b", float)
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
        b_grid = _grid(cfg, "rho.b_grid")
        method = _need(cfg, "rho.method", default="time_integral")
        if method not in ("time_integral", "exp_clock"):
            raise ConfigError(f"config.rho.method: expected time_integral or exp_clock, got {method!r}")
        curve = skeleton_rho_curve(model, problem, b_grid, sim, method=method)
        _write_csv(
            out_dir / "rho.csv",
            ["b", "rho_mean", "rho_stderr"],
            [[b, est.mean, est.stderr] for b, est in curve],
        )
        print(f"rho: {len(curve)} barriers, rho({curve[0][0]:g})={curve[0][1].mean:.4g} .. "
              f"rho({curve[-1][0]:g})={curve[-1][1].mean:.4g}")
        return {"rho": [estimate_record("rho", est, b=b) for b, est in curve]}

    if command == "sweep":
        x = _need(cfg, "sweep.x", float)
        b_grid = _grid(cfg, "sweep.b_grid")
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
        # here: no other command pays for loading the checks
        from .verification import _convexity_grid, _require_samples, run_checks
        names = _need(cfg, "verify.checks", default=list(CHECKS))
        if not isinstance(names, list):
            raise ConfigError(f"config.verify.checks: expected a list of check names, got {names!r}")
        if not names:  # no check would run the whole solve for nothing
            raise ConfigError("config.verify.checks: expected a nonempty list of check names, got []")
        for name in names:  # before the solve, which the checks wait for
            if not isinstance(name, str) or name not in CHECKS:
                raise ConfigError(f"config.verify.checks: unknown check {name!r}")
        top = min(2.5, sim.effective_horizon)  # k / 5 <= 1, so no default time passes the horizon
        t_grid = _given_list(cfg, "verify.t_grid") or [top * (k / 5) for k in range(1, 6)]
        x_grid = _given_list(cfg, "verify.x_grid")
        if "martingale" in names and not all(0 <= t <= sim.effective_horizon for t in t_grid):
            raise ConfigError(f"config.verify.t_grid: expected times in [0, {sim.effective_horizon:g}], "
                              f"the simulation horizon, got {t_grid}")
        h, fd_h = _need(cfg, "verify.h", float, None), _need(cfg, "verify.fd_h", float, 0.25)
        if h is not None and not h > 0 and {"barrier_derivative", "slope_identity"} & set(names):
            raise ConfigError(f"config.verify.h: expected a positive number, got {h!r}")
        if not fd_h > 0 and ("hjb" in names or "convexity" in names and x_grid is None):  # fd_h spaces its x_grid
            raise ConfigError(f"config.verify.fd_h: expected a positive number, got {fd_h!r}")
        if "convexity" in names and x_grid is not None:
            try:
                _convexity_grid(x_grid)
            except ValueError as exc:
                raise ConfigError(f"config.verify.x_grid: {exc}, got {x_grid}")
        _require_samples(model, sim)
        res = solve_barrier(model, problem, sim, bisect_tol=_need(cfg, "solve.bisect_tol", float, None),
                            n_workers=n_workers)
        b = _need(cfg, "verify.b", float, res.b_star)
        x = _need(cfg, "verify.x", float, b + 1.0)
        x_grid = x_grid or [b + (i - 7) * fd_h * 2 for i in range(15)]
        at_b = {"x": x, "b": b, **({} if h is None else {"h": h})}
        check_args = {
            "barrier_derivative": at_b,
            "slope_identity": at_b,
            "convexity": {"x_grid": x_grid, "b_star": res.b_star},
            "martingale": {"x": x, "t_grid": t_grid, "b_star": res.b_star},
            "hjb": {"x_grid": x_grid, "fd_h": fd_h, "b_star": res.b_star},
        }
        reports = run_checks(model, problem, sim, [(n, check_args[n]) for n in names], n_workers=n_workers)
        for name, rep in zip(names, reports):
            _check_to_csv(out_dir, name, rep)
        print("verify: " + " ".join(f"{r.name}={'PASS' if r.passed else 'FAIL'}" for r in reports))
        return {"verify": [r.to_record() for r in reports], "b_star": res.b_star}

    if command == "perturb":
        eps_grid = _need(cfg, "perturb.eps_grid", list, None)
        if eps_grid is not None and (not eps_grid or eps_grid[-1] <= 0
                                     or any(e2 >= e1 for e1, e2 in zip(eps_grid, eps_grid[1:]))):
            raise ConfigError("config.perturb.eps_grid: expected a nonempty list of positive numbers sorted "
                              f"strictly decreasing, got {eps_grid}")
        res = solve_barrier_perturbed(model, problem, sim, bisect_tol=_need(cfg, "perturb.bisect_tol", float, None),
                                      **({} if eps_grid is None else {"eps_grid": eps_grid}))
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
        if args.workers < 1:
            raise ConfigError(f"--workers: expected a positive process count, got {args.workers}")
        applied = _apply_overrides(cfg, overrides)
        _reject_unknown(cfg)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        result = _run_command(args.command, cfg, out_dir, args.workers)
    except (ConfigError, ValueError) as exc:
        # every input reaches the library through the config, so a rejected
        # value is a config problem, not a numeric one
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AssumptionViolated, NoSignChange) as exc:
        print(f"solver precondition failed: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, LevyBarrierError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4

    payload = {
        "command": args.command,
        "config": cfg,
        "engine_version": ENGINE_VERSION,
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
