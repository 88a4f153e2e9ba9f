"""The benchmark's workloads: CLI commands, sizes, and output checks.

Each workload is a short sequence of ``levybarrier`` CLI commands on one
config.  Sizes are fixed here so that every run of a workload does the same
work; the seed is the only input that varies between runs.  ``evaluate``
turns the parsed ``result.json`` payloads of one execution into named
pass/fail checks plus the figures the end-to-end metrics need.
"""
from __future__ import annotations

from dataclasses import dataclass

from metrics import nondecreasing_finite, oracle_allowance, within_reference

# b* references for the shipped configs at their shipped dt: the mean of two
# 100,000-path runs with master seeds 1000003 and 1000033 (combined one-sigma
# CI about 0.0008 for Kou and 0.0012 for the compound Poisson smallest-eps
# level).  See README.md for why each workload exists.
KOU_REFERENCE_B_STAR = -0.7358
CP_REFERENCE_B_STAR = -0.6030


@dataclass(frozen=True)
class Workload:
    name: str
    config: str          # relative to the repository root
    commands: tuple      # CLI commands run in order on the config
    paths: int           # --paths for every command
    workers: int         # --workers for the measured execution

    def argv(self, command: str, config_path: str, out_dir: str, seed: int, workers: int):
        return [command, "--config", config_path, "--out", out_dir, "--seed", str(seed),
                "--paths", str(self.paths), "--workers", str(workers)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kou_solve", "configs/kou_two_sided.json", ("solve",), 3000, 1),
        # 1,820 paths are two chunks of 910, one per worker
        Workload("kou_verify", "configs/kou_two_sided.json", ("verify",), 1820, 2),
        Workload("cp_perturb", "configs/compound_poisson.json", ("perturb",), 1200, 1),
        Workload("bm_coarse", "perfbench/bm_coarse.json", ("solve", "rho"), 10000, 1),
    )
}


def _solve_figures(rec: dict) -> dict:
    return {"b_star": rec["b_star"], "ci_halfwidth": rec["ci_halfwidth"]}


def evaluate(name: str, payloads: dict, ctx: dict) -> tuple[list, dict]:
    """(checks, figures) for one execution of workload ``name``.

    ``payloads`` maps each command to its parsed result.json; ``ctx`` holds
    what the checks need from the config (``oracle_b_star``, ``sigma``,
    ``dt``, ``bisect_tol``, ``C`` for bm_coarse).  ``figures["ci_halfwidth"]``
    is the half-width that time_to_ci_s projects, and
    ``figures["ci_command"]`` the command whose wall it scales.
    """
    checks = []
    if name == "kou_solve":
        fig = _solve_figures(payloads["solve"]["result"]["solve"])
        checks.append(("b_star_near_reference",
                       within_reference(fig["b_star"], fig["ci_halfwidth"], KOU_REFERENCE_B_STAR)))
        fig["ci_command"] = "solve"
    elif name == "cp_perturb":
        res = payloads["perturb"]["result"]["perturb"]
        fig = _solve_figures(res["eps_sequence"][-1][1])
        checks.append(("b_star_near_reference",
                       within_reference(fig["b_star"], fig["ci_halfwidth"], CP_REFERENCE_B_STAR)))
        checks.append(("monotone_trend", res["monotone_trend"] is True))
        fig["ci_command"] = "perturb"
    elif name == "kou_verify":
        reports = {r["name"]: r for r in payloads["verify"]["result"]["verify"]}
        for check in ("barrier_derivative", "slope_identity", "convexity"):
            checks.append((f"{check}_passed", check in reports and reports[check]["passed"] is True))
        # no CI on b* leaves verify; it projects the largest stderr among
        # the convexity check's second differences, its least precise output
        fig = {"b_star": payloads["verify"]["result"]["b_star"], "ci_command": "verify",
               "ci_halfwidth": max(d["se"] for d in reports["convexity"]["details"])}
    elif name == "bm_coarse":
        fig = _solve_figures(payloads["solve"]["result"]["solve"])
        err = abs(fig["b_star"] - ctx["oracle_b_star"])
        allowance = oracle_allowance(ctx["sigma"], ctx["dt"], fig["ci_halfwidth"], ctx["bisect_tol"])
        checks.append(("b_star_near_oracle", err <= allowance))
        curve = payloads["rho"]["result"]["rho"]
        checks.append(("rho_curve_finite_nondecreasing",
                       nondecreasing_finite(r["mean"] for r in curve)))
        at_oracle = [r for r in curve if abs(r["b"] - ctx["oracle_b_star"]) < 1e-12]
        fig["b_star_abs_err"] = err
        fig["rho_ec_abs_err"] = abs(at_oracle[0]["mean"] + ctx["C"]) if at_oracle else float("nan")
        fig["ci_command"] = "solve"
    else:
        raise KeyError(f"unknown workload {name!r}")
    return checks, fig
