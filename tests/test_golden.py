"""Golden results: every CLI command on the shipped configs at a tiny size.

The pinned figures were produced by the code before the reflected-value
kernel was shared between estimators, solver and checks; that refactor is
bit-preserving, so they must match to rounding.  A deliberate change of the
per-path stream contract updates them on purpose.

Re-pinned when the solver's stderr became a batch-means one (fixed path
batches, no pilot): the solver's ``ci_halfwidth`` and ``rho_stderr`` for
``solve`` and every ``perturb`` level, plus the figures that move at rounding
level because the per-batch chunks change summation order and matvec row
counts: each ``perturb`` level's ``rho_mean`` (a near-cancelling pooled
histogram sum, <= 1e-14 absolute) and the ``verify`` convexity statistic
(5e-17 absolute).  Every ``b_star`` and every other figure was unchanged to
rel 1e-12.

Re-pinned when the exp-clock rho stopped drawing a clock and a second set
of paths and integrated the clock out on the grid paths instead: only
``rho_exp_clock``, whose sample is a new one.  Old -> new at b = -2.0:
mean -5.826058238647674 -> -5.554555784839931, stderr 0.3676664364646955 ->
0.2318208299745246 (every point moves by the same mean shift, +0.2715; the
quadratic cost makes the curve a straight line in b either way).
"""
import json
from pathlib import Path

import pytest

from levybarrier.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
KOU = CONFIGS / "kou_two_sided.json"
CP = CONFIGS / "compound_poisson.json"
ALL_CHECKS = '["barrier_derivative","slope_identity","convexity","martingale","hjb"]'
TINY = ["--paths", "64", "--dt", "0.01"]

RUNS = {
    "solve": ("solve", KOU, []),
    "value": ("value", KOU, []),
    "rho": ("rho", KOU, []),
    "rho_exp_clock": ("rho", KOU, ["--set", "rho.method=exp_clock"]),
    "sweep": ("sweep", KOU, []),
    "verify": ("verify", KOU, ["--set", "verify.checks=" + ALL_CHECKS]),
    "perturb": ("perturb", CP, []),
}


def _solve_figures(rec):
    return {
        "b_star": rec["b_star"],
        "ci_halfwidth": rec["ci_halfwidth"],
        "rho_mean": rec["rho_at_b_star"]["mean"],
        "rho_stderr": rec["rho_at_b_star"]["stderr"],
    }


def _curve(records):
    return [[r["b"], r["mean"], r["stderr"]] for r in records]


def figures(name, result):
    """The pinned numbers of one run's result.json payload."""
    res = result["result"]
    if name == "solve":
        return _solve_figures(res["solve"])
    if name == "value":
        return {k: [res["value"][k]["mean"], res["value"][k]["stderr"]] for k in ("v", "v1", "v2")}
    if name in ("rho", "rho_exp_clock"):
        return _curve(res["rho"])
    if name == "sweep":
        return _curve(res["sweep"])
    if name == "verify":
        out = {r["name"]: [r["statistic"], r["tolerance"]] for r in res["verify"]}
        out["b_star"] = res["b_star"]
        return out
    if name == "perturb":
        return {
            "b_star": res["perturb"]["b_star"],
            "levels": [[eps, _solve_figures(rec)] for eps, rec in res["perturb"]["eps_sequence"]],
        }
    raise KeyError(name)


def _leaves(obj, path=""):
    """Flat {path: number} view of nested lists and dicts."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {path: obj}
    out = {}
    for key, val in items:
        out.update(_leaves(val, f"{path}/{key}"))
    return out


def run_figures(name, out_dir):
    command, config, extra = RUNS[name]
    argv = [command, "--config", str(config), "--out", str(out_dir)] + TINY + extra
    assert main(argv) == 0
    return figures(name, json.loads((out_dir / "result.json").read_text()))


PINNED = {"solve": {"b_star": -0.71826171875,
                    "ci_halfwidth": 0.0488007838380486,
                    "rho_mean": -0.5015480150914591,
                    "rho_stderr": 0.19567207168148595},
          "value": {"v": [1.305216308999336, 0.20243047844562348],
                    "v1": [1.223431757057695, 0.20593290045374754],
                    "v2": [0.16356910388328189, 0.03335254023938444]},
          "rho": [[-2.0, -5.64081958343149, 0.19567190786366886],
                  [-1.5, -3.636014985099134, 0.19567190786366884],
                  [-1.0, -1.6312103867667789, 0.19567190786366886],
                  [-0.5, 0.3735942115655764, 0.1956719078636689],
                  [0.0, 2.3783988098979316, 0.19567190786366886],
                  [0.5, 4.383203408230287, 0.19567190786366884],
                  [1.0, 6.388008006562643, 0.19567190786366884]],
          "rho_exp_clock": [[-2.0, -5.554555784839931, 0.2318208299745246],
                            [-1.5, -3.5545557848399314, 0.2318208299745246],
                            [-1.0, -1.5545557848399316, 0.2318208299745246],
                            [-0.5, 0.44544421516006827, 0.23182082997452458],
                            [0.0, 2.445444215160068, 0.2318208299745246],
                            [0.5, 4.445444215160068, 0.23182082997452463],
                            [1.0, 6.445444215160068, 0.23182082997452458]],
          "sweep": [[-1.6, 1.5581598311597629, 0.20287757911887913],
                    [-1.4, 1.4876467322030806, 0.20100189365778035],
                    [-1.2, 1.415246911278853, 0.20044824122168506],
                    [-1.0, 1.3513523681655708, 0.20117012490908118],
                    [-0.8, 1.305216308999336, 0.20243047844562348],
                    [-0.6, 1.300554216631915, 0.20372767518303808],
                    [-0.4, 1.3867802421990771, 0.2154223767881833],
                    [-0.2, 1.5918275074980288, 0.23146777303946417],
                    [0.0, 1.971487571192466, 0.2557483083194403]],
          "verify": {"barrier_derivative": [-0.0766733470803697, 0.28378038549557627],
                     "slope_identity": [0.08067658232315375, 0.17562208433645313],
                     "convexity": [-2.5474533778603787e-09, 0.0],
                     "martingale": [0.13523554273434524, 7.619826478376133],
                     "hjb": [-5.371824158303153, 0.0],
                     "b_star": -0.71826171875},
          "perturb": {"b_star": -0.56396484375,
                      "levels": [[0.2,
                                  {"b_star": -0.47998046875,
                                   "ci_halfwidth": 0.051499194055816856,
                                   "rho_mean": 0.000599970977482947,
                                   "rho_stderr": 0.20649164210702634}],
                                 [0.1,
                                  {"b_star": -0.52783203125,
                                   "ci_halfwidth": 0.05608203450123752,
                                   "rho_mean": -0.0007011845922425541,
                                   "rho_stderr": 0.22486704130383153}],
                                 [0.05,
                                  {"b_star": -0.55126953125,
                                   "ci_halfwidth": 0.05843737116152976,
                                   "rho_mean": 0.001623862719664821,
                                   "rho_stderr": 0.23431102083817465}],
                                 [0.025,
                                  {"b_star": -0.56396484375,
                                   "ci_halfwidth": 0.05962461474389788,
                                   "rho_mean": -0.0010940823676591181,
                                   "rho_stderr": 0.2390714036247306}]]}}


@pytest.mark.parametrize("name", list(RUNS))
def test_cli_results_match_pinned(name, tmp_path):
    got = _leaves(run_figures(name, tmp_path))
    want = _leaves(PINNED[name])
    assert got.keys() == want.keys()
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
