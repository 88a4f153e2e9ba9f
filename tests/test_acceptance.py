"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.  Tolerances are pinned here, not recalibrated.
"""
import json
import time

import numpy as np
import pytest
from scipy import stats

import levybarrier as lb
from levybarrier import JumpSpec, LevyTriplet, SimConfig, builtin_cost, mollify
from levybarrier.cost_model import ProblemSpec
from levybarrier.barrier_solver import barrier_sweep, solve_barrier, solve_barrier_perturbed
from levybarrier.cli import main as cli_main
from levybarrier.estimators import estimate_rho, estimate_rho_curve, estimate_value
from levybarrier.path_engine import horizon_for, reflect_arrays, simulate_batch
from levybarrier.verification import check_barrier_derivative, check_hjb, check_slope_identity

QUAD = builtin_cost("quadratic")

MODEL_DRIFT = LevyTriplet(gamma=1.0, sigma=0.0)                      # criterion 1
MODEL_BM = LevyTriplet(gamma=0.0, sigma=1.0)                         # criterion 2
MODEL_KOU = LevyTriplet(0.0, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 3.0, 3.0))  # criterion 3

PROB_DRIFT = ProblemSpec(cost=QUAD, C=1.0, q=0.1)
PROB_BM = ProblemSpec(cost=QUAD, C=1.0, q=0.5)
PROB_KOU = ProblemSpec(cost=QUAD, C=0.5, q=0.5)


def report(num, ok, msg):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {msg}")
    assert ok, msg


def cfg_for(q, dt, n, seed, tail=1e-4):
    return SimConfig(dt=dt, horizon_T=horizon_for(q, tail, dt), n_paths=n,
                     master_seed=seed, tail_tol=tail)


def test_criterion_1_pure_drift_barrier_oracle():
    started = time.monotonic()
    cfg = cfg_for(0.1, dt=1e-3, n=100_000, seed=101, tail=1e-6)
    res = solve_barrier(MODEL_DRIFT, PROB_DRIFT, cfg, bisect_tol=2e-3)
    elapsed = time.monotonic() - started
    target = -0.1 * 1.0 / 2.0 - 1.0 / 0.1  # -qC/2 - mu/q
    assert target == -10.05
    tol = max(1e-2, 3 * res.ci_halfwidth)
    err = abs(res.b_star - target)
    report(1, err <= tol and elapsed <= 120.0,
           f"b*={res.b_star:.5f} vs -10.05 (err {err:.2e} <= {tol:.2e}), "
           f"N=1e5 dt=1e-3, runtime {elapsed:.1f}s <= 120s")


def test_criterion_2_spectrally_negative_oracle():
    q = 0.5
    oracle = lb.SpectrallyNegativeOracle.for_model(MODEL_BM, q)
    target = lb.quadratic_bstar_closed_form(oracle, PROB_BM)
    assert target == pytest.approx(-1.25, abs=1e-12)

    cfg = cfg_for(q, dt=1e-4, n=2500, seed=202)
    res = solve_barrier(MODEL_BM, PROB_BM, cfg, bisect_tol=1e-3)
    tol = max(1e-2, 3 * res.ci_halfwidth)
    err = abs(res.b_star - target)

    cfg_rho = cfg_for(q, dt=2e-4, n=2500, seed=203)
    ti = estimate_rho(MODEL_BM, PROB_BM, target, cfg_rho, method="time_integral")
    ec = estimate_rho(MODEL_BM, PROB_BM, target, cfg_rho, method="exp_clock")
    agree = abs(ti.mean - ec.mean) <= 3 * np.hypot(ti.stderr, ec.stderr)
    root_ti = abs(ti.mean + PROB_BM.C) <= 3 * ti.stderr
    root_ec = abs(ec.mean + PROB_BM.C) <= 3 * ec.stderr
    report(2, err <= tol and agree and root_ti and root_ec,
           f"b*={res.b_star:.5f} vs -1.25 (err {err:.2e} <= {tol:.2e}); "
           f"rho_ti={ti.mean:+.4f}+/-{ti.stderr:.4f}, rho_ec={ec.mean:+.4f}+/-{ec.stderr:.4f}, "
           f"methods agree={agree}, roots within 3se=({root_ti},{root_ec})")


def test_criterion_3_two_sided_internal_consistency():
    q = 0.5
    cfg = cfg_for(q, dt=2e-3, n=10_000, seed=303)
    res = solve_barrier(MODEL_KOU, PROB_KOU, cfg, bisect_tol=1e-3)
    b_hat = res.b_star

    # (a) CRN rho-curve exactly nondecreasing on 41 barriers (hard assert)
    grid_a = np.linspace(b_hat - 2.0, b_hat + 2.0, 41)
    curve = estimate_rho_curve(MODEL_KOU, PROB_KOU, grid_a, cfg)
    rho_means = np.array([est.mean for _, est in curve])
    mono = bool(np.all(np.diff(rho_means) >= 0.0))

    # (b) barrier sweep minimized at the grid point nearest b-hat (3 stderr)
    grid_b = b_hat + np.linspace(-1.0, 1.0, 21)
    sweep = barrier_sweep(MODEL_KOU, PROB_KOU, x=0.0, b_grid=grid_b, cfg=cfg)
    means = np.array([est.mean for _, est in sweep])
    ses = np.array([est.stderr for _, est in sweep])
    j_min = int(np.argmin(means))
    j_star = int(np.argmin(np.abs(grid_b - b_hat)))
    min_ok = abs(means[j_min] - means[j_star]) <= 3 * np.hypot(ses[j_min], ses[j_star])

    # (c) derivative identity at the fitted barrier
    deriv = check_barrier_derivative(MODEL_KOU, PROB_KOU, x=b_hat + 1.0, b=b_hat, cfg=cfg, h=0.05)

    # (d) slope equals -C below the barrier: statistically and structurally
    slope = check_slope_identity(MODEL_KOU, PROB_KOU, x=b_hat - 1.0, b=b_hat, cfg=cfg, h=0.05)
    slope_val = slope.details[0]["slope"]
    slope_stat_ok = slope.passed and slope.details[0]["rhs"] == pytest.approx(-PROB_KOU.C, abs=1e-9)
    slope_struct_ok = abs(slope_val + PROB_KOU.C) <= 1e-9

    report(3, mono and min_ok and deriv.passed and slope_stat_ok and slope_struct_ok,
           f"b*={b_hat:.4f}; (a) curve monotone={mono}; (b) argmin at {grid_b[j_min]:.3f} "
           f"vs nearest {grid_b[j_star]:.3f} within 3se={min_ok}; (c) derivative check "
           f"stat={deriv.statistic:+.4f} tol={deriv.tolerance:.4f}; (d) slope={slope_val:.9f} "
           f"(-C structural diff {abs(slope_val + PROB_KOU.C):.1e})")


def test_criterion_4_value_identity_below_barrier():
    models = [
        (MODEL_DRIFT, PROB_DRIFT, -10.0),
        (MODEL_BM, PROB_BM, -1.25),
        (MODEL_KOU, PROB_KOU, -0.8),
        (lb.driftless_compound_poisson(JumpSpec.atom_sizes(1.0, (-1.0, 1.0), (0.5, 0.5))),
         ProblemSpec(cost=QUAD, C=0.5, q=0.5), -0.6),
        (lb.driftless_compound_poisson(JumpSpec.kou_mixture(1.0, 0.0, 1.0, 2.0)),
         ProblemSpec(cost=QUAD, C=1.0, q=0.5), -0.25),
    ]
    worst = 0.0
    for model, prob, b in models:
        cfg = cfg_for(prob.q, dt=5e-3, n=400, seed=404, tail=1e-4)
        _, _, v_b = estimate_value(model, prob, b, b, cfg)
        for x in (b - 1.0, b - 2.0):
            _, _, v_x = estimate_value(model, prob, b, x, cfg)
            gap = v_x.mean - (prob.C * (b - x) + v_b.mean)
            scaled = abs(gap) / (1.0 + abs(v_b.mean))
            worst = max(worst, scaled)
            assert scaled <= max(3 * np.hypot(v_x.stderr, v_b.stderr), 1e-9)
    report(4, True, f"v_b(x) = C(b-x) + v_b(b) on CRN paths for 5 models x 2 starts "
                    f"(worst scaled gap {worst:.2e}, structural)")


def test_criterion_5_duality_two_sample_ks():
    n, t_end = 10_000, 5.0
    cfg_a = SimConfig(dt=5e-3, horizon_T=t_end, n_paths=n, master_seed=505, tail_tol=0.999)
    cfg_b = SimConfig(dt=5e-3, horizon_T=t_end, n_paths=n, master_seed=99505, tail_tol=0.999)
    batch = simulate_batch(MODEL_KOU, 0.0, cfg_a)
    u, _, _ = reflect_arrays(batch.values, 0.0)
    reflected_terminal = u[:, -1]
    other = simulate_batch(MODEL_KOU, 0.0, cfg_b)
    running_sup = other.values.max(axis=1)
    stat = stats.ks_2samp(reflected_terminal, running_sup).statistic
    critical = 1.628 * np.sqrt(2.0 / n)  # 1% two-sample critical value
    report(5, stat < critical,
           f"KS two-sample statistic {stat:.4f} < 1% critical value {critical:.4f} "
           f"(U^0_T vs running sup, N={n}, T={t_end})")


def test_criterion_6_mollifier():
    eps0 = 0.2
    m = mollify(builtin_cost("abs"), eps0, b_star_anchor=0.0)
    exact = (
        abs(float(m.f_prime_plus(0.0)) + 1.0) <= 1e-12
        and abs(float(m.f_prime_plus(eps0))) <= 1e-12
        and abs(float(m.f_prime_plus(2 * eps0)) - 1.0) <= 1e-12
    )

    # monotone convergence of the smoothed derivative (hard assert)
    xs = np.linspace(-1.5, 1.5, 20)
    ladder_ok = True
    prev = None
    base = builtin_cost("abs")
    for eps in (0.4, 0.2, 0.1, 0.05):
        cur = np.asarray(mollify(base, eps).f_prime_plus(xs))
        if prev is not None:
            ladder_ok &= bool(np.all(cur >= prev - 1e-12))
        ladder_ok &= bool(np.all(cur <= np.asarray(base.f_prime_minus(xs)) + 1e-12))
        prev = cur

    # smoothed barriers decrease to the unsmoothed one as eps shrinks
    q = 0.5
    cfg = cfg_for(q, dt=2e-3, n=500, seed=606)
    plain = solve_barrier(MODEL_BM, ProblemSpec(cost=base, C=0.0, q=q), cfg, bisect_tol=1e-3)
    bs, cis = [], []
    for eps in (0.4, 0.2, 0.1, 0.05):
        res = solve_barrier(MODEL_BM, ProblemSpec(cost=mollify(base, eps), C=0.0, q=q),
                            cfg, bisect_tol=1e-3)
        bs.append(res.b_star)
        cis.append(res.ci_halfwidth)
    barrier_mono = all(b1 >= b2 for b1, b2 in zip(bs, bs[1:])) and bs[-1] >= plain.b_star
    gap = abs(bs[-1] - plain.b_star)
    tol = 3 * np.hypot(cis[-1], plain.ci_halfwidth)
    report(6, exact and ladder_ok and barrier_mono and gap <= tol,
           f"exact values at eps=0.2 ok={exact}; derivative ladder monotone={ladder_ok}; "
           f"barriers {['%.4f' % b for b in bs]} decrease to {plain.b_star:.4f} "
           f"(gap {gap:.4f} <= 3ci {tol:.4f})")


def test_criterion_7_driftless_compound_poisson():
    q = 0.5
    sym = lb.driftless_compound_poisson(JumpSpec.atom_sizes(1.0, (-1.0, 1.0), (0.5, 0.5)))
    prob = ProblemSpec(cost=QUAD, C=0.0, q=q)
    cfg = cfg_for(q, dt=2e-3, n=10_000, seed=707)
    res = solve_barrier_perturbed(sym, prob, cfg, eps_grid=(0.2, 0.1, 0.05, 0.025), bisect_tol=1e-3)
    bs = [r.b_star for _, r in res.levels]
    cis = [r.ci_halfwidth for _, r in res.levels]
    pair_ok = all(
        b1 >= b2 - 3 * np.hypot(c1, c2)
        for (b1, c1), (b2, c2) in zip(zip(bs, cis), zip(bs[1:], cis[1:]))
    )

    neg = lb.driftless_compound_poisson(JumpSpec.kou_mixture(1.0, 0.0, 1.0, 2.0))
    prob_neg = ProblemSpec(cost=QUAD, C=1.0, q=q)
    cfg_neg = cfg_for(q, dt=1e-3, n=500, seed=708)
    res_neg = solve_barrier_perturbed(neg, prob_neg, cfg_neg, eps_grid=(0.1, 0.05), bisect_tol=1e-3)
    exact_err = abs(res_neg.b_star + q * prob_neg.C / 2.0)
    report(7, pair_ok and exact_err <= 1e-3,
           f"perturbed barriers {['%.4f' % b for b in bs]} nonincreasing per pair={pair_ok}; "
           f"negative-subordinator b*={res_neg.b_star:.5f} vs -qC/2=-0.25 (err {exact_err:.1e} <= 1e-3)")


def test_criterion_8_hjb_suite():
    started = time.monotonic()
    # model 1: pure drift
    cfg1 = cfg_for(0.1, dt=1e-3, n=64, seed=808, tail=1e-6)
    res1 = solve_barrier(MODEL_DRIFT, PROB_DRIFT, cfg1, bisect_tol=2e-3)
    grid1 = res1.b_star + np.linspace(-4.3, 9.7, 15)
    rep1 = check_hjb(MODEL_DRIFT, PROB_DRIFT, cfg1, grid1, fd_h=0.25, b_star=res1.b_star)

    # model 2: driftless Brownian motion
    cfg2 = cfg_for(0.5, dt=1e-3, n=4000, seed=809)
    res2 = solve_barrier(MODEL_BM, PROB_BM, cfg2, bisect_tol=1e-3)
    grid2 = res2.b_star + np.linspace(-2.8, 4.2, 15)
    rep2 = check_hjb(MODEL_BM, PROB_BM, cfg2, grid2, fd_h=0.25, b_star=res2.b_star)
    elapsed = time.monotonic() - started

    slope_below_ok = all(
        abs(row["slope_plus_C"]) <= row["slope_tolerance"]
        for rep in (rep1, rep2) for row in rep.details if row["side"] == "reflecting"
    )
    report(8, rep1.passed and rep2.passed and slope_below_ok and elapsed <= 300.0,
           f"drift model passed={rep1.passed}, BM passed={rep2.passed}, "
           f"v'+C=0 below barrier={slope_below_ok}, runtime {elapsed:.0f}s <= 300s")


def test_criterion_9_determinism_across_workers(tmp_path):
    config = {
        "model": {"gamma": 0.0, "sigma": 1.0, "jumps": {"rate": 0.0}},
        "problem": {"cost": {"kind": "quadratic"}, "C": 1.0, "q": 0.5},
        "sim": {"dt": 5e-3, "n_paths": 3000, "master_seed": 909},
        "solve": {"bisect_tol": 1e-3},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for name, workers in (("one", "1"), ("many", "3"), ("again", "1")):
        out = tmp_path / name
        code = cli_main(["solve", "--config", str(cfg_path), "--out", str(out),
                         "--workers", workers])
        assert code == 0
        outputs.append((out / "result.json").read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    report(9, identical, "result.json byte-identical across 1-worker, 3-worker and repeat runs")


def test_criterion_10_dt_convergence():
    q, target = 0.5, -1.25
    errs = {}
    for dt in (1e-2, 5e-3, 1e-3):
        cfg = cfg_for(q, dt=dt, n=10_000, seed=1010)
        res = solve_barrier(MODEL_BM, PROB_BM, cfg, bisect_tol=1e-3)
        errs[dt] = res.b_star - target
    improving = abs(errs[1e-3]) < abs(errs[1e-2])
    monotone = errs[1e-2] >= errs[5e-3] >= errs[1e-3]
    report(10, improving,
           f"bias(dt): 1e-2 -> {errs[1e-2]:+.4f}, 5e-3 -> {errs[5e-3]:+.4f}, "
           f"1e-3 -> {errs[1e-3]:+.4f}; |err(1e-3)| < |err(1e-2)|={improving}; "
           f"monotone toward oracle={monotone} (reported, upward reflection-deficit bias)")
