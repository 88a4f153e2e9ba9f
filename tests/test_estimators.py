import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from scipy.optimize import brentq

import levybarrier as lb
from levybarrier import JumpSpec, LevyTriplet, SimConfig, builtin_cost, estimators
from levybarrier.cost_model import CostSpec, ProblemSpec
from levybarrier.errors import NonFiniteSample
from levybarrier.estimators import (
    _finish,
    estimate_rho,
    estimate_rho_curve,
    estimate_value,
    skeleton_rho_curve,
)
from levybarrier.path_engine import _replicate_rows, horizon_for, integral_weights, reflect_arrays, simulate_batch
from levybarrier.verification import run_checks

DRIFT_UP = LevyTriplet(gamma=1.0, sigma=0.0)
BM = LevyTriplet(gamma=0.0, sigma=1.0)
KOU = LevyTriplet(0.0, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 3.0, 3.0))


def make_cfg(q, dt=1e-3, n=2000, seed=42, tail=1e-4):
    return SimConfig(dt=dt, horizon_T=horizon_for(q, tail, dt), n_paths=n, master_seed=seed, tail_tol=tail)


def linear_cost(a):
    return builtin_cost("piecewise_linear", slopes=(a, a), kinks=(0.0,))


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------


def test_rho_linear_cost_exact_slope_over_q():
    # constant integrand: mean = a * discrete discount sum, stderr exactly 0
    q, a = 0.5, 0.7
    prob = ProblemSpec(cost=linear_cost(a), C=0.0, q=q)
    cfg = make_cfg(q, n=200)
    est = estimate_rho(BM, prob, b=1.3, cfg=cfg)
    disc_sum = integral_weights(q, cfg.dt, cfg.n_steps + 1).sum()
    assert est.mean == pytest.approx(a * disc_sum, rel=1e-12)
    assert est.mean == pytest.approx(a / q, rel=2e-3)
    assert est.stderr == 0.0
    clock = estimate_rho(BM, prob, b=1.3, cfg=cfg, method="exp_clock")
    assert clock.mean == pytest.approx(a / q, rel=1e-12)
    assert clock.stderr == 0.0


def test_rho_pure_drift_closed_form():
    # rho(b) = 2(mu/q^2 + b/q) for the quadratic cost under pure drift
    q = 0.1
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=1.0, q=q)
    cfg = make_cfg(q, n=10, tail=1e-6)
    for b, target in ((0.0, 200.0), (2.0, 240.0)):
        est = estimate_rho(DRIFT_UP, prob, b, cfg)
        assert est.mean == pytest.approx(target, rel=5e-3)
        assert est.stderr == 0.0


def test_rho_methods_agree():
    # the grid's running minimum misses the dips between grid points, so its time-integral
    # U^0 runs low by ~0.5826 sigma sqrt(dt) (Broadie, Glasserman & Kou 1997), and the
    # quadratic cost's rho by 2 / q times that (0.052 here; 0.045 +- 0.006 measured over 20
    # seeds); the exp-clock read off the skeleton has no grid, so the band is centred there
    q = 0.5
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.5, q=q)
    cfg = make_cfg(q, dt=2e-3, n=3000, seed=7)
    ti = estimate_rho(KOU, prob, -0.5, cfg)
    ec = estimate_rho(KOU, prob, -0.5, cfg, method="exp_clock")
    bias = 2.0 / q * 0.5826 * KOU.sigma * math.sqrt(cfg.dt)
    assert abs(ec.mean - ti.mean - bias) <= 3 * np.hypot(ti.stderr, ec.stderr)


def test_rho_shift_identity_near_exact():
    # reflecting at b a path started at b equals reflecting at 0 and shifting
    q, b = 0.5, -0.8
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=q)
    cfg = make_cfg(q, dt=2e-3, n=300, seed=12)
    est = estimate_rho(BM, prob, b, cfg)
    batch = simulate_batch(BM, b, cfg)
    u, _, _ = reflect_arrays(batch, b)
    w = integral_weights(q, cfg.dt, cfg.n_steps + 1)
    direct = float((np.asarray(prob.cost.f_prime_plus(u)) @ w).mean())
    assert abs(est.mean - direct) <= 1e-10


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_rho_nonfinite_guard():
    class _BlowUp:
        def __call__(self, x):
            x = np.asarray(x, dtype=float)
            return np.where(x > 50.0, np.inf, 2.0 * x)

    cost = CostSpec(
        f=lambda x: np.square(x), f_prime_plus=_BlowUp(), f_prime_minus=_BlowUp(),
        growth_k1=0.0, growth_k2=1.0, growth_degree=2, f_prime_limits=(-np.inf, np.inf),
    )
    prob = ProblemSpec(cost=cost, C=0.0, q=0.1)
    cfg = make_cfg(0.1, dt=1e-2, n=4, tail=1e-4)  # drift reaches ~92 > 50
    with pytest.raises(NonFiniteSample):
        estimate_rho(DRIFT_UP, prob, 0.0, cfg)


# ---------------------------------------------------------------------------
# exp-clock rho: the supremum at an Exponential(q) clock, off the clock skeleton
# ---------------------------------------------------------------------------


def _clock_sup_mean(triplet, cfg, q):
    """q rho-hat_ec(0) / 2 and its stderr: E[S at e_q], since f'_+(x) = 2x."""
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=q)
    est = estimate_rho(triplet, prob, 0.0, cfg, method="exp_clock")
    return q * est.mean / 2, q * est.stderr / 2


def test_exp_clock_negative_of_subordinator_is_f_prime_over_q():
    # nonincreasing paths: the running maximum is 0, so rho(b) = f'_+(b) / q exactly
    q = 0.5
    neg = LevyTriplet(gamma=-0.5, sigma=0.0, jumps=JumpSpec.kou_mixture(1.0, 0.0, 1.0, 2.0))
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=q)
    cfg = SimConfig(dt=1e-2, horizon_T=horizon_for(q, 1e-4, 1e-2), n_paths=500, master_seed=4)
    for b, est in skeleton_rho_curve(neg, prob, [-1.5, 0.0, 0.7], cfg, "exp_clock"):
        assert est.mean == pytest.approx(2.0 * b / q, rel=1e-12, abs=0.0)
        assert est.stderr == 0.0


def test_exp_clock_bm_mean_matches_phi():
    # spectrally negative: sup at e_q ~ Exponential(Phi(q)); BM: Phi(0.5) = 1
    q = 0.5
    cfg = SimConfig(dt=5e-4, horizon_T=horizon_for(q, 1e-4, 5e-4), n_paths=4000, master_seed=8)
    mean, se = _clock_sup_mean(BM, cfg, q)
    phi = lb.phi_root(BM, q)
    assert phi == pytest.approx(1.0, abs=1e-10)
    # discrete grid misses excursions: allow the sqrt(dt) deficit as well
    assert abs(mean - 1.0 / phi) <= 3 * se + 0.6 * np.sqrt(cfg.dt)


def test_exp_clock_curve_is_one_pass(monkeypatch):
    passes = []
    real = estimators.map_reduce_paths

    def counted(triplet, cfg, *args, **kwargs):
        passes.append(cfg.n_paths)
        return real(triplet, cfg, *args, **kwargs)

    monkeypatch.setattr(estimators, "map_reduce_paths", counted)
    prob = ProblemSpec(cost=builtin_cost("abs"), C=0.0, q=0.5)
    cfg = make_cfg(0.5, dt=5e-3, n=300, seed=21)
    grid = np.linspace(-1.0, 1.0, 9)
    curve = skeleton_rho_curve(KOU, prob, grid, cfg, "exp_clock")
    assert passes == []
    means = np.array([est.mean for _, est in curve])
    assert np.all(np.diff(means) >= 0.0)  # exact, not statistical
    assert means[0] < means[-1]
    for b, est in curve:
        assert estimate_rho(KOU, prob, b, cfg, method="exp_clock") == est
        assert asdict(estimate_rho(KOU, prob, b, cfg, method="exp_clock")) == asdict(est)  # field for field


# ---------------------------------------------------------------------------
# rho off the clock skeleton
# ---------------------------------------------------------------------------


def _skeleton_mean(triplet, cfg, q, method):
    """q rho-hat(0) / 2 off the clock skeleton and its stderr: E[Z at e_q], since f'_+(x) = 2x."""
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=q)
    [(_, est)] = skeleton_rho_curve(triplet, prob, [0.0], cfg, method)
    return q * est.mean / 2, q * est.stderr / 2


def _kou_roots_and_mean_sup(triplet, q):
    """The roots b1 < eta_up < b2 of psi(b) = q and E[S at e_q] = A1 / b1 + A2 / b2, from
    P(S > x) = A1 e^{-b1 x} + A2 e^{-b2 x} (Kou & Wang 2003)."""
    j, mu, s2 = triplet.jumps, triplet.effective_drift, triplet.sigma**2

    def psi_minus_q(b):
        mgf = j.p_up * j.eta_up / (j.eta_up - b) + (1 - j.p_up) * j.eta_down / (j.eta_down + b)
        return mu * b + s2 * b * b / 2 + j.rate * (mgf - 1) - q

    eta = j.eta_up
    b1 = brentq(psi_minus_q, 0.0, eta - 1e-12, xtol=1e-15)
    b2 = brentq(psi_minus_q, eta + 1e-12, 1e3, xtol=1e-15)
    a1, a2 = (eta - b1) * b2 / (eta * (b2 - b1)), (b2 - eta) * b1 / (eta * (b2 - b1))
    return (b1, b2), a1 / b1 + a2 / b2


def test_kou_roots_of_the_shipped_config():
    roots, mean_sup = _kou_roots_and_mean_sup(KOU, 0.5)
    assert roots == pytest.approx((1.372281, 4.372281), abs=1e-6)
    assert mean_sup == pytest.approx(0.624094, abs=1e-6)


@pytest.mark.parametrize("triplet", [
    KOU,
    LevyTriplet(0.3, 0.4, jumps=JumpSpec.kou_mixture(1.5, 0.3, 2.0, 4.0)),   # mu > 0
    LevyTriplet(-0.5, 0.6, jumps=JumpSpec.kou_mixture(0.8, 0.6, 3.0, 2.0)),  # mu < 0
])
def test_skeleton_reads_match_kou_wiener_hopf(triplet):
    # exp_clock reads S at e_q; time_integral reads X - I there, which has the same law
    q = 0.5
    _, exact = _kou_roots_and_mean_sup(triplet, q)
    cfg = make_cfg(q, dt=1e-2, n=20_000, seed=3)
    (ec, ec_se), (ti, ti_se) = (_skeleton_mean(triplet, cfg, q, m) for m in ("exp_clock", "time_integral"))
    assert abs(ec - exact) <= 3 * ec_se
    assert abs(ti - exact) <= 3 * ti_se
    assert abs(ec - ti) <= 3 * math.hypot(ec_se, ti_se)


def test_skeleton_bm_mean_matches_phi():
    # no jumps: one segment, S at e_q ~ Exponential(Phi(q)) exactly, Phi(0.5) = 1; under
    # pure drift d, S at e_q = d e_q, Exponential(Phi(q) = q / d) too, with mean d / q
    q = 0.5
    for triplet in (BM, DRIFT_UP):
        mean, se = _skeleton_mean(triplet, make_cfg(q, dt=1e-2, n=20_000, seed=8), q, "exp_clock")
        assert abs(mean - 1.0 / lb.phi_root(triplet, q)) <= 3 * se


def test_skeleton_replicate_stderr_is_calibrated():
    # a skeleton read's stderr is that of its 64 lattice replicate means: over 200 seeds, the
    # z-scores of rho-hat(b) against the exact (2 / q)(1 / Phi(q) + b) (S at e_q ~ Exp(Phi(q)))
    # spread like a t with 63 degrees of freedom
    q, b = 0.5, -0.5
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=q)
    exact = 2.0 / q * (1.0 / lb.phi_root(BM, q) + b)
    for method in ("exp_clock", "time_integral"):
        z = []
        for seed in range(200):
            [(_, est)] = skeleton_rho_curve(BM, prob, [b], make_cfg(q, dt=1e-2, n=1200, seed=seed), method)
            z.append((est.mean - exact) / est.stderr)
        assert 0.8 <= np.std(z, ddof=1) <= 1.25


@pytest.mark.parametrize("antithetic, value", [(False, 0.69), (True, 0.17)])
def test_replicate_stderr_of_equal_samples_is_zero(antithetic, value):
    # 500 paths: replicates of 8 and 7 rows, or of 4 and 3 mirrored pairs, where the sums of these
    # equal values over the counts are not all the value; so the means are taken of the samples
    # less one, and equal samples give an stderr of exactly 0
    samples = np.full(500, value)
    counts = _replicate_rows(np.ones(500), antithetic).sum(axis=1)
    assert len(np.unique(_replicate_rows(samples, antithetic).sum(axis=1) / counts)) > 1
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=0.5)
    est = _finish("rho_exp_clock", samples, antithetic, BM, prob, make_cfg(0.5, n=500), replicates=True)
    assert est.stderr == 0.0 and est.mean == pytest.approx(value, rel=1e-15)


def test_skeleton_curve_nondecreasing_and_checked():
    prob = ProblemSpec(cost=builtin_cost("abs"), C=0.0, q=0.5)
    grid = np.linspace(-1.0, 1.0, 9)
    for method in ("exp_clock", "time_integral"):
        curve = skeleton_rho_curve(KOU, prob, grid, make_cfg(0.5, dt=5e-3, n=300, seed=21), method)
        means = np.array([est.mean for _, est in curve])
        assert np.all(np.diff(means) >= 0.0) and means[0] < means[-1]  # exact, not statistical
    with pytest.raises(ValueError, match="sorted"):
        skeleton_rho_curve(BM, prob, [0.0, 0.0], make_cfg(0.5, n=10))
    with pytest.raises(ValueError, match="unknown rho method 'grid'"):
        skeleton_rho_curve(BM, prob, [0.0], make_cfg(0.5, n=10), "grid")


# ---------------------------------------------------------------------------
# value
# ---------------------------------------------------------------------------


def test_value_pure_drift_closed_form():
    q = 0.5
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=1.0, q=q)
    cfg = make_cfg(q, n=10, tail=1e-6)
    v1, v2, v = estimate_value(DRIFT_UP, prob, b=0.0, x=0.0, cfg=cfg)
    assert v1.mean == pytest.approx(2.0 / q**3, rel=0.01)
    assert v2.mean == 0.0  # never reflects
    assert v.mean == v1.mean
    assert v1.mean == pytest.approx(lb.pure_drift_value(prob, 1.0, 0.0, 0.0), rel=0.01)


def test_value_zero_cost_strong_updrift():
    prob = ProblemSpec(cost=linear_cost(0.0), C=1.0, q=0.5)
    cfg = make_cfg(0.5, n=50)
    up = LevyTriplet(gamma=3.0, sigma=0.1)
    v1, v2, v = estimate_value(up, prob, b=-2.0, x=0.0, cfg=cfg)
    assert v1.mean == 0.0
    assert abs(v.mean) < 1e-3 and v2.mean < 1e-3


def test_value_below_barrier_identity_on_crn_paths():
    q, b = 0.5, -0.4
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.7, q=q)
    cfg = make_cfg(q, dt=2e-3, n=400, seed=3)
    # calls with one config share their paths, whatever the start
    _, _, v_at_b = estimate_value(KOU, prob, b, b, cfg)
    for x in (b - 1.0, b - 2.0):
        _, _, v_at_x = estimate_value(KOU, prob, b, x, cfg)
        gap = v_at_x.mean - (prob.C * (b - x) + v_at_b.mean)
        assert abs(gap) <= 1e-9 * (1 + abs(v_at_b.mean))


def test_value_linearity_in_components():
    q = 0.5
    cfg = make_cfg(q, dt=2e-3, n=200, seed=9)
    quad = builtin_cost("quadratic")
    v1_c0, v2_c0, v_c0 = estimate_value(BM, ProblemSpec(quad, 0.0, q), -1.0, 0.0, cfg)
    assert v_c0.mean == v1_c0.mean
    zero = linear_cost(0.0)
    v1_z, v2_z, v_z = estimate_value(BM, ProblemSpec(zero, 2.0, q), -1.0, 0.0, cfg)
    assert v1_z.mean == 0.0
    assert v_z.mean == 2.0 * v2_z.mean


# ---------------------------------------------------------------------------
# rho curve
# ---------------------------------------------------------------------------


def test_rho_curve_exactly_nondecreasing_and_crn_difference():
    q = 0.5
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=q)
    grid = np.linspace(-2.0, 2.0, 17)
    cfg = make_cfg(q, dt=2e-3, n=500, seed=21)
    disc_sum = integral_weights(q, cfg.dt, cfg.n_steps + 1).sum()
    means = {}
    for model in (BM, KOU):
        curve = estimate_rho_curve(model, prob, grid, cfg)
        vals = np.array([est.mean for _, est in curve])
        assert np.all(np.diff(vals) >= 0.0)  # exact, not statistical
        # quadratic cost: increments are 2 (b2 - b1) * discount sum, any model
        assert np.allclose(np.diff(vals), 2.0 * np.diff(grid) * disc_sum, rtol=1e-9)
        means[model.sigma] = vals
    assert np.allclose(np.diff(means[1.0]), np.diff(means[0.5]), rtol=1e-9)


def test_rho_curve_constant_for_linear_cost():
    q = 0.5
    prob = ProblemSpec(cost=linear_cost(0.3), C=0.0, q=q)
    cfg = make_cfg(q, dt=2e-3, n=100)
    curve = estimate_rho_curve(BM, prob, [-1.0, 0.0, 1.0], cfg)
    vals = [est.mean for _, est in curve]
    assert vals[0] == vals[1] == vals[2]
    assert vals[0] == pytest.approx(0.3 / q, rel=2e-3)


def test_rho_limits_for_bounded_slopes():
    q = 0.5
    prob = ProblemSpec(cost=builtin_cost("abs"), C=0.0, q=q)
    cfg = make_cfg(q, dt=2e-3, n=500, seed=2)
    curve = estimate_rho_curve(BM, prob, [-50.0, 50.0], cfg)
    lo, hi = prob.cost.f_prime_limits
    assert curve[0][1].mean == pytest.approx(lo / q, rel=2e-3)
    assert curve[1][1].mean == pytest.approx(hi / q, rel=2e-3)


def test_rho_curve_requires_sorted_grid():
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=0.5)
    with pytest.raises(ValueError, match="sorted"):
        estimate_rho_curve(BM, prob, [0.0, 0.0, 1.0], make_cfg(0.5, n=10))


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


def test_fingerprint_stability():
    q = 0.5
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=q)
    cfg = make_cfg(q, n=50)
    a = estimate_rho(BM, prob, 0.0, cfg)
    b = estimate_rho(BM, prob, 0.0, cfg)
    assert a.fingerprint == b.fingerprint
    c = estimate_rho(BM, prob, 0.0, make_cfg(q, n=50, seed=43))
    assert c.fingerprint != a.fingerprint


def test_kurtosis_flag():
    samples = np.zeros(20_000)
    samples[0] = 1.0  # kurtosis ~ n >> 100
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=0.5)
    with pytest.warns(UserWarning, match="kurtosis"):
        est = _finish("unit", samples, False, BM, prob, make_cfg(0.5, n=10))
    assert not est.stderr_reliable
    assert est.kurtosis > 100


def test_kurtosis_warning_points_at_the_caller():
    # rare up-jumps lift a few reflected paths far above the rest, so the
    # rho sample is heavy-tailed; the warning must name this file, not the
    # package's internals, for both public entry points
    rare = LevyTriplet(gamma=-1.0, sigma=0.0, jumps=JumpSpec.atom_sizes(1e-3, (5.0,), (1.0,)))
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=0.5)
    cfg = make_cfg(0.5, dt=0.05, n=2000, seed=3)
    calls = (lambda: estimate_rho_curve(rare, prob, [0.0], cfg), lambda: estimate_rho(rare, prob, 0.0, cfg))
    for call in calls:
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            call()
        kurt = [r for r in rec if "kurtosis" in str(r.message)]
        assert len(kurt) == 1
        assert kurt[0].filename == __file__


def test_antithetic_pairing_runs():
    q = 0.5
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=1.0, q=q)
    cfg = SimConfig(dt=2e-3, horizon_T=horizon_for(q, 1e-4, 2e-3), n_paths=400,
                    master_seed=6, antithetic=True)
    est = estimate_rho(BM, prob, 0.0, cfg)
    assert est.n == 400 and est.stderr > 0.0


_CHECK_ARGS = {  # b* = -0.5 below every start; the martingale times lie inside the horizon of 1
    "barrier_derivative": {"x": 0.5, "b": -0.5},
    "slope_identity": {"x": 0.5, "b": -0.5},
    "convexity": {"x_grid": np.linspace(-1.0, 1.0, 5), "b_star": -0.5},
    "martingale": {"x": 0.5, "t_grid": [0.5, 1.0], "b_star": -0.5},
    "hjb": {"x_grid": [-0.5, 0.0, 0.5], "fd_h": 0.25, "b_star": -0.5},
}
_GRID_ENTRIES = {
    "estimate_value": lambda prob, cfg: estimate_value(BM, prob, -0.5, 0.5, cfg),
    "estimate_rho_curve": lambda prob, cfg: estimate_rho_curve(BM, prob, [-0.5, 0.0], cfg),
    "estimate_rho": lambda prob, cfg: estimate_rho(BM, prob, -0.5, cfg),
    "solve_barrier": lambda prob, cfg: lb.solve_barrier(BM, prob, cfg),
    "barrier_sweep": lambda prob, cfg: lb.barrier_sweep(BM, prob, 0.5, [-0.5, 0.0], cfg),
    **{f"check_{name}": lambda prob, cfg, name=name: run_checks(BM, prob, cfg, [(name, _CHECK_ARGS[name])])
       for name in _CHECK_ARGS},
}


@pytest.mark.parametrize("entry", list(_GRID_ENTRIES))
def test_every_grid_entry_refuses_a_short_horizon_before_any_pass(monkeypatch, entry):
    # e^{-qT} = 0.61 at T = 1 is far above tail_tol: each grid estimate, solve and check refuses it
    # before its pass (the martingale check's node pass included)
    seen = []
    monkeypatch.setattr(estimators, "map_reduce_paths", lambda *args, **kwargs: seen.append(args))
    cfg = SimConfig(dt=0.05, horizon_T=1.0, n_paths=16, master_seed=3)
    with pytest.raises(ValueError, match="horizon too short"):
        _GRID_ENTRIES[entry](ProblemSpec(cost=builtin_cost("quadratic"), C=1.0, q=0.5), cfg)
    assert seen == []
