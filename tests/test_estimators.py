import math
import warnings

import numpy as np
import pytest

import levybarrier as lb
from levybarrier import JumpSpec, LevyTriplet, SimConfig, builtin_cost, estimators
from levybarrier.cost_model import CostSpec, ProblemSpec
from levybarrier.errors import NonFiniteSample
from levybarrier.estimators import _finish, estimate_rho, estimate_rho_curve, estimate_value
from levybarrier.path_engine import horizon_for, integral_weights, reflect_arrays, simulate_batch

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
    q = 0.5
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.5, q=q)
    cfg = make_cfg(q, dt=2e-3, n=3000, seed=7)
    ti = estimate_rho(KOU, prob, -0.5, cfg)
    ec = estimate_rho(KOU, prob, -0.5, cfg, method="exp_clock")
    assert abs(ti.mean - ec.mean) <= 3 * np.hypot(ti.stderr, ec.stderr)


def test_rho_shift_identity_near_exact():
    # reflecting at b a path started at b equals reflecting at 0 and shifting
    q, b = 0.5, -0.8
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=q)
    cfg = make_cfg(q, dt=2e-3, n=300, seed=12)
    est = estimate_rho(BM, prob, b, cfg)
    batch = simulate_batch(BM, b, cfg)
    u, _, _ = reflect_arrays(batch.values, b)
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
# exp-clock rho: the supremum at an Exponential(q) clock, clock integrated out
# ---------------------------------------------------------------------------


def _clock_sup_mean(triplet, cfg, q):
    """q rho-hat_ec(0) / 2 and its stderr: E[S at e_q], since f'_+(x) = 2x."""
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=q)
    est = estimate_rho(triplet, prob, 0.0, cfg, method="exp_clock")
    return q * est.mean / 2, q * est.stderr / 2


def _conditioned_clock_mean(q, horizon):
    """E[e_q | e_q <= T]: the clock law the exp-clock weights integrate."""
    tail = math.exp(-q * horizon)
    return 1.0 / q - horizon * tail / (1.0 - tail)


def test_exp_clock_pure_drift_mean():
    # S at e_q is the grid time below e_q: E[e_q | e_q <= T] less about dt / 2
    # (1 / q itself is 1.8e-3 further off, from the 1e-4 tail beyond T)
    q = 0.5
    cfg = SimConfig(dt=1e-3, horizon_T=horizon_for(q, 1e-4, 1e-3), n_paths=4000, master_seed=3)
    mean, se = _clock_sup_mean(DRIFT_UP, cfg, q)
    assert abs(mean - _conditioned_clock_mean(q, cfg.effective_horizon)) <= 2 * cfg.dt
    assert se == 0.0


def test_exp_clock_conditions_on_the_horizon():
    # a clock beyond T = 2 has probability e^{-1}: dropping the 1 / (1 - d_N)
    # factor would read 0.53 instead of E[e_q | e_q <= T] = 0.836
    q = 0.5
    cfg = SimConfig(dt=0.01, horizon_T=2.0, n_paths=400, master_seed=5, tail_tol=0.5)
    mean, se = _clock_sup_mean(DRIFT_UP, cfg, q)
    assert abs(mean - _conditioned_clock_mean(q, 2.0)) <= cfg.dt
    assert se == 0.0


def test_exp_clock_negative_of_subordinator_is_f_prime_over_q():
    # nonincreasing paths: the running maximum is 0, so rho(b) = f'_+(b) / q exactly
    q = 0.5
    neg = LevyTriplet(gamma=-0.5, sigma=0.0, jumps=JumpSpec.kou_mixture(1.0, 0.0, 1.0, 2.0))
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=q)
    cfg = SimConfig(dt=1e-2, horizon_T=horizon_for(q, 1e-4, 1e-2), n_paths=500, master_seed=4)
    for b, est in estimate_rho_curve(neg, prob, [-1.5, 0.0, 0.7], cfg, method="exp_clock"):
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

    def counted(triplet, x_start, cfg, *args, **kwargs):
        passes.append(cfg.n_paths)
        return real(triplet, x_start, cfg, *args, **kwargs)

    monkeypatch.setattr(estimators, "map_reduce_paths", counted)
    prob = ProblemSpec(cost=builtin_cost("abs"), C=0.0, q=0.5)
    cfg = make_cfg(0.5, dt=5e-3, n=300, seed=21)
    grid = np.linspace(-1.0, 1.0, 9)
    curve = estimate_rho_curve(KOU, prob, grid, cfg, method="exp_clock")
    assert passes == [300]
    means = np.array([est.mean for _, est in curve])
    assert np.all(np.diff(means) >= 0.0)  # exact, not statistical
    assert means[0] < means[-1]
    for b, est in curve:
        assert estimate_rho(KOU, prob, b, cfg, method="exp_clock") == est


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
