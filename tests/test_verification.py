import math

import numpy as np
import pytest

import levybarrier as lb
from levybarrier import JumpSpec, LevyTriplet, SimConfig, builtin_cost
from levybarrier.cost_model import ProblemSpec
from levybarrier.errors import AssumptionViolated
from levybarrier.path_engine import horizon_for
from levybarrier.verification import (
    check_barrier_derivative,
    check_convexity,
    check_hjb,
    check_martingale,
    check_slope_identity,
    run_checks,
)

DRIFT_UP = LevyTriplet(gamma=1.0, sigma=0.0)
DRIFT_DOWN = LevyTriplet(gamma=-1.0, sigma=0.0)
BM = LevyTriplet(gamma=0.0, sigma=1.0)
KOU = LevyTriplet(0.0, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 3.0, 3.0))


def make_cfg(q, dt=1e-3, n=500, seed=42, tail=1e-5):
    return SimConfig(dt=dt, horizon_T=horizon_for(q, tail, dt), n_paths=n,
                     master_seed=seed, tail_tol=tail)


def quad_problem(C, q):
    return ProblemSpec(cost=builtin_cost("quadratic"), C=C, q=q)


# ---------------------------------------------------------------------------
# barrier derivative (d/db of the value)
# ---------------------------------------------------------------------------


def test_barrier_derivative_drift_down_closed_form():
    # deterministic passage at tau = (x - b)/|d| = 1, U^0 == 0 below, so
    # rho(0) = 0 and the derivative equals C e^{-q}  (q = 0.5 here)
    q = 0.5
    prob = quad_problem(1.0, q)
    cfg = make_cfg(q, n=16, seed=3)
    rep = check_barrier_derivative(DRIFT_DOWN, prob, x=1.0, b=0.0, cfg=cfg, h=0.02)
    assert rep.passed
    assert rep.details[0]["rhs"] == pytest.approx(math.exp(-0.5), abs=1e-3)


def test_barrier_derivative_vanishes_at_fitted_barrier():
    q = 0.5
    prob = quad_problem(1.0, q)
    cfg = make_cfg(q, dt=2e-3, n=2000, seed=21, tail=1e-4)
    res = lb.solve_barrier(BM, prob, cfg)
    rep = check_barrier_derivative(BM, prob, x=res.b_star + 1.0, b=res.b_star, cfg=cfg, h=0.05)
    assert rep.passed
    assert abs(rep.details[0]["rhs"]) <= 0.05


def test_barrier_derivative_far_above_with_updrift():
    q = 0.5
    prob = quad_problem(1.0, q)
    cfg = make_cfg(q, n=64, seed=7, tail=1e-4)
    rep = check_barrier_derivative(DRIFT_UP, prob, x=5.0, b=0.0, cfg=cfg, h=0.05)
    assert rep.passed
    assert rep.details[0]["lhs"] == 0.0 and rep.details[0]["rhs"] == 0.0


def test_barrier_derivative_requires_x_neq_b():
    with pytest.raises(ValueError):
        check_barrier_derivative(BM, quad_problem(1.0, 0.5), x=0.0, b=0.0,
                                 cfg=make_cfg(0.5, n=16), h=0.05)


# ---------------------------------------------------------------------------
# slope identity (d/dx of the value)
# ---------------------------------------------------------------------------


def test_slope_below_barrier_is_minus_C_exactly():
    q = 0.5
    prob = quad_problem(0.7, q)
    cfg = make_cfg(q, dt=2e-3, n=300, seed=5, tail=1e-4)
    rep = check_slope_identity(BM, prob, x=-2.0, b=-0.5, cfg=cfg, h=0.05)
    assert rep.passed
    assert rep.details[0]["slope"] == pytest.approx(-prob.C, abs=1e-9)
    assert rep.details[0]["rhs"] == pytest.approx(-prob.C, abs=1e-12)


def test_slope_smooth_fit_near_fitted_barrier():
    q = 0.5
    prob = quad_problem(1.0, q)
    cfg = make_cfg(q, dt=1e-3, n=3000, seed=23, tail=1e-4)
    res = lb.solve_barrier(BM, prob, cfg)
    rep = check_slope_identity(BM, prob, x=res.b_star + 0.05, b=res.b_star, cfg=cfg, h=0.05)
    assert rep.passed
    assert rep.details[0]["slope"] == pytest.approx(-prob.C, abs=0.12)


def test_slope_pure_drift_up_closed_form():
    # never crosses: slope = discounted integral of f'(x + t) = 2x/q + 2d/q^2
    q = 0.5
    prob = quad_problem(1.0, q)
    cfg = make_cfg(q, n=8, seed=2)
    x = 2.0
    rep = check_slope_identity(DRIFT_UP, prob, x=x, b=0.0, cfg=cfg, h=0.01)
    assert rep.passed
    assert rep.details[0]["slope"] == pytest.approx(2 * x / q + 2 / q**2, rel=0.01)


# ---------------------------------------------------------------------------
# convexity
# ---------------------------------------------------------------------------


def test_convexity_pure_drift():
    q = 0.1
    prob = quad_problem(1.0, q)
    cfg = make_cfg(q, dt=1e-3, n=16, seed=3, tail=1e-6)
    res = lb.solve_barrier(DRIFT_UP, prob, cfg, bisect_tol=2e-3)
    rep = check_convexity(DRIFT_UP, prob, cfg, np.linspace(-14.0, -6.0, 9), b_star=res.b_star)
    assert rep.passed
    # grid entirely below the barrier: the value is linear, curvature ~ 0
    rep2 = check_convexity(DRIFT_UP, prob, cfg, np.linspace(-20.0, -16.0, 5), b_star=res.b_star)
    assert rep2.passed
    assert all(abs(row["second_difference"]) <= 1e-8 for row in rep2.details)


def test_convexity_guard_for_linear_cost():
    prob = ProblemSpec(cost=builtin_cost("piecewise_linear", slopes=(1.0, 1.0), kinks=(0.0,)),
                       C=1.0, q=0.5)
    with pytest.raises(AssumptionViolated):
        check_convexity(BM, prob, make_cfg(0.5, n=16, tail=1e-4), np.linspace(-1, 1, 5))


# ---------------------------------------------------------------------------
# martingale constancy
# ---------------------------------------------------------------------------


def test_martingale_drift_down_deterministic():
    q = 0.5
    prob = quad_problem(1.0, q)
    cfg = make_cfg(q, dt=1e-3, n=16, seed=3)
    res = lb.solve_barrier(DRIFT_DOWN, prob, cfg, bisect_tol=1e-3)
    rep = check_martingale(DRIFT_DOWN, prob, cfg, x=1.0, t_grid=[0.25, 0.5, 1.0, 2.0, 5.0],
                           b_star=res.b_star)
    assert rep.passed
    assert rep.details[0]["t"] == 0.0 and rep.details[0]["residual"] == 0.0


def test_martingale_requires_start_above_barrier():
    q = 0.5
    prob = quad_problem(1.0, q)
    cfg = make_cfg(q, n=16)
    with pytest.raises(ValueError, match="above"):
        check_martingale(DRIFT_DOWN, prob, cfg, x=-10.0, t_grid=[1.0], b_star=-0.25)


# ---------------------------------------------------------------------------
# HJB system
# ---------------------------------------------------------------------------


def test_hjb_pure_drift_passes():
    q = 0.1
    prob = quad_problem(1.0, q)
    cfg = make_cfg(q, dt=1e-3, n=16, seed=3, tail=1e-6)
    res = lb.solve_barrier(DRIFT_UP, prob, cfg, bisect_tol=2e-3)
    grid = res.b_star + np.linspace(-4.3, 9.7, 15)
    rep = check_hjb(DRIFT_UP, prob, cfg, grid, fd_h=0.25, b_star=res.b_star)
    assert rep.passed
    active = [r for r in rep.details if r["side"] == "active"]
    # closed-form sanity: residual of d v' - q v + f stays tiny vs the values
    assert all(abs(r["residual"]) <= 0.05 for r in active)
    below = [r for r in rep.details if r["side"] == "reflecting"]
    assert all(abs(r["slope_plus_C"]) <= 1e-9 for r in below)


def test_hjb_negative_subordinator_with_jumps():
    # jump quadrature branch: all-negative exponential jumps plus down drift
    q = 0.5
    neg = LevyTriplet(gamma=-0.2, sigma=0.0, jumps=JumpSpec.kou_mixture(1.0, 0.0, 1.0, 2.0))
    prob = quad_problem(1.0, q)
    cfg = make_cfg(q, dt=2e-3, n=800, seed=9, tail=1e-4)
    res = lb.solve_barrier(neg, prob, cfg)
    grid = res.b_star + np.linspace(-2.1, 2.9, 11)
    rep = check_hjb(neg, prob, cfg, grid, fd_h=0.25, b_star=res.b_star)
    assert rep.passed


# ---------------------------------------------------------------------------
# several checks on one shared pass
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_workers", [1, 2])
def test_shared_pass_reports_match_standalone_checks(n_workers):
    # 130 paths make 64 batches; b != b* and x on the convexity grid, so the
    # shared pass holds both distinct and repeated (offset, barrier) pairs
    q = 0.5
    prob = quad_problem(0.5, q)
    cfg = make_cfg(q, dt=0.05, n=130, seed=21, tail=1e-4)
    b_star = lb.solve_barrier(KOU, prob, cfg).b_star
    b, x = b_star + 0.3, b_star + 1.0
    x_grid = [b_star + (i - 7) * 0.5 for i in range(15)]
    kwargs = {
        "barrier_derivative": {"x": x, "b": b, "h": 0.05},
        "slope_identity": {"x": x, "b": b, "h": 0.05},
        "convexity": {"x_grid": x_grid, "b_star": b_star},
        "martingale": {"x": x, "t_grid": [0.5, 1.0, 2.5], "b_star": b_star},
        "hjb": {"x_grid": x_grid, "fd_h": 0.25, "b_star": b_star},
    }
    alone = [
        check_barrier_derivative(KOU, prob, cfg=cfg, n_workers=n_workers, **kwargs["barrier_derivative"]),
        check_slope_identity(KOU, prob, cfg=cfg, n_workers=n_workers, **kwargs["slope_identity"]),
        check_convexity(KOU, prob, cfg, n_workers=n_workers, **kwargs["convexity"]),
        check_martingale(KOU, prob, cfg, n_workers=n_workers, **kwargs["martingale"]),
        check_hjb(KOU, prob, cfg, n_workers=n_workers, **kwargs["hjb"]),
    ]
    shared = run_checks(KOU, prob, cfg, list(kwargs.items()), n_workers=n_workers)
    assert [r.name for r in shared] == list(kwargs)
    assert [r.to_record() for r in shared] == [r.to_record() for r in alone]
