import math
from dataclasses import replace

import numpy as np
import pytest

import levybarrier as lb
from levybarrier import JumpSpec, LevyTriplet, SimConfig, builtin_cost, path_engine, verification
from levybarrier.cost_model import ProblemSpec
from levybarrier.errors import AssumptionViolated
from levybarrier.estimators import _moments, _value_pass
from levybarrier.path_engine import horizon_for, value_chunk
from levybarrier.verification import (
    _hat,
    _hat_weights,
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


def test_convexity_refuses_a_short_horizon():
    # e^{-qT} = 0.607 at T = 1: the horizon cuts off most of the discounted mass
    cfg = SimConfig(dt=0.01, horizon_T=1.0, n_paths=16, master_seed=3)
    with pytest.raises(ValueError, match="horizon too short"):
        check_convexity(BM, quad_problem(1.0, 0.5), cfg, np.linspace(-1, 1, 5), b_star=-1.0)


def test_convexity_guard_for_linear_cost():
    prob = ProblemSpec(cost=builtin_cost("piecewise_linear", slopes=(1.0, 1.0), kinks=(0.0,)),
                       C=1.0, q=0.5)
    with pytest.raises(AssumptionViolated):
        check_convexity(BM, prob, make_cfg(0.5, n=16, tail=1e-4), np.linspace(-1, 1, 5), b_star=0.0)


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


@pytest.mark.parametrize("t_grid, message", [([-1.0, 1.0], "negative"), ([-1e-12], "negative"),
                                             ([1.0, 1e9], "horizon")])
def test_martingale_refuses_times_off_the_grid_before_any_pass(monkeypatch, t_grid, message):
    # a negative t would take a negative grid index, which wraps to the end of the grid
    seen = []
    monkeypatch.setattr(lb.estimators, "map_reduce_paths", lambda *args, **kwargs: seen.append(args))
    q = 0.5
    with pytest.raises(ValueError, match=message):
        check_martingale(DRIFT_DOWN, quad_problem(1.0, q), make_cfg(q, n=16), x=1.0, t_grid=t_grid, b_star=-0.25)
    assert seen == []


@pytest.mark.parametrize("h", [0.0, -0.05])
@pytest.mark.parametrize("check", [check_barrier_derivative, check_slope_identity])
def test_difference_step_refused_before_any_pass(monkeypatch, check, h):
    # a zero step divides by zero and a negative one turns the curvature allowance negative
    seen = []
    monkeypatch.setattr(lb.estimators, "map_reduce_paths", lambda *args, **kwargs: seen.append(args))
    q = 0.5
    with pytest.raises(ValueError, match="h must be positive"):
        check(KOU, quad_problem(0.5, q), x=0.5, b=-0.5, cfg=make_cfg(q, dt=0.05, n=16), h=h)
    assert seen == []


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


def _kou_130():
    """(problem, config, check arguments) of 130 Kou paths, 64 batches: b != b* and x on the
    convexity grid, so the shared pass holds both distinct and repeated (offset, barrier) pairs."""
    q = 0.5
    prob = quad_problem(0.5, q)
    cfg = make_cfg(q, dt=0.05, n=130, seed=21, tail=1e-4)
    b_star = lb.solve_barrier(KOU, prob, cfg).b_star
    b, x = b_star + 0.3, b_star + 1.0
    x_grid = [b_star + (i - 7) * 0.5 for i in range(15)]
    return prob, cfg, {
        "barrier_derivative": {"x": x, "b": b, "h": 0.05},
        "slope_identity": {"x": x, "b": b, "h": 0.05},
        "convexity": {"x_grid": x_grid, "b_star": b_star},
        "martingale": {"x": x, "t_grid": [0.5, 1.0, 2.5], "b_star": b_star},
        "hjb": {"x_grid": x_grid, "fd_h": 0.25, "b_star": b_star},
    }


@pytest.mark.parametrize("n_workers", [1, 2])
def test_shared_pass_reports_match_standalone_checks(n_workers):
    prob, cfg, kwargs = _kou_130()
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


def _five_checks(b_star):
    """Arguments of every check at b* = ``b_star``, started one unit above it."""
    x_grid = [b_star + (i - 3) * 0.5 for i in range(7)]
    return {
        "barrier_derivative": {"x": b_star + 1.0, "b": b_star},
        "slope_identity": {"x": b_star + 1.0, "b": b_star},
        "convexity": {"x_grid": x_grid, "b_star": b_star},
        "martingale": {"x": b_star + 1.0, "t_grid": [0.5, 1.0], "b_star": b_star},
        "hjb": {"x_grid": x_grid, "fd_h": 0.25, "b_star": b_star},
    }


@pytest.mark.parametrize("names, reducers", [(("barrier_derivative", "slope_identity", "convexity"), 1),
                                              (("barrier_derivative", "slope_identity", "convexity",
                                                "martingale", "hjb"), 1)], ids=["three_checks", "five_checks"])
def test_shared_pass_hands_one_value_reducer(monkeypatch, names, reducers):
    # values, passages, stopped values and rho-hat are one value_chunk reducer
    seen = []
    real = lb.estimators.map_reduce_paths

    def counted(triplet, cfg, reduce, **kw):
        if cfg.master_seed == 21:  # the shared pass; the martingale check's node values take seed 22
            seen.append(int(reduce.func is value_chunk))  # the value_chunk reducers handed to the pass
        return real(triplet, cfg, reduce, **kw)

    monkeypatch.setattr(lb.estimators, "map_reduce_paths", counted)
    q, kwargs = 0.5, _five_checks(-0.75)
    run_checks(KOU, quad_problem(0.5, q), make_cfg(q, dt=0.05, n=64, seed=21, tail=1e-4),
               [(n, kwargs[n]) for n in names])
    assert seen == [reducers]


@pytest.mark.parametrize("case", ["kou", "bm_antithetic"])
def test_start_below_barrier_reads_the_at_barrier_pair(case):
    # R_0 = b - x on every path: below its barrier a start's values are the (b, b) column plus
    # C (b - x), as reflecting (x, b) itself gives them on the same paths
    if case == "kou":
        triplet, (prob, cfg, kwargs) = KOU, _kou_130()
    else:
        q = 0.5
        triplet, prob, kwargs = BM, quad_problem(0.5, q), _five_checks(-1.0)
        cfg = replace(make_cfg(q, dt=0.05, n=130, seed=21, tail=1e-4), antithetic=True)
    values = []
    for n_workers in (1, 2):
        plans = [verification._PLANS[name](triplet, prob, cfg=cfg, n_workers=n_workers, **kw)
                 for name, kw in kwargs.items()]
        p = verification._Pass(triplet, prob, cfg, [next(plan) for plan in plans], n_workers)
        below = [(x, b) for x, b in p.pairs if x < b]
        assert below  # the convexity grid's and hjb's nodes below b*
        got = p.values(below)
        push = prob.C * np.array([b - x for x, b in below])
        np.testing.assert_allclose(got, p.values([(b, b) for _, b in below]) + push, rtol=1e-13, atol=0)
        np.testing.assert_allclose(got, _value_pass(triplet, prob, cfg, below, n_workers)[0], rtol=1e-12, atol=0)
        values.append(p.v)
    assert values[0].tobytes() == values[1].tobytes()


def test_running_minimum_covers_each_grid_point_once(monkeypatch):
    # a solve and a five-check verify pass take the running minimum of every path's grid points once,
    # a row block at a time: the solver's histogram and the martingale check's stopped values read
    # value_chunk's minimum.  Blocks of one row cut the 4-path chunks
    q = 0.5
    cfg = make_cfg(q, dt=0.05, n=256, seed=21, tail=1e-4)
    n_grid = cfg.n_steps + 1
    monkeypatch.setattr(path_engine, "BLOCK_FLOATS", n_grid)
    passes = []

    class _Counted:  # a running-minimum pass through either ufunc is counted
        def __init__(self, ufunc):
            self.ufunc = ufunc

        def __call__(self, *args, **kwargs):
            return self.ufunc(*args, **kwargs)

        def accumulate(self, a, *args, **kwargs):
            passes[-1].append(np.shape(a))
            return self.ufunc.accumulate(a, *args, **kwargs)

    def counted(real):
        return lambda *args, **kwargs: passes.append([]) or real(*args, **kwargs)

    for name in ("fmin", "minimum"):
        monkeypatch.setattr(np, name, _Counted(getattr(np, name)))
    monkeypatch.setattr(lb.estimators, "map_reduce_paths", counted(lb.estimators.map_reduce_paths))
    lb.solve_barrier(KOU, quad_problem(0.5, q), cfg)
    run_checks(KOU, quad_problem(0.5, q), cfg, list(_five_checks(-0.75).items()))
    # the solve, the martingale check's node values (a seed of their own) and the shared pass
    assert [sum(math.prod(shape) for shape in shapes) for shapes in passes] == [cfg.n_paths * n_grid] * 3
    assert all(shape == (1, n_grid) for shapes in passes for shape in shapes)


# ---------------------------------------------------------------------------
# shared statistics: the estimators' antithetic-aware stderr, one interpolant
# ---------------------------------------------------------------------------


def _shared_values(triplet, prob, cfg, pairs):
    """Per-path values of ``pairs`` as a check reads them off the shared pass."""
    return verification._Pass(triplet, prob, cfg, [verification._Ask(pairs=tuple(pairs))], 1).values(pairs)


@pytest.mark.parametrize("triplet", [BM, LevyTriplet(0.0, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 3.0, 3.0))])
def test_check_stderr_pairs_antithetic_halves(triplet):
    # a symmetric model with antithetic pairs: a check's stderr is the one
    # every estimate reports, with the mirrored halves averaged first
    q, h = 0.5, 0.05
    prob = quad_problem(1.0, q)
    cfg = SimConfig(dt=1e-2, horizon_T=horizon_for(q, 1e-3, 1e-2), n_paths=400, master_seed=5,
                    tail_tol=1e-3, antithetic=True)
    x, b = 0.0, -1.0
    bundle = [(x, b - h), (x, b), (x, b + h)]
    v = _shared_values(triplet, prob, cfg, bundle)
    rep = check_barrier_derivative(triplet, prob, x=x, b=b, cfg=cfg, h=h)
    assert rep.details[0]["se_lhs"] == _moments((v[:, 2] - v[:, 1]) / h, True)[1]

    x_grid = np.linspace(-1.0, 1.0, 5)
    v = _shared_values(triplet, prob, cfg, [(o, b) for o in x_grid])
    rep = check_convexity(triplet, prob, cfg, x_grid, b_star=b)
    expect = [_moments(v[:, j + 1] - 2 * v[:, j] + v[:, j - 1], True)[1] for j in range(1, 4)]
    assert [row["se"] for row in rep.details] == expect


def test_hat_form_is_the_value_interpolant():
    nodes = np.array([-1.0, -0.5, 0.25, 1.0, 2.0])
    v = np.array([3.0, 1.5, 0.75, 1.25, 4.0])
    C = 0.7

    def evaluate(y):
        idx, t, const = _hat(y, nodes, C)
        return (1.0 - t) * v[idx] + t * v[idx + 1] + const

    inside = np.linspace(nodes[0], nodes[-1], 37)
    np.testing.assert_allclose(evaluate(inside), np.interp(inside, nodes, v), rtol=1e-14, atol=1e-14)
    below = np.array([-3.0, -1.5, -1.0 - 1e-12])
    np.testing.assert_allclose(evaluate(below), v[0] + C * (nodes[0] - below), rtol=1e-14)
    above = np.array([2.0 + 1e-12, 2.5, 7.0])
    slope = (v[-1] - v[-2]) / (nodes[-1] - nodes[-2])
    np.testing.assert_allclose(evaluate(above), v[-1] + slope * (above - nodes[-1]), rtol=1e-14)

    # check_hjb's rows: the same form scattered into a matvec
    y = np.concatenate([below, inside, above])
    W, const = _hat_weights(y, nodes, C)
    np.testing.assert_allclose(W @ v + const, evaluate(y), rtol=1e-14)
    assert np.all(np.count_nonzero(W, axis=1) <= 2)
