"""Numerical verification of the structural identities behind the solver.

Each check compares a Monte Carlo finite difference or functional against
the identity it should satisfy and reports a CheckReport.  All checks run
on common-random-number batches: differences of estimates are formed per
path before averaging, so the reported stderr is the propagated pathwise
one, far below the independent-run value.  Tolerances are assembled per
point from (a) the propagated Monte Carlo stderr, (b) finite-difference
curvature allowances estimated from higher-order differences of the node
values, (c) quadrature and interpolation bounds for the jump integral, and
(d) explicit time-step and horizon-truncation allowances so that
zero-variance (deterministic-path) models are budgeted honestly too.

``run_checks`` reads several checks off ONE streamed pass of the paths
from 0: a path started at x is the path from 0 plus x bit for bit, so each
start is an offset.  A check validates its arguments, yields an ``_Ask`` of
what it reads off the pass, is sent the ``_Pass`` (what several checks ask
is computed once) and yields its report; each public ``check_*`` is
``run_checks`` with that one check.  Only a solve (b_star omitted) and the
martingale check's node values (an independent seed) run passes of their
own.

Checks are advisory: they return reports, they do not raise on failure.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .barrier_solver import solve_barrier
from .cost_model import ProblemSpec
from .errors import NonFiniteSample
from .estimators import _rho_chunk, _rho_ctx, _rho_curve, _value_pass
from .levy_model import LevyTriplet
from .path_engine import (
    SimConfig,
    ValueCtx,
    discount_factors,
    first_passage_index,
    integral_weights,
    map_reduce_several,
    stopped_integral,
    value_chunk,
)

__all__ = [
    "CheckReport",
    "run_checks",
    "check_barrier_derivative",
    "check_slope_identity",
    "check_convexity",
    "check_martingale",
    "check_hjb",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check.

    Two-sided checks pass iff |statistic| <= tolerance; one-sided checks
    (declared via ``one_sided``) pass iff statistic <= tolerance, where the
    statistic is the worst signed violation across the per-point table.
    """

    name: str
    statistic: float
    tolerance: float
    passed: bool
    details: list
    one_sided: bool = False

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "one_sided": self.one_sided,
            "details": self.details,
        }


def _se(samples: np.ndarray) -> float:
    s = np.asarray(samples, dtype=float)
    if s.size < 2 or np.all(s == s[0]):
        return 0.0
    return float(s.std(ddof=1) / math.sqrt(s.size))


def _drift_scale(triplet: LevyTriplet) -> float:
    return abs(triplet.effective_drift) + triplet.sigma + triplet.jumps.rate * triplet.jumps.mean_abs_size()


# ---------------------------------------------------------------------------
# the shared pass
# ---------------------------------------------------------------------------


def _interp_eval(y, nodes, means, C):
    """Piecewise-linear value interpolant with structural extensions.

    Below the node range the value continues with exact slope -C; above it
    the last segment's slope is frozen.
    """
    y = np.asarray(y, dtype=float)
    out = np.interp(y, nodes, means)
    below = y < nodes[0]
    if np.any(below):
        out = np.where(below, means[0] + C * (nodes[0] - y), out)
    above = y > nodes[-1]
    if np.any(above):
        slope = (means[-1] - means[-2]) / (nodes[-1] - nodes[-2])
        out = np.where(above, means[-1] + slope * (y - nodes[-1]), out)
    return out


@dataclass(frozen=True, eq=False)
class _MartingaleCtx:
    x: float
    b_star: float
    t_indices: tuple
    nodes: np.ndarray
    node_means: np.ndarray
    C: float
    f: Callable
    w: np.ndarray
    disc: np.ndarray


def _martingale_chunk(values, ctx: _MartingaleCtx):
    values = values + ctx.x  # the paths started at x, bit for bit
    tau = first_passage_index(np.minimum.accumulate(values, axis=-1), ctx.b_star)
    # stop each path at tau and t: j = min(tau, t_k) per (path, t_k)
    j = np.minimum(tau[:, None], np.asarray(ctx.t_indices)[None, :])
    x_j = np.take_along_axis(values, j, axis=1)
    out = ctx.disc[j] * _interp_eval(x_j, ctx.nodes, ctx.node_means, ctx.C) + stopped_integral(
        np.asarray(ctx.f(values), dtype=float), ctx.w, j
    )
    return {"pp_m": out}


@dataclass(frozen=True)
class _Ask:
    """What one check reads off the shared pass of the paths from 0."""

    pairs: tuple = ()       # (start offset, barrier) value samples
    passages: tuple = ()    # (start offset, level) first passages
    f_prime: bool = False   # with the integrals of f'_+ up to them
    rho: tuple = ()         # barriers of time-integral rho-hat
    martingale: _MartingaleCtx | None = None


class _Pass:
    """The one streamed pass from 0 answering every ``_Ask``."""

    def __init__(self, triplet, problem, cfg, asks, n_workers):
        self.pairs = list(dict.fromkeys(p for a in asks for p in a.pairs))
        self.passages = list(dict.fromkeys(p for a in asks for p in a.passages))
        self.walks = [a.martingale for a in asks if a.martingale is not None]
        rho_b = sorted({b for a in asks for b in a.rho})
        f_prime = problem.cost.f_prime_plus if any(a.f_prime for a in asks) else None
        reducers = [(value_chunk, ValueCtx(pairs=tuple(self.pairs), f=problem.cost.f, q=problem.q,
                                           dt=cfg.dt, passages=tuple(self.passages), f_prime=f_prime))]
        if rho_b:
            rho_ctx = _rho_ctx(problem, cfg, rho_b)
            reducers.append((_rho_chunk, rho_ctx))
        reducers += [(_martingale_chunk, ctx) for ctx in self.walks]
        value, *rest = map_reduce_several(triplet, 0.0, cfg, reducers, n_workers=n_workers)
        self.v = value["pp_running"] + problem.C * value["pp_control"]
        self.tau_disc, self.fprime_to_tau = value.get("pp_tau_disc"), value.get("pp_fprime_to_tau")
        if rho_b:
            self.rho = dict(_rho_curve(rest.pop(0)["pp_y"], rho_ctx, triplet, problem, cfg))
        self.m = [out["pp_m"] for out in rest]

    def values(self, pairs) -> np.ndarray:
        """Per-path values (n, pairs) of the paths started at each offset, reflected
        at its barrier; C-ordered, which fixes how a matvec (``check_hjb``) sums."""
        return np.take(self.v, [self.pairs.index(p) for p in pairs], axis=1)

    def passage(self, o, level, f_prime=False) -> np.ndarray:
        """e^{-q tau} per path, or with ``f_prime`` the integral of f'_+ up to tau."""
        return (self.fprime_to_tau if f_prime else self.tau_disc)[:, self.passages.index((o, level))]


_PLANS: dict = {}


def _check(plan):
    """Register a check's plan (module docstring) and return its one-check call."""
    _PLANS[plan.__name__.removeprefix("check_")] = plan
    sig = inspect.signature(plan)

    @functools.wraps(plan)
    def check(*args, **kwargs) -> CheckReport:
        a = sig.bind(*args, **kwargs)
        a.apply_defaults()
        common = (a.arguments[k] for k in ("triplet", "problem", "cfg", "n_workers"))
        return _run([plan(*args, **kwargs)], *common)[0]

    return check


def _run(plans, triplet, problem, cfg, n_workers) -> list[CheckReport]:
    if not plans:
        return []
    shared = _Pass(triplet, problem, cfg, [next(plan) for plan in plans], n_workers)
    return [plan.send(shared) for plan in plans]


def run_checks(triplet: LevyTriplet, problem: ProblemSpec, cfg: SimConfig, checks,
               n_workers: int = 1) -> list[CheckReport]:
    """Reports of several checks, in order, all read off ONE shared pass.

    ``checks`` lists (name, keyword arguments) pairs: the name of a
    ``check_*`` function without its prefix, and that function's arguments
    other than the model, problem, config and worker count.
    """
    plans = [_PLANS[name](triplet, problem, cfg=cfg, n_workers=n_workers, **kw) for name, kw in checks]
    return _run(plans, triplet, problem, cfg, n_workers)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _bundle(p: _Pass, bundle, h, what):
    """Values of a three-point CRN bundle and its curvature allowance: a
    forward difference is biased by h/2 * v'' + O(h^2); budget a full h * v''."""
    v = p.values(bundle)
    if not np.all(np.isfinite(v)):
        raise NonFiniteSample(f"{what} bundle produced non-finite values")
    return v, h * (abs(float((v[:, 2] - 2 * v[:, 1] + v[:, 0]).mean())) / h**2)


@_check
def check_barrier_derivative(triplet: LevyTriplet, problem: ProblemSpec, x: float, b: float,
                             cfg: SimConfig, h: float = 0.05, n_workers: int = 1):
    """Finite difference of b -> v_b(x) against E_x[e^{-q tau_b}] (rho(b)+C).

    The finite difference runs on CRN paths across the three barriers
    b - h, b, b + h; paths that never cross contribute 0 to the passage
    factor (an error of order e^{-qT}, inside the tail allowance).
    """
    if x == b:
        raise ValueError("the derivative identity needs x != b")
    cfg.validate_for(problem.q)
    bundle = [(x, b - h), (x, b), (x, b + h)]
    p = yield _Ask(pairs=bundle, passages=[(x, b)], rho=[b])
    v, allowance = _bundle(p, bundle, h, "barrier derivative")
    fwd = (v[:, 2] - v[:, 1]) / h
    lhs, se_lhs = float(fwd.mean()), _se(fwd)
    tau_disc = p.passage(x, b)
    tau_mean, se_tau = float(tau_disc.mean()), _se(tau_disc)
    rho = p.rho[b]
    rho_c = rho.mean + problem.C
    rhs = tau_mean * rho_c
    se_rhs = math.hypot(rho_c * se_tau, tau_mean * rho.stderr) + se_tau * rho.stderr
    floor = 1e-9 * (1.0 + abs(lhs) + abs(rhs)) + cfg.tail_tol * (1.0 + abs(rho_c))
    statistic = lhs - rhs
    tolerance = 3.0 * (se_lhs + se_rhs) + allowance + floor
    detail = {
        "x": x, "b": b, "lhs": lhs, "rhs": rhs, "se_lhs": se_lhs, "se_rhs": se_rhs,
        "curvature_allowance": allowance, "residual": statistic, "tolerance": tolerance,
        "passed": bool(abs(statistic) <= tolerance),
    }
    yield CheckReport("barrier_derivative", statistic, tolerance, abs(statistic) <= tolerance, [detail])


@_check
def check_slope_identity(triplet: LevyTriplet, problem: ProblemSpec, x: float, b: float,
                         cfg: SimConfig, h: float = 0.05, n_workers: int = 1):
    """Finite difference of x -> v_b(x) against the first-passage expression

        E_x[ int_0^{tau_b} e^{-qt} f'_+(X_t) dt ] - C E_x[ e^{-q tau_b} ],

    formed pathwise on CRN paths (the same increments drive both starting
    points and the passage functionals).
    """
    cfg.validate_for(problem.q)
    bundle = [(x, b), (x + h, b), (x + 2 * h, b)]
    p = yield _Ask(pairs=bundle, passages=[(x, b)], f_prime=True)
    v, allowance = _bundle(p, bundle, h, "slope identity")
    rhs_p = p.passage(x, b, f_prime=True) - problem.C * p.passage(x, b)
    diff = (v[:, 1] - v[:, 0]) / h - rhs_p
    statistic = float(diff.mean())
    se = _se(diff)
    floor = 1e-9 * (1.0 + float(np.abs(v[:, 0]).mean())) + cfg.tail_tol * (
        1.0 + abs(float(problem.cost.f_prime_plus(x)))
    )
    tolerance = 3.0 * se + allowance + floor
    detail = {
        "x": x, "b": b, "slope": float(((v[:, 1] - v[:, 0]) / h).mean()),
        "rhs": float(rhs_p.mean()), "residual": statistic, "se": se,
        "tolerance": tolerance, "passed": bool(abs(statistic) <= tolerance),
    }
    yield CheckReport("slope_identity", statistic, tolerance, abs(statistic) <= tolerance, [detail])


@_check
def check_convexity(
    triplet: LevyTriplet,
    problem: ProblemSpec,
    cfg: SimConfig,
    x_grid,
    b_star: float | None = None,
    n_workers: int = 1,
):
    """Second differences of x -> v_{b*}(x) on CRN-coupled starts are >= 0
    up to three propagated standard errors at every interior grid point."""
    problem.require_admissible()
    x_grid = np.asarray([float(v) for v in x_grid])
    if x_grid.size < 5:
        raise ValueError("x_grid needs at least 5 points")
    steps = np.diff(x_grid)
    if np.any(steps <= 0) or np.any(np.abs(steps - steps[0]) > 1e-9 * (1 + steps[0])):
        raise ValueError("x_grid must be uniformly spaced increasing")
    if b_star is None:
        b_star = solve_barrier(triplet, problem, cfg, n_workers=n_workers).b_star
    bundle = [(x, b_star) for x in x_grid]
    v = (yield _Ask(pairs=bundle)).values(bundle)
    details = []
    worst = -math.inf
    for j in range(1, x_grid.size - 1):
        d2 = v[:, j + 1] - 2 * v[:, j] + v[:, j - 1]
        mean, se = float(d2.mean()), _se(d2)
        floor = 1e-9 * (1.0 + float(np.abs(v[:, j]).mean()))
        violation = -(mean + 3.0 * se + floor)
        worst = max(worst, violation)
        details.append(
            {"x": float(x_grid[j]), "second_difference": mean, "se": se,
             "residual": mean, "tolerance": 3.0 * se + floor, "passed": bool(violation <= 0.0)}
        )
    yield CheckReport("convexity", worst, 0.0, worst <= 0.0, details, one_sided=True)


@_check
def check_martingale(
    triplet: LevyTriplet,
    problem: ProblemSpec,
    cfg: SimConfig,
    x: float,
    t_grid,
    b_star: float | None = None,
    node_grid=None,
    n_workers: int = 1,
):
    """Constancy in t of E_x[e^{-q(tau and t)} v(X) + int_0^{tau and t} e^{-qs} f(X_s) ds].

    The value function enters through a piecewise-linear interpolant whose
    nodes are estimated on an independent CRN batch (derived seed, so a
    pass of its own); below the node range the exact linear continuation
    with slope -C is used.
    """
    cfg.validate_for(problem.q)
    if b_star is None:
        b_star = solve_barrier(triplet, problem, cfg, n_workers=n_workers).b_star
    if x <= b_star:
        raise ValueError("martingale check needs a start strictly above the barrier")
    if node_grid is None:
        span = 3.0 * _drift_scale(triplet) / problem.q + 3.0 * triplet.sigma / math.sqrt(problem.q)
        node_grid = np.linspace(b_star - 2.0, x + span, 41)
    node_grid = np.asarray(node_grid, dtype=float)
    node_cfg = replace(cfg, master_seed=cfg.master_seed + 1)
    node_v, _ = _value_pass(
        triplet, problem, node_cfg, 0.0, [(o, b_star) for o in node_grid], n_workers=n_workers
    )
    node_means = node_v.mean(axis=0)
    node_se = np.array([_se(node_v[:, j]) for j in range(node_grid.size)])
    interp_allow = 3.0 * float(node_se.max()) + float(
        np.max(np.abs(np.diff(node_means, 2))) / 8.0
    )

    t_indices = sorted({0} | {int(round(t / cfg.dt)) for t in t_grid})
    if max(t_indices) > cfg.n_steps:
        raise ValueError("t_grid exceeds the simulation horizon")
    ctx = _MartingaleCtx(
        x=x,
        b_star=b_star,
        t_indices=tuple(t_indices),
        nodes=node_grid,
        node_means=node_means,
        C=problem.C,
        f=problem.cost.f,
        w=integral_weights(problem.q, cfg.dt, cfg.n_steps + 1),
        disc=discount_factors(problem.q, cfg.dt, cfg.n_steps + 1),
    )
    p = yield _Ask(martingale=ctx)
    m = p.m[p.walks.index(ctx)]
    if not np.all(np.isfinite(m)):
        raise NonFiniteSample("martingale functional produced non-finite values")
    m0 = float(m[:, 0].mean())
    details = []
    statistic = tolerance = 0.0
    for k, t_idx in enumerate(t_indices):
        drift_term = float(m[:, k].mean()) - m0
        se = _se(m[:, k] - m[:, 0])
        tol = 3.0 * se + interp_allow + 1e-9 * (1.0 + abs(m0))
        if abs(drift_term) >= abs(statistic):
            statistic, tolerance = drift_term, tol
        details.append(
            {"t": t_idx * cfg.dt, "m": float(m[:, k].mean()), "residual": drift_term,
             "se": se, "tolerance": tol, "passed": bool(abs(drift_term) <= tol)}
        )
    yield CheckReport("martingale", statistic, tolerance, all(d["passed"] for d in details), details)


# ---------------------------------------------------------------------------
# HJB system check
# ---------------------------------------------------------------------------


def _jump_quadrature(jumps, tail_prob=1e-3, points_per_side=2000):
    """(z, mass) pairs integrating the jump law; exact for atom laws."""
    if jumps.kind == "atoms":
        return np.asarray(jumps.values, dtype=float), np.asarray(jumps.probs, dtype=float), 0.0
    lo, hi = jumps.displacement_quantiles(tail_prob)
    zs, masses = [], []
    for a, b in ((lo, 0.0), (0.0, hi)):
        if b - a <= 0:
            continue
        z = np.linspace(a, b, points_per_side + 1)
        pdf = jumps.pdf(z)
        w = np.full(z.shape, (b - a) / points_per_side)
        w[0] *= 0.5
        w[-1] *= 0.5
        zs.append(z)
        masses.append(pdf * w)
    z = np.concatenate(zs)
    mass = np.concatenate(masses)
    return z, mass, max(0.0, 1.0 - float(mass.sum()))


def _interp_weights(y_points, nodes, C):
    """Hat-function weights of the interpolant at arbitrary points.

    Returns (W, const) with v(y_k) = W[k] @ node_values + const[k], using the
    exact slope -C continuation below the grid and a frozen top slope above.
    """
    y = np.asarray(y_points, dtype=float)
    n = nodes.size
    W = np.zeros((y.size, n))
    const = np.zeros(y.size)
    inside = (y >= nodes[0]) & (y <= nodes[-1])
    idx = np.clip(np.searchsorted(nodes, y[inside], side="right") - 1, 0, n - 2)
    t = (y[inside] - nodes[idx]) / (nodes[idx + 1] - nodes[idx])
    rows = np.flatnonzero(inside)
    W[rows, idx] = 1.0 - t
    W[rows, idx + 1] = t
    below = y < nodes[0]
    W[below, 0] = 1.0
    const[below] = C * (nodes[0] - y[below])
    above = y > nodes[-1]
    if np.any(above):
        dlast = nodes[-1] - nodes[-2]
        s = (y[above] - nodes[-1]) / dlast
        W[above, -1] = 1.0 + s
        W[above, -2] = -s
    return W, const


@_check
def check_hjb(
    triplet: LevyTriplet,
    problem: ProblemSpec,
    cfg: SimConfig,
    x_grid,
    fd_h: float,
    b_star: float | None = None,
    n_workers: int = 1,
):
    """Residual of the generator system at the fitted barrier.

    At each grid point the residual d*v' + (sigma^2/2) v'' +
    rate*E[v(x+J) - v(x)] - q v + f(x) is assembled as a single linear
    combination of CRN node values, so its stderr is the propagated pathwise
    one.  Pass conditions: |residual| <= tol for x >= b*, residual >= -tol
    for x < b*, slope v' + C >= -tol everywhere and |v' + C| <= tol below
    the barrier.
    """
    cfg.validate_for(problem.q)
    if fd_h <= 0:
        raise ValueError("fd_h must be positive")
    if b_star is None:
        b_star = solve_barrier(triplet, problem, cfg, n_workers=n_workers).b_star
    x_grid = np.asarray([float(v) for v in x_grid])
    jumps = triplet.jumps
    d = triplet.effective_drift
    sig2h = 0.5 * triplet.sigma**2
    q, C, cost = problem.q, problem.C, problem.cost

    # node set: five-point stencils around every check point, plus coarser
    # padding nodes so jump displacements stay on the interpolant
    stencil = np.concatenate([x_grid + k * fd_h for k in (-2, -1, 0, 1, 2)])
    nodes = stencil
    z = mass = None
    tail_mass = 0.0
    if jumps.rate > 0:
        z, mass, tail_mass = _jump_quadrature(jumps)
        lo_pad = x_grid.min() + min(z.min(), 0.0) - fd_h
        hi_pad = x_grid.max() + max(z.max(), 0.0) + fd_h
        pad_step = max(fd_h, (hi_pad - lo_pad) / 96.0)
        nodes = np.concatenate([nodes, np.arange(lo_pad, hi_pad + pad_step, pad_step)])
    nodes = np.unique(np.round(nodes, 9))
    bundle = [(o, b_star) for o in nodes]
    Y = (yield _Ask(pairs=bundle)).values(bundle)
    if not np.all(np.isfinite(Y)):
        raise NonFiniteSample("value bundle produced non-finite samples")
    means = Y.mean(axis=0)

    def node_index(v):
        i = int(np.searchsorted(nodes, v - 1e-9))
        if abs(nodes[i] - v) > 1e-8:
            raise AssertionError(f"stencil node {v} missing from node set")
        return i

    drift_scale = _drift_scale(triplet)
    tail = math.exp(-q * cfg.effective_horizon)
    moment_scale = abs(b_star) + drift_scale * (cfg.effective_horizon + 4.0 / q)

    details, worst = [], -math.inf
    for x in x_grid:
        i0 = node_index(round(x, 9))
        im1, ip1 = node_index(round(x - fd_h, 9)), node_index(round(x + fd_h, 9))
        im2, ip2 = node_index(round(x - 2 * fd_h, 9)), node_index(round(x + 2 * fd_h, 9))
        c = np.zeros(nodes.size)
        const = float(cost.f(x))
        c[i0] -= q
        c[ip1] += d / (2 * fd_h)
        c[im1] -= d / (2 * fd_h)
        if triplet.sigma > 0:
            c[ip1] += sig2h / fd_h**2
            c[im1] += sig2h / fd_h**2
            c[i0] -= 2 * sig2h / fd_h**2
        quad_allow = 0.0
        if jumps.rate > 0:
            W, w_const = _interp_weights(x + z, nodes, C)
            c += jumps.rate * (mass @ W)
            const += jumps.rate * float(mass @ w_const)
            c[i0] -= jumps.rate * float(mass.sum())
            interp_err = float(np.max(np.abs(np.diff(means, 2)))) / 8.0
            far = cost.growth_k1 + cost.growth_k2 * (
                abs(x) + moment_scale + abs(z).max()
            ) ** cost.growth_degree
            quad_allow = jumps.rate * (tail_mass * (far / q + abs(float(means[i0]))) + interp_err)

        r_paths = Y @ c + const
        res_mean, res_se = float(r_paths.mean()), _se(r_paths)

        v_abs = abs(float(means[i0]))
        f_abs = abs(float(cost.f(x)))
        fp_abs = abs(float(cost.f_prime_plus(x)))
        d4 = abs(float(means[ip2] - 4 * means[ip1] + 6 * means[i0] - 4 * means[im1] + means[im2]))
        d3 = abs(float(means[ip2] - 2 * means[ip1] + 2 * means[im1] - means[im2])) / 2.0
        fd_allow = sig2h * d4 / (12 * fd_h**2) + abs(d) * d3 / (6 * fd_h)
        dt_allow = 2.0 * cfg.dt * (q * v_abs + f_abs + fp_abs * drift_scale)
        tail_allow = 2.0 * tail / q * (
            cost.growth_k1 + cost.growth_k2 * (abs(x) + moment_scale) ** cost.growth_degree
        ) * (1.0 + q)
        kink_allow = 0.0
        if abs(x - b_star) < 2.5 * fd_h:
            d2_here = float(means[ip1] - 2 * means[i0] + means[im1])
            kink_allow = (sig2h / fd_h**2 + abs(d) / (2 * fd_h)) * abs(d2_here) * 2.0
        floor = 1e-9 * (1.0 + v_abs + f_abs)
        tol = 3.0 * res_se + fd_allow + dt_allow + tail_allow + quad_allow + kink_allow + floor

        slope_paths = (Y[:, ip1] - Y[:, im1]) / (2 * fd_h)
        slope_mean, slope_se = float(slope_paths.mean()), _se(slope_paths)
        slope_tol = (
            3.0 * slope_se
            + d3 / (6 * fd_h)
            + 2.0 * cfg.dt * fp_abs
            + tail_allow * q
            + kink_allow * fd_h
            + 1e-9 * (1.0 + abs(C))
        )
        slope_resid = slope_mean + C

        above = x >= b_star
        res_ok = abs(res_mean) <= tol if above else res_mean >= -tol
        slope_ok = slope_resid >= -slope_tol and (above or abs(slope_resid) <= slope_tol)
        details.append({
            "x": float(x), "side": "active" if above else "reflecting", "residual": res_mean,
            "tolerance": tol, "se": res_se, "slope_plus_C": slope_resid,
            "slope_tolerance": slope_tol, "passed": bool(res_ok and slope_ok),
        })
        worst = max(worst, abs(res_mean) - tol if above else -res_mean - tol)
    passed = all(r["passed"] for r in details)
    yield CheckReport("hjb", float(worst), 0.0, passed, details, one_sided=True)
