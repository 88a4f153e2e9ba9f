"""Numerical verification of the structural identities behind the solver.

Each check compares a Monte Carlo finite difference or functional against
the identity it should satisfy and reports a CheckReport.  All checks run
on common-random-number batches: differences of estimates are formed per
path before averaging, so the reported stderr is the propagated pathwise
one, far below the independent-run value.  Check statistics pair
antithetic halves first, as every estimate does (``estimators._moments``).
Tolerances are assembled per point from (a) the propagated Monte Carlo
stderr, (b) finite-difference curvature allowances estimated from
higher-order differences of the node values, (c) quadrature and
interpolation bounds for the jump integral, and (d) explicit time-step and
horizon-truncation allowances so that zero-variance (deterministic-path)
models are budgeted honestly too.

``run_checks`` reads several checks off ONE grid pass of the paths from 0
(``estimators._grid_pass``, which checks the horizon): a path started at x
is the path from 0 plus x bit for bit, so each start is an offset.  A
stochastic model with fewer than two independent samples (paths, or
antithetic pairs) is refused before any pass, since no check's stderr
rests on one (``_require_samples``; the CLI asks it, and its own rules for
the checks' arguments, before its solve).  A check
validates its arguments, yields an ``_Ask`` of what it reads off the pass,
is sent the ``_Pass`` and yields its report; each public ``check_*`` is
``run_checks`` with that one check.
What several checks ask is computed once: ONE ``value_chunk`` reducer reads
every value, first passage, stopped value and rho-hat column, and the
martingale check evaluates its interpolant at the stopped values after the
pass.  The pass reflects each asked barrier b once, as (b, b), and reads
every start x off it at the first passage of x + X below b (``_Pass``); a
start below b is pushed to b at once (R_0 = b - x).  Only the martingale
check's node values (an independent seed) run a pass of their own; the
checks at the barrier take b_star as given and never solve for it.

Checks are advisory: they return reports, they do not raise on failure.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, replace

import numpy as np

from .cost_model import ProblemSpec
from .estimators import _finite, _grid_pass, _moments, _rho_curve, _rho_grid, _value_pass
from .levy_model import LevyTriplet
from .path_engine import SimConfig, _antithetic_active, discount_factors

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


def _drift_scale(triplet: LevyTriplet) -> float:
    return abs(triplet.effective_drift) + triplet.sigma + triplet.jumps.rate * triplet.jumps.mean_abs_size()


# ---------------------------------------------------------------------------
# the shared pass
# ---------------------------------------------------------------------------


def _hat(y, nodes, C):
    """The value interpolant at y in hat form (idx, t, const), the value being
    (1 - t) v[idx] + t v[idx + 1] + const for node values v: linear between the
    nodes, the last segment continued above them (idx is clipped to it, so
    t > 1), and slope -C below them (t = 0, const = C (nodes[0] - y)).
    """
    y = np.asarray(y, dtype=float)
    idx = np.clip(np.searchsorted(nodes, y, side="right") - 1, 0, nodes.size - 2)
    below = y < nodes[0]
    t = np.where(below, 0.0, (y - nodes[idx]) / (nodes[idx + 1] - nodes[idx]))
    return idx, t, np.where(below, C * (nodes[0] - y), 0.0)


def _hat_weights(y, nodes, C):
    """``_hat`` scattered into rows: the value at y[k] is W[k] @ v + const[k]."""
    idx, t, const = _hat(y, nodes, C)
    rows = np.arange(idx.size)
    W = np.zeros((idx.size, nodes.size))
    W[rows, idx] = 1.0 - t
    W[rows, idx + 1] = t
    return W, const


@dataclass(frozen=True)
class _Ask:
    """What one check reads off the shared pass of the paths from 0."""

    pairs: tuple = ()       # (start offset, barrier) value samples
    passages: tuple = ()    # (start offset, level) first passages
    f_prime: bool = False   # with the integrals of f'_+ up to them
    rho: tuple = ()         # barriers of time-integral rho-hat
    stops: tuple = ()       # (start offset, level, grid indices) stopped values


class _Pass:
    """The one streamed pass from 0 answering every ``_Ask``.

    ``value_chunk`` reflects each asked barrier b once, as the pair (b, b),
    and reads every asked start o off it at the first passage of o + X below
    b (its ``reads``): the path is unreflected before then and the (b, b)
    path from then on, so a start at or below b is the (b, b) path pushed up
    by b - o at once.  Each value is running + C * control of that read, a
    few ulp from a reflection of (o, b) itself (``estimate_value`` still
    reflects it).
    """

    def __init__(self, triplet, problem, cfg, asks, n_workers):
        self.pairs = list(dict.fromkeys(p for a in asks for p in a.pairs))
        self.passages = list(dict.fromkeys(p for a in asks for p in a.passages))
        self.stops = list(dict.fromkeys(s for a in asks for s in a.stops))
        rho_b = _rho_grid(sorted({b for a in asks for b in a.rho}))
        f_prime = problem.cost.f_prime_plus if rho_b or any(a.f_prime for a in asks) else None
        value, self.antithetic = _grid_pass(triplet, problem, cfg, n_workers, reads=tuple(self.pairs),
                                            passages=tuple(self.passages), f_prime=f_prime, rho=rho_b,
                                            stops=tuple(self.stops))
        if self.pairs:
            self.v = value["pp_read_running"] + problem.C * value["pp_read_control"]
        self.tau_disc, self.fprime_to_tau = value.get("pp_tau_disc"), value.get("pp_fprime_to_tau")
        if rho_b:
            self.rho = dict(_rho_curve(value["pp_y"], rho_b, "time_integral", self.antithetic,
                                       triplet, problem, cfg))
        self.stopped_columns = [value.get(f"pp_stop_{k}") for k in ("at", "value", "integral")]

    def stat(self, samples, kind: str) -> tuple[float, float]:
        """(mean, stderr) of per-path samples, refused if not finite, with
        antithetic halves paired as every estimate pairs them (``_finish``)."""
        return _moments(_finite(kind, samples), self.antithetic)[:2]

    def values(self, pairs) -> np.ndarray:
        """Per-path values (n, pairs) of the paths started at each offset, reflected
        at its barrier; C-ordered, which fixes how a matvec (``check_hjb``) sums."""
        return np.take(self.v, [self.pairs.index(p) for p in pairs], axis=1)

    def passage(self, o, level, f_prime=False) -> np.ndarray:
        """e^{-q tau} per path, or with ``f_prime`` the integral of f'_+ up to tau."""
        return (self.fprime_to_tau if f_prime else self.tau_disc)[:, self.passages.index((o, level))]

    def stopped(self, stop):
        """(j, value at j, left-rule integral of f up to j) per path and grid index t_k of
        ``stop`` = (o, level, t indices): the path values + o stopped at j = min(tau, t_k)."""
        lo = sum(len(times) for *_, times in self.stops[: self.stops.index(stop)])
        return [col[:, lo:lo + len(stop[2])] for col in self.stopped_columns]


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


def _require_samples(triplet: LevyTriplet, cfg: SimConfig) -> None:
    """Refuse a stochastic model with fewer than two independent samples (paths, or antithetic
    pairs): no check's standard error rests on one."""
    samples = cfg.n_paths // 2 if _antithetic_active(triplet, cfg) else cfg.n_paths
    if samples < 2 and not triplet.is_deterministic:
        raise ValueError(f"n_paths = {cfg.n_paths} gives {samples} independent sample (a path, or an "
                         "antithetic pair); a check's standard error needs at least two")


def _convexity_grid(x_grid) -> np.ndarray:
    """``x_grid`` as floats, refused unless it holds at least 5 points uniformly spaced increasing."""
    x_grid = np.asarray([float(v) for v in x_grid])
    if x_grid.size < 5:
        raise ValueError("x_grid needs at least 5 points")
    steps = np.diff(x_grid)
    if np.any(steps <= 0) or np.any(np.abs(steps - steps[0]) > 1e-9 * (1 + steps[0])):
        raise ValueError("x_grid must be uniformly spaced increasing")
    return x_grid


def _run(plans, triplet, problem, cfg, n_workers) -> list[CheckReport]:
    if not plans:
        return []
    _require_samples(triplet, cfg)  # before any pass
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


def _bundle(p: _Pass, bundle, h):
    """Values of a three-point CRN bundle and its curvature allowance: a
    forward difference is biased by h/2 * v'' + O(h^2); budget a full h * v''."""
    v = p.values(bundle)
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
    if not h > 0:  # a zero h divides by zero, a negative one makes the curvature allowance negative
        raise ValueError("h must be positive")
    bundle = [(x, b - h), (x, b), (x, b + h)]
    p = yield _Ask(pairs=bundle, passages=[(x, b)], rho=[b])
    v, allowance = _bundle(p, bundle, h)
    lhs, se_lhs = p.stat((v[:, 2] - v[:, 1]) / h, "barrier_derivative")
    tau_mean, se_tau = p.stat(p.passage(x, b), "barrier_derivative")
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
    if not h > 0:
        raise ValueError("h must be positive")
    bundle = [(x, b), (x + h, b), (x + 2 * h, b)]
    p = yield _Ask(pairs=bundle, passages=[(x, b)], f_prime=True)
    v, allowance = _bundle(p, bundle, h)
    rhs_p = p.passage(x, b, f_prime=True) - problem.C * p.passage(x, b)
    statistic, se = p.stat((v[:, 1] - v[:, 0]) / h - rhs_p, "slope_identity")
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
    b_star: float,
    n_workers: int = 1,
):
    """Second differences of x -> v_{b*}(x) on CRN-coupled starts are >= 0
    up to three propagated standard errors at every interior grid point."""
    problem.require_admissible()
    x_grid = _convexity_grid(x_grid)
    bundle = [(x, b_star) for x in x_grid]
    p = yield _Ask(pairs=bundle)
    v = p.values(bundle)
    details = []
    worst = -math.inf
    for j in range(1, x_grid.size - 1):
        mean, se = p.stat(v[:, j + 1] - 2 * v[:, j] + v[:, j - 1], "convexity")
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
    b_star: float,
    n_workers: int = 1,
):
    """Constancy in t of E_x[e^{-q(tau and t)} v(X) + int_0^{tau and t} e^{-qs} f(X_s) ds].

    The value function enters through a piecewise-linear interpolant whose
    nodes are estimated on an independent CRN batch (derived seed, so a
    pass of its own); below the node range the exact linear continuation
    with slope -C is used.
    """
    if x <= b_star:
        raise ValueError("martingale check needs a start strictly above the barrier")
    if any(t < 0 for t in t_grid):  # a negative grid index would wrap to the end of the grid
        raise ValueError("t_grid holds a negative time")
    t_indices = tuple(sorted({0} | {int(round(t / cfg.dt)) for t in t_grid}))
    if max(t_indices) > cfg.n_steps:
        raise ValueError("t_grid exceeds the simulation horizon")
    span = 3.0 * _drift_scale(triplet) / problem.q + 3.0 * triplet.sigma / math.sqrt(problem.q)
    node_grid = np.linspace(b_star - 2.0, x + span, 41)
    node_cfg = replace(cfg, master_seed=cfg.master_seed + 1)
    node_v, _ = _value_pass(triplet, problem, node_cfg, [(o, b_star) for o in node_grid], n_workers=n_workers)
    node_means = node_v.mean(axis=0)

    stop = (x, b_star, t_indices)
    p = yield _Ask(stops=[stop])
    # e^{-q j} v(X_j) + int_0^j e^{-qs} f(X_s) ds at j = min(tau, t_k), per path and t_k
    j, y, integral = p.stopped(stop)
    idx, t, const = _hat(y, node_grid, problem.C)
    disc = discount_factors(problem.q, cfg.dt, cfg.n_steps + 1)
    m = disc[j] * ((1.0 - t) * node_means[idx] + t * node_means[idx + 1] + const) + integral
    node_se = max(p.stat(col, "martingale")[1] for col in node_v.T)
    interp_allow = 3.0 * node_se + float(np.max(np.abs(np.diff(node_means, 2))) / 8.0)
    m0 = float(m[:, 0].mean())
    details = []
    statistic = tolerance = 0.0
    for k, t_idx in enumerate(t_indices):
        drift_term = float(m[:, k].mean()) - m0
        se = p.stat(m[:, k] - m[:, 0], "martingale")[1]
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


@_check
def check_hjb(
    triplet: LevyTriplet,
    problem: ProblemSpec,
    cfg: SimConfig,
    x_grid,
    fd_h: float,
    b_star: float,
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
    if fd_h <= 0:
        raise ValueError("fd_h must be positive")
    x_grid = np.asarray([float(v) for v in x_grid])
    jumps = triplet.jumps
    d = triplet.effective_drift
    sig2h = 0.5 * triplet.sigma**2
    q, C, cost = problem.q, problem.C, problem.cost

    # node set: five-point stencils around every check point, plus coarser
    # padding nodes so jump displacements stay on the interpolant
    stencil = np.concatenate([x_grid + k * fd_h for k in (-2, -1, 0, 1, 2)])
    nodes = stencil
    if jumps.rate > 0:
        z, mass, tail_mass = jumps.quadrature()
        lo_pad = x_grid.min() + min(z.min(), 0.0) - fd_h
        hi_pad = x_grid.max() + max(z.max(), 0.0) + fd_h
        pad_step = max(fd_h, (hi_pad - lo_pad) / 96.0)
        nodes = np.concatenate([nodes, np.arange(lo_pad, hi_pad + pad_step, pad_step)])
    nodes = np.unique(np.round(nodes, 9))
    bundle = [(o, b_star) for o in nodes]
    p = yield _Ask(pairs=bundle)
    Y = p.values(bundle)
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
            W, w_const = _hat_weights(x + z, nodes, C)
            c += jumps.rate * (mass @ W)
            const += jumps.rate * float(mass @ w_const)
            c[i0] -= jumps.rate * float(mass.sum())
            interp_err = float(np.max(np.abs(np.diff(means, 2)))) / 8.0
            far = cost.growth_k1 + cost.growth_k2 * (
                abs(x) + moment_scale + abs(z).max()
            ) ** cost.growth_degree
            quad_allow = jumps.rate * (tail_mass * (far / q + abs(float(means[i0]))) + interp_err)

        res_mean, res_se = p.stat(Y @ c + const, "hjb")

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

        slope_mean, slope_se = p.stat((Y[:, ip1] - Y[:, im1]) / (2 * fd_h), "hjb")
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
