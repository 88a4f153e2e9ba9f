"""Optimal barrier computation by sample-average bisection on rho(b) + C.

The solver fixes ONE common-random-number batch of paths reflected at 0 and,
in one streamed pass, compresses its discounted occupation of U^0 into a
fine histogram per fixed path batch: since rho-hat(b) only reads the batch
through f'_+(U + b) integrated against fixed weights, binning U to width h
shifts the fitted root by at most h/2 (the nondecreasing rho-hat curves for
the binned and unbinned batches sandwich each other within a horizontal h/2
shift).  The bin width is kept at a quarter of the bisection tolerance, so
the bisection runs on the pooled histogram, a deterministic, exactly
nondecreasing g(b) = rho-hat(b) + C at negligible cost per evaluation.
Statistical error enters only through the confidence half-width, from the
batch-means stderr of rho-hat(b*): the sample standard deviation of the
per-batch rho-hat(b*) over sqrt(B), B = 64 batches (63 degrees of freedom).

Driftless compound Poisson models are handled by re-solving under the
drift-perturbed processes X_t - eps*t for a decreasing grid of eps and
reporting the smallest-eps barrier.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .cost_model import ProblemSpec
from .errors import AssumptionViolated, NoSignChange, NonFiniteSample
from .estimators import EstimateWithError, _finish, _value_pass
from .levy_model import LevyTriplet, classify, exp_moment_check
from .path_engine import (
    SimConfig,
    _antithetic_active,
    _grid_sum,
    integral_weights,
    map_reduce_paths,
    reflect_arrays,
)

__all__ = [
    "BarrierResult",
    "PerturbedBarrierResult",
    "solve_barrier",
    "solve_barrier_perturbed",
    "barrier_sweep",
]

BRACKET_LIMIT = 1e6
FLAT_SLOPE_EPS = 1e-12


@dataclass(frozen=True)
class BarrierResult:
    """Root of rho-hat(b) + C = 0 on a fixed CRN batch, with certificates.

    bracket holds the final (lo, hi) with rho-hat(lo)+C < 0 <= rho-hat(hi)+C
    on the same batch; ci_halfwidth is the batch-means stderr of rho at the
    root divided by a local slope estimate (inf and flagged when the slope is
    numerically flat, e.g. at a kink plateau of f').
    """

    b_star: float
    bracket: tuple[float, float]
    rho_at_b_star: EstimateWithError
    iterations: int
    ci_halfwidth: float
    slope: float
    flat_slope: bool
    discounted_u0: EstimateWithError

    def to_record(self) -> dict:
        return {
            "b_star": self.b_star,
            "bracket": list(self.bracket),
            "iterations": self.iterations,
            "ci_halfwidth": self.ci_halfwidth,
            "slope": self.slope,
            "flat_slope": self.flat_slope,
            "rho_at_b_star": {
                "mean": self.rho_at_b_star.mean,
                "stderr": self.rho_at_b_star.stderr,
                "n": self.rho_at_b_star.n,
                "fingerprint": self.rho_at_b_star.fingerprint,
            },
        }


@dataclass(frozen=True)
class PerturbedBarrierResult:
    """Barrier sequence under X_t - eps*t with the smallest-eps estimate."""

    levels: tuple[tuple[float, BarrierResult], ...]
    b_star: float
    monotone_trend: bool

    def to_record(self) -> dict:
        return {
            "b_star": self.b_star,
            "monotone_trend": self.monotone_trend,
            "eps_sequence": [[eps, res.to_record()] for eps, res in self.levels],
        }


# ---------------------------------------------------------------------------
# chunk reducer: occupation histogram + per-path statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _SolverCtx:
    bin_width: float
    w: np.ndarray


def _solver_chunk(values, ctx: _SolverCtx):
    u, _, _ = reflect_arrays(values, 0.0)
    bins = np.rint(u / ctx.bin_width).astype(np.int64)
    weights = np.broadcast_to(ctx.w, u.shape).ravel()
    return {
        "acc_hist": np.bincount(bins.ravel(), weights=weights),
        "acc_paths": np.array([float(values.shape[0])]),
        "pp_udisc": _grid_sum(u, ctx.w),
    }


class _HistogramRho:
    """rho-hat(b) from the binned occupation of the CRN batch (``__call__``,
    rows pooled in batch order) and of each path batch (``batch_means``)."""

    def __init__(self, hist: np.ndarray, batch_paths: np.ndarray, bin_width: float, f_prime):
        self.centers = np.arange(hist.shape[-1]) * bin_width
        self.hist = hist
        self.pooled = np.sum(hist, axis=0)
        self.batch_paths = batch_paths
        self.n_paths = float(batch_paths.sum())
        self.f_prime = f_prime

    def _f_prime_at(self, b: float) -> np.ndarray:
        vals = np.asarray(self.f_prime(self.centers + b), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteSample("f'_+ evaluated non-finite on the occupation support")
        return vals

    def __call__(self, b: float) -> float:
        return float(self._f_prime_at(b) @ self.pooled) / self.n_paths

    def batch_means(self, b: float) -> np.ndarray:
        # row sums (unlike a matvec) give equal rows equal means
        vals = self._f_prime_at(b)
        return np.array([(row * vals).sum() for row in self.hist]) / self.batch_paths


def _expand_bracket(g: Callable, limit: float = BRACKET_LIMIT):
    """Geometric expansion from 0 with steps 1, 2, 4, ... to a sign change."""
    down = g(0.0) >= 0.0  # then the root lies below 0
    near, step = 0.0, 1.0
    while True:
        far = -step if down else step
        if (g(far) < 0.0) == down:
            return (far, near) if down else (near, far)
        near, step = far, step * 2.0
        if step > limit:
            side = "down to b = -" if down else "up to b = "
            raise NoSignChange(f"no sign change of rho+C {side}{limit:g}")


def _bisect(g: Callable, lo: float, hi: float, bisect_tol: float | None):
    """Bisection keeping g(lo) < 0 <= g(hi); relative default tolerance."""
    iterations = 0
    while True:
        mid = 0.5 * (lo + hi)
        tol = bisect_tol if bisect_tol is not None else 1e-3 * (1.0 + abs(mid))
        if hi - lo <= tol:
            return mid, lo, hi, iterations
        if g(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        iterations += 1


def solve_barrier(
    triplet: LevyTriplet,
    problem: ProblemSpec,
    cfg: SimConfig,
    bisect_tol: float | None = None,
    n_workers: int = 1,
) -> BarrierResult:
    """Compute b* = inf{b : rho(b) + C >= 0} by bracketing and bisection.

    Requires the admissibility condition f'_+(-inf) < -C q < f'_+(inf), a
    model that is not driftless compound Poisson (those go through
    ``solve_barrier_perturbed``) and a finite E[exp(theta_bar |J|)]
    (``exp_moment_check``).  One streamed pass bins the occupation of
    U^0 per fixed path batch; the bisection runs on the pooled histogram,
    and the stderr of rho-hat(b*) is the batch-means one (up to 64 batches,
    so 63 degrees of freedom).  If ``bisect_tol`` is omitted the bisection
    stops at a relative width 1e-3 * (1 + |b|).
    """
    problem.require_admissible()
    if triplet.is_driftless_cp():
        raise AssumptionViolated(
            "driftless compound Poisson model: use solve_barrier_perturbed"
        )
    if not exp_moment_check(triplet):
        raise AssumptionViolated(
            f"theta_bar = {triplet.exp_moment_theta:g} is not below the jump law's "
            f"exponential tail rate {triplet.jumps.exp_tail_rate():g}, so "
            "E[exp(theta_bar |J|)] is infinite"
        )
    if bisect_tol is not None and bisect_tol <= 0:
        raise ValueError("bisect_tol must be positive")
    cfg.validate_for(problem.q)
    anti = _antithetic_active(triplet, cfg)
    tol_floor = bisect_tol if bisect_tol is not None else 1e-3
    bin_width = min(1e-3, tol_floor) / 4.0

    ctx = _SolverCtx(bin_width=bin_width, w=integral_weights(problem.q, cfg.dt, cfg.n_steps + 1))
    out = map_reduce_paths(triplet, 0.0, cfg, _solver_chunk, ctx, n_workers=n_workers)
    rho_hat = _HistogramRho(
        out["acc_hist"], out["acc_paths"][:, 0], bin_width, problem.cost.f_prime_plus
    )
    g = lambda b: rho_hat(b) + problem.C
    lo0, hi0 = _expand_bracket(g)
    b_star, lo, hi, iterations = _bisect(g, lo0, hi0, bisect_tol=bisect_tol)

    # batches hold whole antithetic pairs, so their means are not paired again;
    # a deterministic model's batches copy one path, so their means are equal
    # (its rows are scaled by unequal batch sizes, which a division rounds)
    means = (np.full(len(rho_hat.batch_paths), rho_hat(b_star)) if triplet.is_deterministic
             else rho_hat.batch_means(b_star))
    rho_est = _finish("rho_at_b_star", means, False, triplet, problem, cfg, b=b_star, solver="histogram")
    # statistical half-width: stderr of rho near the root over a local slope
    tol_eff = bisect_tol if bisect_tol is not None else 1e-3 * (1.0 + abs(b_star))
    delta = 10.0 * tol_eff
    slope = (rho_hat(b_star + delta) - rho_hat(b_star - delta)) / (2 * delta)
    flat = slope < FLAT_SLOPE_EPS
    if flat:
        warnings.warn(
            "rho is numerically flat near the fitted barrier (kink plateau of f'); "
            "the confidence half-width is unbounded",
            stacklevel=2,
        )
    ci = math.inf if flat else rho_est.stderr / slope
    # rho mean at the root as the bisection saw it (pooled binned batch mean)
    rho_est = replace(rho_est, mean=rho_hat(b_star), n=cfg.n_paths)
    u0_est = _finish("discounted_u0", out["pp_udisc"], anti, triplet, problem, cfg)
    return BarrierResult(
        b_star=b_star,
        bracket=(lo, hi),
        rho_at_b_star=rho_est,
        iterations=iterations,
        ci_halfwidth=ci,
        slope=slope,
        flat_slope=flat,
        discounted_u0=u0_est,
    )


def solve_barrier_perturbed(
    triplet: LevyTriplet,
    problem: ProblemSpec,
    cfg: SimConfig,
    eps_grid=(0.2, 0.1, 0.05, 0.025),
    bisect_tol: float | None = None,
    n_workers: int = 1,
) -> PerturbedBarrierResult:
    """Barrier for a driftless compound Poisson model via vanishing drifts.

    Solves for X_t - eps*t over a decreasing eps grid (same seeds, so the
    levels are common-random-number coupled) and reports the smallest-eps
    barrier; the sequence decreases toward the limit as eps shrinks, which
    is surfaced as a diagnostic rather than extrapolated.
    """
    if not classify(triplet).driftless_compound_poisson:
        raise AssumptionViolated("solve_barrier_perturbed expects a driftless compound Poisson model")
    eps_grid = [float(e) for e in eps_grid]
    if not eps_grid or any(e <= 0 for e in eps_grid):
        raise ValueError("eps_grid must contain positive values")
    if any(e2 >= e1 for e1, e2 in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps_grid must be strictly decreasing")
    levels = []
    for eps in eps_grid:
        res = solve_barrier(
            triplet.with_drift_added(-eps), problem, cfg, bisect_tol=bisect_tol, n_workers=n_workers
        )
        levels.append((eps, res))
    bs = [res.b_star for _, res in levels]
    tol_eff = bisect_tol if bisect_tol is not None else 1e-3 * (1.0 + abs(bs[-1]))
    monotone = all(b1 >= b2 - 2 * tol_eff for b1, b2 in zip(bs, bs[1:]))
    return PerturbedBarrierResult(levels=tuple(levels), b_star=bs[-1], monotone_trend=monotone)


# ---------------------------------------------------------------------------
# barrier sweep of the value function
# ---------------------------------------------------------------------------


def barrier_sweep(
    triplet: LevyTriplet,
    problem: ProblemSpec,
    x: float,
    b_grid,
    cfg: SimConfig,
    n_workers: int = 1,
    return_samples: bool = False,
):
    """Evaluate v-hat_b(x) over a barrier grid on shared CRN paths.

    Returns a list of (b, EstimateWithError); with ``return_samples`` the
    per-path value matrix is returned as well so callers can form pathwise
    differences between barriers.
    """
    b_grid = [float(b) for b in b_grid]
    if any(b2 <= b1 for b1, b2 in zip(b_grid, b_grid[1:])):
        raise ValueError("b_grid must be sorted strictly increasing")
    cfg.validate_for(problem.q)
    anti = _antithetic_active(triplet, cfg)
    v, _ = _value_pass(triplet, problem, cfg, x, [(0.0, b) for b in b_grid], n_workers=n_workers)
    curve = [
        (b, _finish("sweep_value", v[:, k], anti, triplet, problem, cfg, b=b, x=x))
        for k, b in enumerate(b_grid)
    ]
    if return_samples:
        return curve, v
    return curve
