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
reporting the smallest-eps barrier.  Those paths are linear between jumps,
so their supremum at the exponential clock is sampled exactly, with no grid.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .cost_model import ProblemSpec
from .errors import AssumptionViolated, NoSignChange, NonFiniteSample
from .estimators import EstimateWithError, _finish, _outside_stacklevel, _rho_grid, _value_pass
from .levy_model import LevyTriplet, exp_moment_check
from .path_engine import (
    BATCHES,
    HISTOGRAM_FLOATS,
    SimConfig,
    _antithetic_active,
    _batch_path_counts,
    _chunk_plan,
    _grid_sum,
    _reflected_at_zero,
    clock_skeleton,
    clock_suprema,
    integral_weights,
    map_reduce_paths,
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
            "rho_at_b_star": asdict(self.rho_at_b_star),
            "discounted_u0": {"mean": self.discounted_u0.mean, "stderr": self.discounted_u0.stderr},
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


def _solver_chunk(values, *, bin_width, w):
    u = _reflected_at_zero(values)
    udisc = _grid_sum(u, w)
    if u.max() / bin_width * BATCHES > HISTOGRAM_FLOATS:
        raise ValueError(f"bisect_tol too small: {u.max() / bin_width:.3g} bins per batch exceed the "
                         f"{HISTOGRAM_FLOATS}-float histogram budget over {BATCHES} batches")
    bins = np.rint(np.divide(u, bin_width, out=u), out=u).astype(np.int64)
    u[:] = w  # the spent buffer holds the bin weights: no chunk-sized copy
    return {
        "acc_hist": np.bincount(bins.ravel(), weights=u.ravel()),
        "pp_udisc": udisc,
    }


class _WeightedRho:
    """rho-hat(b) = sum_j w_j f'_+(x_j + b) / n, pooled and per batch (``batch_means``), over
    points shared by every batch row of ``weights`` (histogram bin centres, their weights
    pooled once in batch order) or over one zero-weight-padded row of samples per batch."""

    def __init__(self, points: np.ndarray, weights: np.ndarray, batch_paths: np.ndarray, f_prime):
        self.points = points
        self.weights = weights
        self.pooled = weights if points.ndim == 2 else np.sum(weights, axis=0)[None]
        self.batch_paths = batch_paths
        self.n_paths = float(batch_paths.sum())
        self.f_prime = f_prime

    def _f_prime_at(self, b: float) -> np.ndarray:
        vals = np.asarray(self.f_prime(self.points + b), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteSample("f'_+ evaluated non-finite on the occupation support")
        return vals

    @staticmethod
    def _row_sums(vals: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # fixed-order row sums (a BLAS dot is threaded); unlike a matvec, equal rows get equal means
        return np.array([(row * v).sum() for row, v in zip(rows, np.broadcast_to(vals, rows.shape))])

    def __call__(self, b: float) -> float:
        return float(self._row_sums(self._f_prime_at(b), self.pooled).sum()) / self.n_paths

    def batch_means(self, b: float) -> np.ndarray:
        return self._row_sums(self._f_prime_at(b), self.weights) / self.batch_paths


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


def _tol(bisect_tol: float | None, b: float) -> float:
    """The bisection tolerance at b: ``bisect_tol``, or the relative 1e-3 * (1 + |b|) if omitted."""
    return bisect_tol if bisect_tol is not None else 1e-3 * (1.0 + abs(b))


def _bisect(g: Callable, lo: float, hi: float, bisect_tol: float | None):
    """Bisection keeping g(lo) < 0 <= g(hi) down to the tolerance (relative by default) or adjacent floats."""
    iterations = 0
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= _tol(bisect_tol, mid) or not lo < mid < hi:
            return mid, lo, hi, iterations
        if g(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        iterations += 1


def _require_moments_and_tol(triplet: LevyTriplet, bisect_tol: float | None) -> None:
    if not exp_moment_check(triplet):
        raise AssumptionViolated(
            f"theta_bar = {triplet.exp_moment_theta:g} is not below the jump law's "
            f"exponential tail rate {triplet.jumps.exp_tail_rate():g}, so "
            "E[exp(theta_bar |J|)] is infinite"
        )
    if bisect_tol is not None and bisect_tol <= 0:
        raise ValueError("bisect_tol must be positive")


def _root_of(rho_hat: _WeightedRho, udisc, triplet, problem, cfg, bisect_tol, solver: str) -> BarrierResult:
    """b* of rho-hat + C, its batch-means CI, and discounted_u0 from its per-path samples ``udisc``."""
    g = lambda b: rho_hat(b) + problem.C
    lo0, hi0 = _expand_bracket(g)
    b_star, lo, hi, iterations = _bisect(g, lo0, hi0, bisect_tol=bisect_tol)

    # batches hold whole antithetic pairs, so their means are not paired again;
    # a deterministic model's batches copy one path, so their means are equal
    # (its rows are scaled by unequal batch sizes, which a division rounds)
    means = (np.full(len(rho_hat.batch_paths), rho_hat(b_star)) if triplet.is_deterministic
             else rho_hat.batch_means(b_star))
    rho_est = _finish("rho_at_b_star", means, False, triplet, problem, cfg, b=b_star, solver=solver)
    # statistical half-width: stderr of rho near the root over a local slope
    delta = 10.0 * _tol(bisect_tol, b_star)
    slope = (rho_hat(b_star + delta) - rho_hat(b_star - delta)) / (2 * delta)
    flat = slope < FLAT_SLOPE_EPS
    if flat:
        warnings.warn(
            "rho is numerically flat near the fitted barrier (kink plateau of f'); "
            "the confidence half-width is unbounded",
            stacklevel=_outside_stacklevel(),
        )
    ci = math.inf if flat else rho_est.stderr / slope
    # rho mean at the root as the bisection saw it (pooled batch mean)
    rho_est = replace(rho_est, mean=rho_hat(b_star), n=cfg.n_paths)
    u0_est = _finish("discounted_u0", udisc, _antithetic_active(triplet, cfg), triplet, problem, cfg)
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
    _require_moments_and_tol(triplet, bisect_tol)
    cfg.validate_for(problem.q)
    bin_width = min(1e-3, _tol(bisect_tol, 0.0)) / 4.0  # at b = 0 the relative rule is its floor

    reducer = functools.partial(_solver_chunk, bin_width=bin_width,
                                w=integral_weights(problem.q, cfg.dt, cfg.n_steps + 1))
    [out] = map_reduce_paths(triplet, cfg, [reducer], n_workers=n_workers)
    rho_hat = _WeightedRho(np.arange(out["acc_hist"].shape[-1]) * bin_width, out["acc_hist"],
                           _batch_path_counts(cfg.n_paths, _antithetic_active(triplet, cfg)),
                           problem.cost.f_prime_plus)
    return _root_of(rho_hat, out["pp_udisc"], triplet, problem, cfg, bisect_tol, "histogram")


def _batch_rows(x: np.ndarray, plan) -> np.ndarray:
    """The per-path rows of ``x`` as one zero-padded row per batch of ``plan``."""
    rows = [np.concatenate([x[lo:hi].ravel() for lo, hi, h in plan if h == g]) for g in range(plan[-1][2] + 1)]
    width = max(map(len, rows))
    return np.stack([np.pad(r, (0, width - len(r))) for r in rows])


def solve_barrier_perturbed(
    triplet: LevyTriplet,
    problem: ProblemSpec,
    cfg: SimConfig,
    eps_grid=(0.2, 0.1, 0.05, 0.025),
    bisect_tol: float | None = None,
) -> PerturbedBarrierResult:
    """Barrier for a driftless compound Poisson model via vanishing drifts.

    Solves for X_t - eps*t over a decreasing eps grid and reports the
    smallest-eps barrier; the sequence decreases toward the limit as eps
    shrinks, which is surfaced as a diagnostic rather than extrapolated.
    No grid is simulated: each path draws its jumps up to the exponential clock
    once (``clock_skeleton``), and every level reads its exact suprema S_k off
    them (``clock_suprema``): the levels are coupled exactly, ``cfg.dt`` does not
    enter, and rho-hat(b) = sum_k pi_k f'_+(S_k + b) / (q n).
    """
    if not triplet.is_driftless_cp():
        raise AssumptionViolated("solve_barrier_perturbed expects a driftless compound Poisson model")
    eps_grid = [float(e) for e in eps_grid]
    if not eps_grid or any(e <= 0 for e in eps_grid):
        raise ValueError("eps_grid must contain positive values")
    if any(e2 >= e1 for e1, e2 in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps_grid must be strictly decreasing")
    problem.require_admissible()
    _require_moments_and_tol(triplet, bisect_tol)
    anti = _antithetic_active(triplet, cfg, warn=True)
    pi, gaps, sizes = clock_skeleton(triplet, cfg, problem.q, anti=anti)
    w = pi / problem.q
    plan = _chunk_plan(cfg.n_paths, 1, anti, cfg.n_paths)
    weights = _batch_rows(np.broadcast_to(w, gaps.shape), plan)
    batch_paths = _batch_path_counts(cfg.n_paths, anti)
    levels = []
    for eps in eps_grid:
        level = triplet.with_drift_added(-eps)
        sup = clock_suprema(gaps, sizes, level.effective_drift)
        rho_hat = _WeightedRho(_batch_rows(sup, plan), weights, batch_paths, problem.cost.f_prime_plus)
        levels.append((eps, _root_of(rho_hat, (sup * w).sum(axis=1), level, problem, cfg, bisect_tol,
                                     "clock_skeleton")))
    bs = [res.b_star for _, res in levels]
    monotone = all(b1 >= b2 - 2 * _tol(bisect_tol, bs[-1]) for b1, b2 in zip(bs, bs[1:]))
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
):
    """Evaluate v-hat_b(x) over a barrier grid on shared CRN paths.

    Returns a list of (b, EstimateWithError).
    """
    b_grid = _rho_grid(b_grid)
    cfg.validate_for(problem.q)
    anti = _antithetic_active(triplet, cfg)
    v, _ = _value_pass(triplet, problem, cfg, [(x, b) for b in b_grid], n_workers=n_workers)
    return [
        (b, _finish("sweep_value", v[:, k], anti, triplet, problem, cfg, b=b, x=x))
        for k, b in enumerate(b_grid)
    ]
