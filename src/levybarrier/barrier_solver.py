"""Optimal barrier computation by sample-average bisection on rho(b) + C.

The solver fixes ONE common-random-number batch of paths reflected at 0 and,
in one streamed grid pass (``estimators._grid_pass``), compresses its
discounted occupation of U^0 into a fine histogram per fixed path batch:
since rho-hat(b) only reads the batch through f'_+(U + b) integrated against
fixed weights, binning U to width h shifts the fitted root by at most h/2
(the nondecreasing rho-hat curves for the binned and unbinned batches
sandwich each other within a horizontal h/2 shift).  The bin width is kept
at a quarter of the bisection tolerance, so the bisection runs on the pooled
histogram, a deterministic, exactly nondecreasing g(b) = rho-hat(b) + C at
negligible cost per evaluation.  Statistical error enters only through the
confidence half-width, from the batch-means stderr of rho-hat(b*): the sample
standard deviation of the per-batch rho-hat(b*) over sqrt(B), B = 64 batches
(63 degrees of freedom).

Driftless compound Poisson models are handled by re-solving under the
drift-perturbed processes X_t - eps*t for a decreasing grid of eps and
reporting the smallest-eps barrier.  Those paths are linear between jumps,
so their supremum at the exponential clock is sampled exactly, with no grid;
there the batches are the R lattice replicates of the clock skeleton.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .cost_model import ProblemSpec
from .errors import AssumptionViolated, NoSignChange, NonFiniteSample
from .estimators import EstimateWithError, _finish, _grid_pass, _rho_grid, _value_pass
from .levy_model import LevyTriplet, exp_moment_check
from .path_engine import (
    SimConfig,
    _antithetic_active,
    _batch_path_counts,
    _outside_stacklevel,
    _replicate_rows,
    _row_blocks,
    clock_skeleton,
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


class _WeightedRho:
    """rho-hat(b) = sum_j w_j f'_+(x_j + b) / n, pooled and per batch (``batch_means``), over
    points shared by every batch row of ``weights`` (histogram bin centres, each merged row read
    in place at its own width, missing tail bins +0.0, and pooled once in batch order) or over one
    zero-weight-padded row of samples per batch (lattice replicate, ``path_engine._replicate_rows``)."""

    def __init__(self, points: np.ndarray, weights, batch_paths: np.ndarray, f_prime):
        self.points = points
        self.weights = weights
        if points.ndim == 2:
            self.pooled = weights
        elif len(points) == 1:  # equal rows, which np.sum stacks; it sums one column pairwise
            self.pooled = np.sum(weights, axis=0)[None]
        else:  # rows added in sequence, as np.sum(axis=0) adds stacked rows wider than one bin
            self.pooled = np.zeros((1, len(points)))
            for row in weights:
                self.pooled[0, : len(row)] += row
        self.batch_paths = batch_paths
        self.n_paths = float(batch_paths.sum())
        self.f_prime = f_prime

    def _f_prime_at(self, b: float) -> np.ndarray:
        vals = np.asarray(self.f_prime(self.points + b), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteSample("f'_+ evaluated non-finite on the occupation support")
        return vals

    @staticmethod
    def _row_sums(vals: np.ndarray, rows) -> np.ndarray:
        # fixed-order row sums (a BLAS dot is threaded); unlike a matvec, equal rows get equal means.
        # Each row is one pairwise sum over the full width, as row.sum() takes it; ``_row_blocks``
        # bound the product's size, and a list's narrower rows are zero-padded in one block buffer
        vals = np.broadcast_to(vals, (len(rows), vals.shape[-1]))
        blocks = _row_blocks(*vals.shape)
        if isinstance(rows, np.ndarray):
            return np.concatenate([(rows[s] * vals[s]).sum(axis=1) for s in blocks])
        buf, sums = np.empty((blocks[0].stop, vals.shape[1])), []
        for s in blocks:
            block = buf[: s.stop - s.start]
            for dst, row in zip(block, rows[s]):
                dst[: len(row)], dst[len(row):] = row, 0.0
            sums.append(np.multiply(block, vals[s], out=block).sum(axis=1))
        return np.concatenate(sums)

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


def _root_of(rho_hat: _WeightedRho, udisc, anti, triplet, problem, cfg, bisect_tol, solver: str) -> BarrierResult:
    """b* of rho-hat + C, its batch-means CI, and discounted_u0 from its per-path samples ``udisc``
    (antithetic halves paired when ``anti``, as the pass that drew them paired them)."""
    g = lambda b: rho_hat(b) + problem.C
    lo0, hi0 = _expand_bracket(g)
    b_star, lo, hi, iterations = _bisect(g, lo0, hi0, bisect_tol=bisect_tol)

    # batches hold whole antithetic pairs, so their means are not paired again;
    # a deterministic model's batches copy one path, so their means are equal
    # (its rows are scaled by unequal batch sizes, which a division rounds)
    means = (np.full(len(rho_hat.batch_paths), rho_hat(b_star)) if triplet.is_deterministic
             else rho_hat.batch_means(b_star))
    rho_est = _finish("rho_at_b_star", means, False, triplet, problem, cfg, b=b_star, solver=solver)
    # statistical half-width: stderr of rho near the root over a local slope, taken
    # over a step that a tolerance below the float spacing at b* cannot shrink to 0
    delta = max(10.0 * _tol(bisect_tol, b_star), 1e-8 * (1.0 + abs(b_star)))
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
    u0_est = _finish("discounted_u0", udisc, anti, triplet, problem, cfg, replicates=solver == "clock_skeleton")
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
    bin_width = min(1e-3, _tol(bisect_tol, 0.0)) / 4.0  # at b = 0 the relative rule is its floor
    out, anti = _grid_pass(triplet, problem, cfg, n_workers, hist=bin_width)
    rho_hat = _WeightedRho(np.arange(max(map(len, out["acc_hist"]))) * bin_width, out["acc_hist"],
                           _batch_path_counts(cfg.n_paths, anti), problem.cost.f_prime_plus)
    return _root_of(rho_hat, out["pp_udisc"], anti, triplet, problem, cfg, bisect_tol, "histogram")


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
    once (``clock_skeleton``), and every level reads its exact suprema S_k at its
    own drift off that one read: the levels are coupled exactly, ``cfg.dt`` does not
    enter, and rho-hat(b) = sum_k pi_k f'_+(S_k + b) / (q n), its stderr that of the
    lattice replicate means.
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
    read = clock_skeleton(triplet, cfg, problem.q, anti=anti)
    w = read.pi / problem.q
    weights = _replicate_rows(np.broadcast_to(w, read.sizes.shape), anti)  # zero on the padding rows
    batch_paths = _replicate_rows(np.ones(cfg.n_paths), anti).sum(axis=1)
    levels = []
    for eps in eps_grid:
        level = triplet.with_drift_added(-eps)
        sup = read.suprema(level.effective_drift)
        rho_hat = _WeightedRho(_replicate_rows(sup, anti), weights, batch_paths, problem.cost.f_prime_plus)
        levels.append((eps, _root_of(rho_hat, (sup * w).sum(axis=1), anti, level, problem, cfg, bisect_tol,
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
    v, anti = _value_pass(triplet, problem, cfg, [(x, b) for b in b_grid], n_workers=n_workers)
    return [
        (b, _finish("sweep_value", v[:, k], anti, triplet, problem, cfg, b=b, x=x))
        for k, b in enumerate(b_grid)
    ]
