"""Monte Carlo estimators for rho(b) and the barrier value function.

Every estimate is reported with its standard error and a configuration
fingerprint.  Common random numbers come for free from the deterministic
per-path streams: evaluating several barriers or starting points against
the same (master_seed, n_paths) reuses identical paths, so differences of
estimates are pathwise differences.

rho(b) is estimated from paths started at 0 and reflected at 0 with the
argument shift rho(b) = E[ int_0^inf e^{-qt} f'_+(U^0_t + b) dt ]; the
``exp_clock`` variant replaces the time integral by q^{-1} f'_+ of the
running supremum S at an independent Exponential(q) time e_q.  The clock is
integrated out on the same grid paths (conditional Monte Carlo, so the
variance is never higher than drawing it): with e_q conditioned on the
horizon N dt and d_n = e^{-q n dt}, the sample is sum_n w_n f'_+(S_n + b)
with w_n = (d_n - d_{n+1}) / (q (1 - d_N)) for n < N and w_N = 0.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cost_model import ProblemSpec
from .errors import NonFiniteSample
from .levy_model import LevyTriplet
from .path_engine import (
    SimConfig,
    ValueCtx,
    _antithetic_active,
    _grid_sum,
    discount_factors,
    integral_weights,
    map_reduce_paths,
    reflect_arrays,
    value_chunk,
)

__all__ = [
    "EstimateWithError",
    "estimate_rho",
    "estimate_value",
    "estimate_rho_curve",
    "fingerprint",
    "estimate_record",
]

KURTOSIS_RELIABLE_MAX = 100.0


@dataclass(frozen=True)
class EstimateWithError:
    """Monte Carlo mean with standard error and provenance fingerprint."""

    mean: float
    stderr: float
    n: int
    fingerprint: str
    kurtosis: float | None = None
    stderr_reliable: bool = True


def fingerprint(kind: str, triplet: LevyTriplet, problem: ProblemSpec, cfg: SimConfig, **extra) -> str:
    """Stable hash of (model, problem, sim config, estimator kind, extras)."""
    payload = {
        "kind": kind,
        "model": triplet.describe(),
        "problem": problem.describe(),
        "sim": cfg.describe(),
        "extra": extra,
    }
    # numpy scalars serialize through float so callers may pass either
    blob = json.dumps(payload, sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _pair_if_antithetic(samples: np.ndarray, antithetic: bool) -> np.ndarray:
    if not antithetic:
        return samples
    half = samples.shape[0] // 2
    return 0.5 * (samples[:half] + samples[half:])


def _moments(samples: np.ndarray, antithetic: bool):
    """(mean, stderr, kurtosis) with antithetic pairs averaged first."""
    s = _pair_if_antithetic(np.asarray(samples, dtype=float), antithetic)
    mean = float(s.mean())
    if s.size < 2 or np.all(s == s[0]):
        return mean, 0.0, None
    centred = s - mean
    m2 = float(np.mean(centred**2))
    stderr = float(np.sqrt(m2 * s.size / (s.size - 1)) / np.sqrt(s.size))
    kurt = float(np.mean(centred**4) / m2**2) if m2 > 0 else None
    return mean, stderr, kurt


_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _outside_stacklevel() -> int:
    """Our caller's warning ``stacklevel`` naming the first frame outside the package."""
    frame, level = sys._getframe(1), 1
    while frame is not None and os.path.abspath(frame.f_code.co_filename).startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


def _finish(kind, samples, antithetic, triplet, problem, cfg, **extra):
    samples = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(samples)):
        raise NonFiniteSample(f"{kind}: non-finite pathwise sample encountered")
    mean, stderr, kurt = _moments(samples, antithetic)
    reliable = True
    if kurt is not None and kurt > KURTOSIS_RELIABLE_MAX:
        reliable = False
        warnings.warn(
            f"{kind}: sample kurtosis {kurt:.1f} exceeds {KURTOSIS_RELIABLE_MAX:.0f}; "
            "the reported stderr may be unreliable",
            stacklevel=_outside_stacklevel(),
        )
    return EstimateWithError(
        mean=mean,
        stderr=stderr,
        n=int(samples.shape[0]),
        fingerprint=fingerprint(kind, triplet, problem, cfg, **extra),
        kurtosis=kurt,
        stderr_reliable=reliable,
    )


# ---------------------------------------------------------------------------
# chunk reducers (module level so they cross process boundaries)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _RhoCtx:
    b_values: tuple
    f_prime: Callable
    w: np.ndarray
    exp_clock: bool  # weigh the running maximum, not U^0


def _rho_chunk(values, ctx: _RhoCtx):
    """Per-path rho-hat samples sum_i w_i f'_+(Z_i + b), one column per barrier.

    Z is U^0, the path reflected at 0, for the time integral and the running
    maximum of the path (>= 0, as it starts at 0) for the exp clock."""
    if ctx.exp_clock:
        z = np.maximum.accumulate(values, axis=-1)
    else:
        z, _, _ = reflect_arrays(values, 0.0)
    y = [_grid_sum(ctx.f_prime(z + b), ctx.w) for b in ctx.b_values]
    return {"pp_y": np.stack(y, axis=1)}


def _value_pass(triplet, problem, cfg, x_start, pairs, n_workers=1):
    """One streamed ``value_chunk`` pass over (offset, barrier) ``pairs``;
    returns (running + C * control, partials)."""
    ctx = ValueCtx(pairs=tuple((float(o), float(b)) for o, b in pairs), f=problem.cost.f,
                   q=problem.q, dt=cfg.dt)
    out = map_reduce_paths(triplet, x_start, cfg, value_chunk, ctx, n_workers=n_workers)
    return out["pp_running"] + problem.C * out["pp_control"], out


def _rho_ctx(problem, cfg, b_grid, method="time_integral") -> _RhoCtx:
    """The ``_rho_chunk`` context of rho-hat on a sorted barrier grid."""
    b_grid = tuple(float(b) for b in b_grid)
    if any(b2 <= b1 for b1, b2 in zip(b_grid, b_grid[1:])):
        raise ValueError("b_grid must be sorted strictly increasing")
    q, n_grid = problem.q, cfg.n_steps + 1
    if method == "time_integral":
        w = integral_weights(q, cfg.dt, n_grid)
    elif method == "exp_clock":  # the clock's law given e_q <= N dt (module docstring)
        d = discount_factors(q, cfg.dt, n_grid)
        w = np.append(d[:-1] - d[1:], 0.0) / (q * (1.0 - d[-1]))
    else:
        raise ValueError(f"unknown rho method {method!r}")
    cfg.validate_for(q)
    return _RhoCtx(b_values=b_grid, f_prime=problem.cost.f_prime_plus, w=w,
                   exp_clock=method == "exp_clock")


def _rho_curve(y, ctx: _RhoCtx, triplet, problem, cfg) -> list[tuple[float, EstimateWithError]]:
    """(b, rho-hat(b)) from the merged ``pp_y`` of a ``_rho_chunk`` pass."""
    kind = "rho_exp_clock" if ctx.exp_clock else "rho_time_integral"
    anti = _antithetic_active(triplet, cfg)
    return [(b, _finish(kind, y[:, k], anti, triplet, problem, cfg, b=b))
            for k, b in enumerate(ctx.b_values)]


# ---------------------------------------------------------------------------
# public estimators
# ---------------------------------------------------------------------------


def estimate_rho(
    triplet: LevyTriplet,
    problem: ProblemSpec,
    b: float,
    cfg: SimConfig,
    method: str = "time_integral",
    n_workers: int = 1,
) -> EstimateWithError:
    """Estimate rho(b), the discounted integral of f'_+ along U^b from b.

    ``time_integral`` reflects paths at 0 and integrates f'_+(U^0 + b);
    ``exp_clock`` averages q^{-1} f'_+(sup_{s<=e_q} X_s + b) with the clock
    integrated out.  Both are ``estimate_rho_curve`` at the single barrier b.
    No admissibility is required to evaluate rho.
    """
    curve = estimate_rho_curve(triplet, problem, [b], cfg, method=method, n_workers=n_workers)
    return curve[0][1]


def estimate_value(
    triplet: LevyTriplet,
    problem: ProblemSpec,
    b: float,
    x: float,
    cfg: SimConfig,
    n_workers: int = 1,
):
    """Estimate (v1, v2, v) of the barrier strategy at barrier b from x.

    v1 is the discounted running cost of f(U^b), v2 the discounted control
    Stieltjes integral, and v = v1 + C v2 with the variance taken on the
    pathwise sum.  Calls with the same config share their paths (common
    random numbers), whatever their b and x.
    """
    cfg.validate_for(problem.q)
    _, out = _value_pass(triplet, problem, cfg, x, [(0.0, b)], n_workers=n_workers)
    anti = _antithetic_active(triplet, cfg)
    y1 = out["pp_running"][:, 0]
    y2 = out["pp_control"][:, 0]
    v1 = _finish("value_running", y1, anti, triplet, problem, cfg, b=b, x=x)
    v2 = _finish("value_control", y2, anti, triplet, problem, cfg, b=b, x=x)
    v = _finish("value_total", y1 + problem.C * y2, anti, triplet, problem, cfg, b=b, x=x)
    return v1, v2, v


def estimate_rho_curve(
    triplet: LevyTriplet,
    problem: ProblemSpec,
    b_grid,
    cfg: SimConfig,
    method: str = "time_integral",
    n_workers: int = 1,
) -> list[tuple[float, EstimateWithError]]:
    """rho-hat on a sorted barrier grid from ONE shared batch of paths.

    ``method`` is as for ``estimate_rho``; either way it is one streamed
    pass.  Because f'_+ is nondecreasing and every barrier sees identical
    paths, weights and summation order, the returned means are
    nondecreasing in b exactly, not just statistically.
    """
    ctx = _rho_ctx(problem, cfg, b_grid, method)
    out = map_reduce_paths(triplet, 0.0, cfg, _rho_chunk, ctx, n_workers=n_workers)
    return _rho_curve(out["pp_y"], ctx, triplet, problem, cfg)


def estimate_record(kind: str, est: EstimateWithError, b=None, x=None) -> dict:
    """JSON-ready record {kind, b, x, mean, stderr, n, fingerprint}."""
    return {
        "kind": kind,
        "b": b,
        "x": x,
        "mean": est.mean,
        "stderr": est.stderr,
        "n": est.n,
        "fingerprint": est.fingerprint,
    }
