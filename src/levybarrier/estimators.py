"""Monte Carlo estimators for rho(b) and the barrier value function.

Every estimate is reported with its standard error and a configuration
fingerprint.  Common random numbers come for free from the deterministic
per-path streams: evaluating several barriers or starting points against
the same (master_seed, n_paths) reuses identical paths, so differences of
estimates are pathwise differences.  Every grid estimate, solve and check
is one ``_grid_pass``, the one place that checks the horizon against q and
binds ``path_engine.value_chunk`` to what its caller asks: one
``path_engine.map_reduce_paths`` pass of the paths from 0, returned with the
antithetic pairing it took; a start x is an offset of that pass.

rho(b) has two forms.  The grid estimators read the time integral
E[ int_0^inf e^{-qt} f'_+(U^0_t + b) dt ] off paths started and reflected at
0 (the argument shift), as the solver and the checks do.  The exponential-clock
form q^{-1} E[f'_+(S_{e_q} + b)] has one reader, ``skeleton_rho_curve`` (the
CLI's ``rho``, which reads either form exactly off ``path_engine.clock_skeleton``
with no grid): one clock per path, free of a grid's monitoring bias, but with
no clock integrated out over the steps of a grid to lower its stderr.
"""
from __future__ import annotations

import functools
import hashlib
import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .cost_model import ProblemSpec
from .errors import NonFiniteSample
from .levy_model import LevyTriplet
from .path_engine import (
    ENGINE_VERSION,
    SKELETON_FLOATS,
    SimConfig,
    _antithetic_active,
    _clock_segments,
    _grid_sum,
    _outside_stacklevel,
    _replicate_rows,
    _row_blocks,
    clock_skeleton,
    map_reduce_paths,
    value_chunk,
)

__all__ = [
    "EstimateWithError",
    "estimate_rho",
    "estimate_value",
    "estimate_rho_curve",
    "skeleton_rho_curve",
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
    """Stable hash of (engine version, model, problem, sim config, estimator kind, extras)."""
    payload = {
        "engine_version": ENGINE_VERSION,
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


def _finite(kind: str, samples) -> np.ndarray:
    """``samples`` as floats, refused if any is not finite."""
    samples = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(samples)):
        raise NonFiniteSample(f"{kind}: non-finite pathwise sample encountered")
    return samples


def _finish(kind, samples, antithetic, triplet, problem, cfg, replicates=False, **extra):
    """The estimate of per-path ``samples``; with ``replicates`` (the skeleton's lattice rows) its stderr
    is that of the replicate means (``path_engine._replicate_rows``) and its kurtosis a per-path one."""
    samples = _finite(kind, samples)
    mean, stderr, kurt = _moments(samples, antithetic)
    if replicates:  # of the samples less the first: equal samples give equal means, whatever the counts
        sums = _replicate_rows(samples - samples[0], antithetic).sum(axis=1)
        stderr = _moments(sums / _replicate_rows(np.ones(len(samples)), antithetic).sum(axis=1), False)[1]
    reliable = True
    if (len(samples) // 2 if antithetic else len(samples)) < 2 and not triplet.is_deterministic:
        stderr, reliable = np.inf, False  # one path, pair, batch or replicate: the error is unknown
    elif kurt is not None and kurt > KURTOSIS_RELIABLE_MAX:
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
# grid passes and rho-hat curves
# ---------------------------------------------------------------------------


def _grid_pass(triplet, problem, cfg, n_workers=1, pairs=(), **ask):
    """The one grid pass of every estimate, solve and check: the horizon checked against q, then one
    ``map_reduce_paths`` pass of ``value_chunk`` reading the (start offset, barrier) ``pairs`` and
    the rest of ``ask`` (its keywords); returns (partials, whether antithetic halves pair)."""
    cfg.validate_for(problem.q)
    reducer = functools.partial(value_chunk, pairs=pairs, f=problem.cost.f, q=problem.q, dt=cfg.dt, **ask)
    return map_reduce_paths(triplet, cfg, reducer, n_workers=n_workers), _antithetic_active(triplet, cfg)


def _value_pass(triplet, problem, cfg, pairs, n_workers=1):
    """(running + C * control per path and (start offset, barrier) pair of ``pairs``, pairing)."""
    out, anti = _grid_pass(triplet, problem, cfg, n_workers, pairs=tuple((float(o), float(b)) for o, b in pairs))
    return out["pp_running"] + problem.C * out["pp_control"], anti


def _rho_grid(b_grid, method="time_integral") -> tuple:
    """The barriers of a rho-hat curve (or of ``barrier_sweep``), checked sorted, and
    its method checked known."""
    b_grid = tuple(float(b) for b in b_grid)
    if any(b2 <= b1 for b1, b2 in zip(b_grid, b_grid[1:])):
        raise ValueError("b_grid must be sorted strictly increasing")
    if method not in ("time_integral", "exp_clock"):
        raise ValueError(f"unknown rho method {method!r}")
    return b_grid


def _rho_curve(y, b_grid, method, anti, triplet, problem, cfg, replicates=False,
               **extra) -> list[tuple[float, EstimateWithError]]:
    """(b, rho-hat(b)) from per-path samples ``y``, one column per barrier of ``b_grid``,
    antithetic halves paired when ``anti``, the stderr over lattice replicates if ``replicates``."""
    return [(b, _finish(f"rho_{method}", y[:, k], anti, triplet, problem, cfg, replicates, b=b, **extra))
            for k, b in enumerate(b_grid)]


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

    ``time_integral`` is ``estimate_rho_curve`` at the single barrier b;
    ``exp_clock``, q^{-1} f'_+(sup_{s<=e_q} X_s + b), is ``skeleton_rho_curve``
    there, so neither ``cfg.dt`` nor ``n_workers`` enters it.  No
    admissibility is required to evaluate rho.
    """
    if method == "time_integral":
        return estimate_rho_curve(triplet, problem, [b], cfg, n_workers=n_workers)[0][1]
    return skeleton_rho_curve(triplet, problem, [b], cfg, method)[0][1]  # exp_clock, or refused there


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
    out, anti = _grid_pass(triplet, problem, cfg, n_workers, pairs=((float(x), float(b)),))
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
    n_workers: int = 1,
) -> list[tuple[float, EstimateWithError]]:
    """Time-integral rho-hat on a sorted barrier grid from ONE streamed pass of grid paths.

    Because f'_+ is nondecreasing and every barrier sees identical paths,
    weights and summation order, the returned means are nondecreasing in b
    exactly, not just statistically.
    """
    b_grid = _rho_grid(b_grid)
    out, anti = _grid_pass(triplet, problem, cfg, n_workers, f_prime=problem.cost.f_prime_plus, rho=b_grid)
    return _rho_curve(out["pp_y"], b_grid, "time_integral", anti, triplet, problem, cfg)


def skeleton_rho_curve(triplet: LevyTriplet, problem: ProblemSpec, b_grid, cfg: SimConfig,
                       method: str = "time_integral") -> list[tuple[float, EstimateWithError]]:
    """rho-hat on a sorted barrier grid read off the clock skeleton: no grid, so ``cfg.dt`` does not enter.

    Each path's sample is sum_k (pi_k / q) f'_+(Z_k + b) over the segments the Exponential(q)
    clock may end, pi and Z_k read off ``path_engine.clock_skeleton``: the suprema S_k
    (``exp_clock``) or U^0 (``time_integral``), exact up to the tail mass ``cfg.tail_tol``.
    The mean is over all paths and the stderr over the lattice replicates.  Chunks of at
    most ``SKELETON_FLOATS`` floats leave n_paths uncapped; the pairing is decided once for
    all of them.
    """
    b_grid = _rho_grid(b_grid, method)
    anti = _antithetic_active(triplet, cfg, warn=True)
    size = SKELETON_FLOATS // _clock_segments(triplet.jumps.rate, problem.q, cfg.tail_tol)  # refuses a long clock
    y = np.empty((cfg.n_paths, len(b_grid)))
    for lo in range(0, cfg.n_paths, size):
        rows = range(lo, min(lo + size, cfg.n_paths))
        read = clock_skeleton(triplet, cfg, problem.q, rows, anti)
        z = (read.u0 if method == "time_integral" else read.suprema)(triplet.effective_drift)
        w = read.pi / problem.q
        for block in _row_blocks(*z.shape):
            for j, b in enumerate(b_grid):
                y[rows[block], j] = _grid_sum(problem.cost.f_prime_plus(z[block] + b), w)
    return _rho_curve(y, b_grid, method, anti, triplet, problem, cfg, True, solver="clock_skeleton")


def estimate_record(kind: str, est: EstimateWithError, b=None, x=None) -> dict:
    """JSON-ready record {kind, b, x} plus every field of ``est``."""
    return {"kind": kind, "b": b, "x": x, **asdict(est)}
