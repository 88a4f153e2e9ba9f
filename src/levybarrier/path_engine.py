"""Discretized path simulation, reflection, and discounted functionals.

Paths are generated on the grid 0, dt, 2dt, ..., n_steps*dt.  Every path
owns an independent random stream derived from (master_seed, path index)
through ``numpy.random.SeedSequence`` spawn keys, so re-simulating any path
reproduces it bit-for-bit regardless of batch size, chunking, or worker
count.  Per path the draw order is fixed: Gaussian increments first (when
sigma > 0), then Poisson jump counts per cell, then jump sizes.

Large runs never materialize the full (paths x grid) matrix: estimators
stream chunks of paths through reducer callbacks via ``map_reduce_paths``,
whose merge order is fixed by chunk index so results do not depend on the
worker count; accumulators are summed per fixed batch of consecutive
streams (``BATCHES``, mirrored pairs together), giving batch-means errors.
Every reflected functional of a chunk (value at any (start offset,
barrier) pair, first passage) is read off one running minimum per chunk,
since the minimum of a shifted path is the shifted minimum; a path started
at x is the path from 0 plus x bit for bit, so starts are offsets, and
``map_reduce_several`` lets several reducers share one simulation.  Sums
along the grid take one dot product per path, so a path's sums do not
depend on its chunk.
This is the package's only path simulator: the exp-clock supremum is read
off the same paths by the estimators.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .levy_model import LevyTriplet

__all__ = [
    "SimConfig",
    "PathBatch",
    "NEVER",
    "simulate_batch",
    "reflect_arrays",
    "ValueCtx",
    "value_chunk",
    "first_passage_index",
    "stopped_integral",
    "discounted_integral",
    "discounted_stieltjes",
    "map_reduce_paths",
    "map_reduce_several",
    "horizon_for",
    "integral_weights",
    "discount_factors",
]

NEVER = -1  # sentinel tau index: the path never went strictly below the barrier

CHUNK_TARGET_FLOATS = 2**23  # ~64 MB of float64 per streamed chunk
BATCHES = 64  # fixed path batches per pass; fewer when there are fewer streams


def horizon_for(q: float, tail_tol: float = 1e-4, dt: float | None = None) -> float:
    """Smallest horizon T with exp(-q T) <= tail_tol, grid-aligned if dt given."""
    t = math.log(1.0 / tail_tol) / q
    if dt is not None:
        t = math.ceil(t / dt - 1e-12) * dt
    return t


@dataclass(frozen=True)
class SimConfig:
    """Discretization grid, path count and seeding for one simulation run."""

    dt: float
    horizon_T: float
    n_paths: int
    master_seed: int
    antithetic: bool = False
    tail_tol: float = 1e-4

    def __post_init__(self):
        if self.dt <= 0 or self.horizon_T <= 0:
            raise ValueError("dt and horizon_T must be positive")
        if self.dt > self.horizon_T:
            raise ValueError("dt must not exceed horizon_T")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not (0 < self.tail_tol < 1):
            raise ValueError("tail_tol must lie in (0, 1)")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.horizon_T / self.dt)))

    @property
    def effective_horizon(self) -> float:
        return self.n_steps * self.dt

    def validate_for(self, q: float) -> None:
        """The discounted tail beyond the horizon must be below tail_tol."""
        tail = math.exp(-q * self.effective_horizon)
        if tail > self.tail_tol * (1 + 1e-9):
            raise ValueError(
                f"horizon too short: exp(-q*T) = {tail:.3g} exceeds tail_tol {self.tail_tol:.3g}"
            )

    def describe(self) -> dict:
        return asdict(self)


@dataclass
class PathBatch:
    """Materialized sample paths, one row per path."""

    values: np.ndarray


# ---------------------------------------------------------------------------
# per-path generation
# ---------------------------------------------------------------------------


def _path_rng(master_seed: int, stream_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_index,))
    return np.random.Generator(np.random.PCG64DXSM(seq))


def _antithetic_active(triplet: LevyTriplet, cfg: SimConfig, warn: bool = False) -> bool:
    """Whether the second half of the paths mirrors the first.

    Asked-for pairing is skipped for an asymmetric jump law (with a warning
    when ``warn``, as the simulators do); it needs an even n_paths.
    """
    if not cfg.antithetic:
        return False
    if triplet.jumps.rate > 0 and not triplet.jumps.is_symmetric:
        if warn:
            warnings.warn(
                "antithetic ignored: jump law is not symmetric, mirroring would bias it",
                stacklevel=3,
            )
        return False
    if cfg.n_paths % 2 != 0:
        raise ValueError("antithetic sampling needs an even n_paths")
    return True


def _path_increments(triplet, cfg, rng, mirror):
    n_steps = cfg.n_steps
    incr = np.full(n_steps, triplet.effective_drift * cfg.dt)
    if triplet.sigma > 0:
        z = rng.standard_normal(n_steps)
        if mirror:
            np.negative(z, out=z)
        incr += (triplet.sigma * math.sqrt(cfg.dt)) * z
    rate = triplet.jumps.rate
    if rate > 0:
        counts = rng.poisson(rate * cfg.dt, n_steps)
        total = int(counts.sum())
        if total:
            sizes = triplet.jumps.sample(rng, total)
            if mirror:
                np.negative(sizes, out=sizes)
            # jumps are booked at the right endpoint of their grid cell
            np.add.at(incr, np.repeat(np.arange(n_steps), counts), sizes)
    return incr


def _simulate_chunk(triplet, x_start, cfg, lo, hi, anti):
    """Values (hi-lo, n_steps+1) for paths lo..hi-1; ``anti`` (mirror the
    second half) is decided once per pass by the caller."""
    n_steps = cfg.n_steps
    half = cfg.n_paths // 2
    values = np.empty((hi - lo, n_steps + 1))
    values[:, 0] = x_start
    for j, p in enumerate(range(lo, hi)):
        mirror = anti and p >= half
        stream = p - half if mirror else p
        rng = _path_rng(cfg.master_seed, stream)
        np.cumsum(_path_increments(triplet, cfg, rng, mirror), out=values[j, 1:])
        values[j, 1:] += x_start
    return values


def simulate_batch(triplet: LevyTriplet, x_start: float, cfg: SimConfig) -> PathBatch:
    """Materialize a full batch of paths (moderate sizes only).

    Deterministic given (master_seed, path index); see the module docstring
    for the draw-order contract.  For large n_paths x grid products use the
    streaming estimators instead.
    """
    n_grid = cfg.n_steps + 1
    if cfg.n_paths * n_grid > 2**27:
        raise ValueError(
            "batch of %d paths x %d grid points is too large to materialize; "
            "use the streaming estimators" % (cfg.n_paths, n_grid)
        )
    anti = _antithetic_active(triplet, cfg, warn=True)
    return PathBatch(values=_simulate_chunk(triplet, x_start, cfg, 0, cfg.n_paths, anti))


# ---------------------------------------------------------------------------
# reflection and discounted functionals
# ---------------------------------------------------------------------------


def reflect_arrays(values: np.ndarray, b: float):
    """(u, r, tau_idx) for the lower-barrier reflection of each row.

    One forward pass: r = max(b - running_min, 0), u = values + r; tau_idx is
    the first index with the raw path strictly below b, NEVER otherwise.
    """
    running_min = np.minimum.accumulate(values, axis=-1)
    r = np.maximum(b - running_min, 0.0)
    u = values + r
    tau = first_passage_index(running_min, b)
    return u, r, np.where(tau < values.shape[-1], tau, NEVER)


def integral_weights(q: float, dt: float, n_grid: int) -> np.ndarray:
    """Left-endpoint weights e^{-q t_i} dt; the final grid point gets 0."""
    w = np.exp(-q * dt * np.arange(n_grid)) * dt
    w[-1] = 0.0
    return w


def discount_factors(q: float, dt: float, n_grid: int) -> np.ndarray:
    return np.exp(-q * dt * np.arange(n_grid))


def _grid_sum(g: np.ndarray, w: np.ndarray) -> np.ndarray | float:
    """sum_i g[..., i] w[i], one dot product per row.

    A dot per row adds in an order set by the row length alone, so a path's
    sum does not depend on its chunk's row count; a BLAS matvec blocks rows,
    and ``einsum`` buffers across rows beyond 8,192 grid points."""
    g = np.asarray(g, dtype=float)
    if g.ndim == 1:
        return g @ w
    rows = g.reshape(-1, g.shape[-1])
    return np.array([row @ w for row in rows]).reshape(g.shape[:-1])


def discounted_integral(values: np.ndarray, q: float, dt: float) -> np.ndarray | float:
    """Left-endpoint rule for int_0^T e^{-qt} g(t) dt along the last axis."""
    values = np.asarray(values, dtype=float)
    return _grid_sum(values, integral_weights(q, dt, values.shape[-1]))


def discounted_stieltjes(r_values: np.ndarray, q: float, dt: float) -> np.ndarray | float:
    """Sum of e^{-q t_i} (R_i - R_{i-1}) with R_{-1} := 0.

    The initial value R_0 is charged undiscounted at t = 0.
    """
    r_values = np.asarray(r_values, dtype=float)
    disc = discount_factors(q, dt, r_values.shape[-1])
    return _grid_sum(np.diff(r_values, axis=-1, prepend=0.0), disc)


def first_passage_index(running_min: np.ndarray, level: float) -> np.ndarray:
    """First grid index with the path strictly below ``level``; n_grid if never.

    ``running_min`` is the path's running minimum: being nonincreasing, it
    stays >= level exactly on the indices before the first passage.
    """
    return (running_min >= level).sum(axis=-1)


def stopped_integral(g: np.ndarray, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Left-rule integrals sum_{i < idx[p, k]} g[p, i] w[i]; ``idx`` has shape (n, k)."""
    cum = np.cumsum(g * w, axis=-1)
    return np.where(idx > 0, np.take_along_axis(cum, np.maximum(idx - 1, 0), axis=-1), 0.0)


@dataclass(frozen=True, eq=False)
class ValueCtx:
    """The value functionals ``value_chunk`` evaluates on every chunk."""

    pairs: tuple                     # (start offset, reflection barrier) pairs
    f: Callable                      # running cost
    q: float
    dt: float
    passages: tuple = ()             # (start offset, level) pairs of e^{-q tau}
    f_prime: Callable | None = None  # also integrate f'_+ up to each passage


def value_chunk(values: np.ndarray, ctx: ValueCtx) -> dict:
    """Running and control parts of the value at every (offset, barrier) pair.

    ``pp_running`` and ``pp_control`` have shape (n, pairs) and hold
    ``discounted_integral(f(U))`` and ``discounted_stieltjes(R)`` for the
    path values + o reflected at b.  Rounding is monotone, so min(values + o)
    equals m + o exactly for the running minimum m of the chunk:
    R = max(b - (m + o), 0) and U = (values + o) + R match
    ``reflect_arrays(values + o, b)`` bit for bit, and are written into two
    buffers reused across all pairs.  Per (offset, level) of ``passages``,
    ``pp_tau_disc`` is e^{-q tau} (0 if the path values + o never pass below
    the level) and, with ``f_prime``, ``pp_fprime_to_tau`` the left-rule
    integral of f'_+ along that unreflected path up to tau.
    """
    m = np.minimum.accumulate(values, axis=-1)
    running, control = np.empty((2, values.shape[0], len(ctx.pairs)))
    r, u = np.empty_like(values), np.empty_like(values)
    for k, (o, b) in enumerate(ctx.pairs):
        np.maximum(np.subtract(b, np.add(m, o, out=r), out=r), 0.0, out=r)
        np.add(np.add(values, o, out=u), r, out=u)
        running[:, k] = discounted_integral(ctx.f(u), ctx.q, ctx.dt)
        control[:, k] = discounted_stieltjes(r, ctx.q, ctx.dt)
    out = {"pp_running": running, "pp_control": control}
    if ctx.passages:
        n_grid = values.shape[-1]
        tau = np.stack([first_passage_index(m + o, level) for o, level in ctx.passages], axis=1)
        out["pp_tau_disc"] = np.append(discount_factors(ctx.q, ctx.dt, n_grid), 0.0)[tau]
        if ctx.f_prime is not None:
            w = integral_weights(ctx.q, ctx.dt, n_grid)
            out["pp_fprime_to_tau"] = np.stack([
                stopped_integral(np.asarray(ctx.f_prime(values + o), dtype=float), w, tau[:, [k]])[:, 0]
                for k, (o, _) in enumerate(ctx.passages)
            ], axis=1)
    return out


# ---------------------------------------------------------------------------
# streaming map/reduce over path chunks
# ---------------------------------------------------------------------------


def _chunk_plan(n_paths: int, n_grid: int, antithetic: bool, target: int) -> list[tuple]:
    """(lo, hi, batch) path ranges covering 0..n_paths-1 in order.

    Streams (paths, or pairs when ``antithetic``) form min(BATCHES, n_streams)
    contiguous batches whose sizes differ by at most one; chunks of at most
    target // n_grid paths never straddle a batch."""
    n_streams = n_paths // 2 if antithetic else n_paths
    n_batches = min(BATCHES, n_streams)
    bounds = [g * n_streams // n_batches for g in range(n_batches + 1)]
    size = max(1, target // max(1, n_grid))
    return [
        (shift + lo, shift + min(lo + size, hi), g)
        for shift in ((0, n_streams) if antithetic else (0,))
        for g, (start, hi) in enumerate(zip(bounds, bounds[1:]))
        for lo in range(start, hi, size)
    ]


def _process_chunk(triplet, x_start, cfg, lo, hi, anti, chunk_fn, ctx):
    return chunk_fn(_simulate_chunk(triplet, x_start, cfg, lo, hi, anti), ctx)


def _merge(plan: list, partials) -> dict:
    """Merge chunk partials as they arrive, in chunk order (fixed float summation order)."""
    out: dict = {}
    for (_, _, g), part in zip(plan, partials):
        for key, val in part.items():
            if key.startswith("pp_"):
                out.setdefault(key, []).append(val)
            elif key.startswith("acc_"):
                val = np.asarray(val, dtype=float)
                rows = out.setdefault(key, np.zeros((plan[-1][2] + 1,) + val.shape[:-1] + (0,)))
                if val.shape[-1] > rows.shape[-1]:
                    pad = [(0, 0)] * (rows.ndim - 1) + [(0, val.shape[-1] - rows.shape[-1])]
                    rows = out[key] = np.pad(rows, pad)
                rows[g, ..., : val.shape[-1]] += val
            else:
                raise KeyError(f"chunk partial key {key!r} has no merge rule")
    for key, val in out.items():
        if key.startswith("pp_"):
            out[key] = np.concatenate(val, axis=0)
    return out


def map_reduce_paths(
    triplet: LevyTriplet,
    x_start: float,
    cfg: SimConfig,
    chunk_fn: Callable,
    ctx,
    n_workers: int = 1,
    chunk_target: int = CHUNK_TARGET_FLOATS,
) -> dict:
    """Stream simulated path chunks through ``chunk_fn`` and merge partials.

    ``chunk_fn(values, ctx)`` receives the (chunk_paths, n_grid) value matrix
    and returns a dict whose keys select the merge rule: ``pp_*`` per-path
    rows (concatenated in path order) and ``acc_*`` accumulator arrays
    (summed per path batch in chunk order, right-padded along the last axis
    to the longest, and stacked into one leading row per batch).  The chunk
    plan depends only on (n_paths, n_grid, antithetic pairing), so results
    are identical for any worker count.

    Pure-drift models collapse to a single representative path whose partials
    are expanded law-exactly (identical rows, accumulators scaled by each
    batch's path count); stderr over paths is exactly zero there, as it
    should be.  Scaling and then dividing by a batch size rounds, so a
    caller wanting per-batch means of such a model takes them equal.
    """
    anti = _antithetic_active(triplet, cfg, warn=True)
    if triplet.is_deterministic:
        plan = _chunk_plan(cfg.n_paths, 1, anti, cfg.n_paths)  # whole batches (halves if paired)
        part = chunk_fn(_simulate_chunk(triplet, x_start, cfg, 0, 1, anti), ctx)
        partials = (
            {k: np.repeat(v, hi - lo, axis=0) if k.startswith("pp_") else np.multiply(v, hi - lo)
             for k, v in part.items()}
            for lo, hi, _ in plan
        )
        return _merge(plan, partials)

    plan = _chunk_plan(cfg.n_paths, cfg.n_steps + 1, anti, chunk_target)
    if n_workers <= 1 or len(plan) == 1:
        partials = (
            _process_chunk(triplet, x_start, cfg, lo, hi, anti, chunk_fn, ctx)
            for lo, hi, _ in plan
        )
        return _merge(plan, partials)
    with ProcessPoolExecutor(max_workers=n_workers) as ex:
        futures = [
            ex.submit(_process_chunk, triplet, x_start, cfg, lo, hi, anti, chunk_fn, ctx)
            for lo, hi, _ in plan
        ]
        return _merge(plan, (f.result() for f in futures))


def _each_reducer(values, reducers):
    return {f"{key}@{i}": val for i, (fn, ctx) in enumerate(reducers) for key, val in fn(values, ctx).items()}


def map_reduce_several(triplet: LevyTriplet, x_start: float, cfg: SimConfig, reducers,
                       n_workers: int = 1) -> list[dict]:
    """One ``map_reduce_paths`` pass feeding every chunk to each ``(chunk_fn, ctx)``
    of ``reducers``: the paths are simulated once, and each reducer gets the
    merged dict it would get alone."""
    out = map_reduce_paths(triplet, x_start, cfg, _each_reducer, tuple(reducers), n_workers=n_workers)
    return [{key.rpartition("@")[0]: val for key, val in out.items() if key.endswith(f"@{i}")}
            for i in range(len(reducers))]
