"""Discretized path simulation, reflection, and discounted functionals.

Paths are generated on the grid 0, dt, 2dt, ..., n_steps*dt.  Every path
owns an independent random stream derived from (master_seed, path index):
the ``PCG64DXSM`` state that ``numpy.random.SeedSequence(master_seed,
spawn_key=(index,))`` seeds, derived for a whole chunk at once and loaded in
turn into one reused generator (``_path_rngs``), so re-simulating any path
reproduces it bit-for-bit regardless of batch size, chunking, or worker
count.  Per path the draw order is fixed (``ENGINE_VERSION`` 4): N = n_steps
Gaussian increments (when sigma > 0), a jump count K ~ Poisson(rate N dt), K
uniform times U kept in draw order (given K, the jump times are iid uniform),
K sizes; a jump at U lands at the right end of cell min(floor(U N), N - 1).
A path's segments up to an Exponential(q) clock (``clock_skeleton``) are K
Exp(1) draws (E_dn), then K sizes (with jumps), then K more Exp(1) (E_up,
with sigma > 0), K fixed by the rate, q and ``tail_tol``.

Large runs never materialize the full (paths x grid) matrix: the one grid
pass, ``map_reduce_paths``, simulates each chunk of paths from 0 once and
hands it to every reducer it is given, merging each reducer's partials in
chunk order so results do not depend on the worker count; accumulators are
summed per fixed batch of consecutive streams (``BATCHES``, mirrored pairs
together), giving batch-means errors.  A path started at x is the path from
0 plus x bit for bit, so a start is an offset that a reducer adds; every
reflected functional of a chunk (value at any (start offset, barrier) pair,
first passage) is read off one running minimum per chunk, since the minimum
of a shifted path is the shifted minimum.  Sums along the grid take
fixed-length dot products per path, so a path's sums depend neither on its
chunk nor on the BLAS thread count.
Grid paths serve every estimator, solver and check but two: the clock
skeleton, with no grid and no dt, serves ``solve_barrier_perturbed`` and
``estimators.skeleton_rho_curve`` (the CLI's ``rho``).
"""
from __future__ import annotations

import itertools
import math
import operator
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
from numpy.random import PCG64DXSM, Generator

from .levy_model import LevyTriplet

__all__ = [
    "ENGINE_VERSION",
    "SimConfig",
    "simulate_batch",
    "reflect_arrays",
    "value_chunk",
    "first_passage_index",
    "stopped_integral",
    "discounted_integral",
    "discounted_stieltjes",
    "map_reduce_paths",
    "clock_skeleton",
    "clock_suprema",
    "horizon_for",
    "integral_weights",
    "discount_factors",
]

ENGINE_VERSION = 4  # the per-path draw orders of the module docstring

CHUNK_TARGET_FLOATS = 2**23  # ~64 MB of float64 per streamed chunk
BATCHES = 64  # fixed path batches per pass; fewer when there are fewer streams
DOT_SLICE = 10_000  # longest dot product OpenBLAS computes on one thread
BATCH_FLOATS = 2**27  # largest (paths x grid) batch simulate_batch materializes
SKELETON_FLOATS = 2**22  # largest (paths x K) clock skeleton: perturb peaks at ~8 such arrays
HISTOGRAM_FLOATS = 2**26  # largest (BATCHES x bins) occupation histogram of the grid solve


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
        if not 1 <= self.n_paths <= 2**32:  # stream indices are one-word spawn keys
            raise ValueError("n_paths must lie in [1, 2**32]")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a non-negative integer")
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


# ---------------------------------------------------------------------------
# per-path generation
# ---------------------------------------------------------------------------


# numpy.random.SeedSequence's hash (pool size 4) and PCG64DXSM's seeding step
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value, k: int, init: int = _INIT_A, mult: int = _MULT_A):
    """SeedSequence's k-th hashmix (counting from 0) of ``value``, an int or uint32 array."""
    const = init * pow(mult, k, 2**32) & _MASK32
    value = (value ^ const) * (const * mult & _MASK32) & _MASK32
    return value ^ value >> 16


def _mix(x: int, y):
    r = ((_MIX_L * x & _MASK32) - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _path_rngs(master_seed: int, streams):
    """One Generator, set in turn to the start of stream (master_seed, i) for each i of ``streams``.

    Each state equals ``PCG64DXSM(SeedSequence(master_seed, spawn_key=(i,)))``'s: the pool
    after the seed's words (padded to 4) is hashed once, then only the spawn word i < 2**32
    is mixed in, for all streams at once."""
    seed = operator.index(master_seed)
    words = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 128), 32)]  # >= 4 words
    ks = itertools.count()
    pool = [_hashmix(w, next(ks)) for w in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(ks)))
    for w in words[4:] + [np.asarray(streams, dtype=np.uint32)]:  # the spawn word comes last
        pool = [_mix(x, _hashmix(w, next(ks))) for x in pool]
    state = [_hashmix(pool[k % 4], k, _INIT_B, _MULT_B) for k in range(8)]  # generate_state(4, u64)
    seeds = np.stack(state, axis=-1).astype("<u4").view("<u8").tolist()
    rng = Generator(PCG64DXSM(0))
    for s_hi, s_lo, i_hi, i_lo in seeds:
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        s = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        rng.bit_generator.state = {"bit_generator": "PCG64DXSM", "state": {"state": s, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def _antithetic_active(triplet: LevyTriplet, cfg: SimConfig, warn: bool = False) -> bool:
    """Whether the second half of the paths mirrors the first.

    Asked-for pairing is skipped for an asymmetric jump law (with a warning
    when ``warn``, as the simulators do); it needs an even n_paths.
    """
    if not cfg.antithetic:
        return False
    if not triplet.jumps.is_symmetric:
        if warn:
            warnings.warn(
                "antithetic ignored: jump law is not symmetric, mirroring would bias it",
                stacklevel=3,
            )
        return False
    if cfg.n_paths % 2 != 0:
        raise ValueError("antithetic sampling needs an even n_paths")
    return True


def _simulate_chunk(triplet, cfg, lo, hi, anti):
    """Values (hi-lo, n_steps+1) from 0 for paths lo..hi-1; ``anti`` (mirror the second half) is decided
    once per pass by the caller.  The draws go straight into each row; scaling, drift, jumps (at
    their cell's right end) and the running sum then act chunk-wide, each element rounding as
    it would path by path."""
    n_steps, rate, half = cfg.n_steps, triplet.jumps.rate, cfg.n_paths // 2
    paths = np.arange(lo, hi)
    mirror = anti & (paths >= half)
    values = np.empty((hi - lo, n_steps + 1))
    jumps = []
    for j, rng in enumerate(_path_rngs(cfg.master_seed, paths - mirror * half)):
        if triplet.sigma > 0:
            rng.standard_normal(out=values[j, 1:])
        total = int(rng.poisson(rate * n_steps * cfg.dt)) if rate > 0 else 0
        if total:
            cells = np.minimum((rng.random(total) * n_steps).astype(np.int64), n_steps - 1)
            sizes = triplet.jumps.sample(rng, total)
            jumps.append((j, cells, -sizes if mirror[j] else sizes))
    incr = values[:, 1:]
    if triplet.sigma > 0:
        incr *= np.where(mirror, -1.0, 1.0)[:, None] * triplet.sigma * math.sqrt(cfg.dt)  # (-z) s is z (-s)
        incr += triplet.effective_drift * cfg.dt
    else:
        incr[:] = triplet.effective_drift * cfg.dt
    for j, cells, sizes in jumps:
        incr[j] += np.bincount(cells, weights=sizes, minlength=n_steps)
    np.cumsum(incr, axis=1, out=incr)
    values[:, 0] = 0.0
    return values


def simulate_batch(triplet: LevyTriplet, x_start: float, cfg: SimConfig) -> np.ndarray:
    """Materialize a full batch of paths from x_start, one (n_steps + 1) row per path (moderate
    sizes only): the paths from 0 plus x_start.

    Deterministic given (master_seed, path index); see the module docstring
    for the draw-order contract.  For large n_paths x grid products use the
    streaming estimators instead.
    """
    n_grid = cfg.n_steps + 1
    if cfg.n_paths * n_grid > BATCH_FLOATS:
        raise ValueError(
            "batch of %d paths x %d grid points is too large to materialize; "
            "use the streaming estimators" % (cfg.n_paths, n_grid)
        )
    values = _simulate_chunk(triplet, cfg, 0, cfg.n_paths, _antithetic_active(triplet, cfg, warn=True))
    values += x_start
    return values


def _clock_weights(rate: float, q: float, tail_tol: float) -> np.ndarray:
    """pi_k = p^(k-1) (1 - p), p = rate / (rate + q); the last of K takes the tail p^(K-1) <= tail_tol."""
    p = rate / (rate + q)
    k = 1 + math.ceil(math.log(tail_tol) / math.log(p)) if rate > 0 else 1
    return p ** np.arange(k) * np.append(np.full(k - 1, 1.0 - p), 1.0)


def clock_skeleton(triplet: LevyTriplet, cfg: SimConfig, q: float, paths: range | None = None,
                   anti: bool | None = None):
    """(pi, moves, sizes) of the segments of ``paths`` (default all) up to an Exponential(q) clock.

    Segments last Exp(lambda), lambda = rate + q; the clock ends segment k with probability pi_k
    and the jump ``sizes`` (n, K) end the others.  ``moves`` are the segment lengths (n, K) when
    sigma = 0; else (2, n, K), each segment's fall E_dn / beta_- to its low and rise E_up / beta_+
    to its high, beta_+- = (-+mu + sqrt(mu^2 + 2 sigma^2 lambda)) / sigma^2 (Wiener-Hopf Monte
    Carlo, Kuznetsov, Kyprianou, Pardo & van Schaik 2011).  Draws are as the module docstring
    says; a mirror swaps E_up and E_dn and negates the sizes, and ``anti`` (None: decided here)
    lets a chunked read decide that once.  Above ``SKELETON_FLOATS`` (n x K) ValueError is raised
    before anything is allocated.
    """
    rate, sigma, mu, lam = triplet.jumps.rate, triplet.sigma, triplet.effective_drift, triplet.jumps.rate + q
    pi = _clock_weights(rate, q, cfg.tail_tol)
    paths = np.arange(cfg.n_paths) if paths is None else np.asarray(paths)
    n, k = len(paths), len(pi)
    if n * k > SKELETON_FLOATS:
        raise ValueError(f"clock skeleton of {n} paths x K = {k} jumps exceeds the budget of "
                         f"{SKELETON_FLOATS} floats; use fewer paths, a larger q or tail_tol")
    if anti is None:
        anti = _antithetic_active(triplet, cfg, warn=True)
    mirror = anti & (paths >= cfg.n_paths // 2)
    moves, sizes = np.empty((2 if sigma > 0 else 1, n, k)), np.zeros((n, k))
    for j, rng in enumerate(_path_rngs(cfg.master_seed, paths - mirror * (cfg.n_paths // 2))):
        rng.standard_exponential(out=moves[0, j])
        if rate > 0:
            sizes[j] = triplet.jumps.sample(rng, k)
        if sigma > 0:
            rng.standard_exponential(out=moves[1, j])
    sizes[mirror] *= -1.0
    if sigma == 0:
        return pi, moves[0] / lam, sizes
    moves[:, mirror] = moves[::-1, mirror]
    # 1 / beta_+- = (root +- mu) / (2 lambda) = sigma^2 / (root -+ mu), each form taken where it
    # does not cancel; at mu = 0 both are root / (2 lambda), so a mirror is then -X exactly
    root = math.sqrt(mu * mu + 2.0 * sigma * sigma * lam)
    moves[0] *= (root - mu) / (2.0 * lam) if mu <= 0 else sigma * sigma / (root + mu)
    moves[1] *= (root + mu) / (2.0 * lam) if mu >= 0 else sigma * sigma / (root - mu)
    return pi, moves, sizes


def clock_suprema(moves: np.ndarray, sizes: np.ndarray, drift: float, lows: bool = False) -> np.ndarray:
    """S_k = max(highs of segments 1..k) per path of a ``clock_skeleton``; with ``lows``, U^0 there:
    the end of segment k (start + rise - fall, before its jump) less min(lows of 1..k).  Segment 1
    starts at 0, so S_k >= 0 >= that minimum.  ``moves`` holds each segment's (fall, rise) or,
    with sigma = 0, its length at ``drift``."""
    if moves.ndim == 2:
        fall, rise = max(-drift, 0.0) * moves, max(drift, 0.0) * moves
    else:
        fall, rise = moves
    starts = np.zeros_like(sizes)
    np.cumsum((rise - fall)[:, :-1] + sizes[:, :-1], axis=1, out=starts[:, 1:])
    if lows:
        return starts + rise - fall - np.minimum.accumulate(starts - fall, axis=1)
    return np.maximum.accumulate(starts + rise, axis=1)


# ---------------------------------------------------------------------------
# reflection and discounted functionals
# ---------------------------------------------------------------------------


def _reflected_at_zero(values: np.ndarray) -> np.ndarray:
    """U^0 = values - min(running min, 0): ``reflect_arrays(values, 0.0)[0]`` bit for bit."""
    u = np.minimum.accumulate(values, axis=-1)
    np.minimum(u, 0.0, out=u)
    return np.subtract(values, u, out=u)


def reflect_arrays(values: np.ndarray, b: float):
    """(u, r, tau_idx) for the lower-barrier reflection of each row.

    One forward pass: r = max(b - running_min, 0), u = values + r; tau_idx is
    the first index with the raw path strictly below b, n_grid if never.
    """
    running_min = np.minimum.accumulate(values, axis=-1)
    r = np.maximum(b - running_min, 0.0)
    return values + r, r, first_passage_index(running_min, b)


def integral_weights(q: float, dt: float, n_grid: int) -> np.ndarray:
    """Left-endpoint weights e^{-q t_i} dt; the final grid point gets 0."""
    w = np.exp(-q * dt * np.arange(n_grid)) * dt
    w[-1] = 0.0
    return w


def discount_factors(q: float, dt: float, n_grid: int) -> np.ndarray:
    return np.exp(-q * dt * np.arange(n_grid))


def _grid_sum(g: np.ndarray, w: np.ndarray) -> np.ndarray | float:
    """sum_i g[..., i] w[i], per row the dots of DOT_SLICE-long slices added in order.

    So the summation order is set by the row length alone: neither by the
    chunk's row count (a BLAS matvec blocks rows, ``einsum`` buffers rows
    beyond 8,192 points) nor by the BLAS threads (a longer dot is split)."""
    g = np.asarray(g, dtype=float)
    rows = g.reshape(-1, g.shape[-1])
    sums = np.vecdot(rows[:, :DOT_SLICE], w[:DOT_SLICE])  # one ddot per row, as row @ w would
    for s in range(DOT_SLICE, rows.shape[-1], DOT_SLICE):
        sums += np.vecdot(rows[:, s:s + DOT_SLICE], w[s:s + DOT_SLICE])
    return sums.reshape(g.shape[:-1])[()]


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


def value_chunk(values: np.ndarray, *, pairs, f, q: float, dt: float, passages=(), f_prime=None) -> dict:
    """Running and control parts of the value at every (offset, barrier) pair.

    ``pp_running`` and ``pp_control`` have shape (n, pairs) and hold
    ``discounted_integral(f(U))`` and ``discounted_stieltjes(R)`` for the
    path values + o reflected at b.  Rounding is monotone, so min(values + o)
    equals m + o exactly for the running minimum m of the chunk:
    R = max(b - (m + o), 0) and U = (values + o) + R match
    ``reflect_arrays(values + o, b)`` bit for bit, and are written into two
    buffers reused across all pairs; ``f`` is the running cost.  Per (offset,
    level) of ``passages``, ``pp_tau_disc`` is e^{-q tau} (0 if the path
    values + o never pass below the level) and, with ``f_prime``,
    ``pp_fprime_to_tau`` the left-rule integral of f'_+ along that
    unreflected path up to tau.
    """
    n_grid = values.shape[-1]
    w, disc = integral_weights(q, dt, n_grid), discount_factors(q, dt, n_grid)
    m = np.minimum.accumulate(values, axis=-1)
    running, control = np.empty((2, values.shape[0], len(pairs)))
    r, u = np.empty_like(values), np.empty_like(values)
    for k, (o, b) in enumerate(pairs):
        np.maximum(np.subtract(b, np.add(m, o, out=r), out=r), 0.0, out=r)
        np.add(np.add(values, o, out=u), r, out=u)
        running[:, k] = _grid_sum(f(u), w)
        # u is spent: it takes R's increments, np.diff(r, prepend=0.0) bit for bit
        u[:, 0] = r[:, 0]
        np.subtract(r[:, 1:], r[:, :-1], out=u[:, 1:])
        control[:, k] = _grid_sum(u, disc)
    out = {"pp_running": running, "pp_control": control}
    if passages:
        tau = np.stack([first_passage_index(m + o, level) for o, level in passages], axis=1)
        out["pp_tau_disc"] = np.append(disc, 0.0)[tau]
        if f_prime is not None:
            out["pp_fprime_to_tau"] = np.stack([
                stopped_integral(np.asarray(f_prime(values + o), dtype=float), w, tau[:, [k]])[:, 0]
                for k, (o, _) in enumerate(passages)
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


def _batch_path_counts(n_paths: int, antithetic: bool) -> np.ndarray:
    """Paths in each fixed batch of ``_chunk_plan`` (both mirrored halves), as floats."""
    plan = _chunk_plan(n_paths, 1, antithetic, n_paths)
    return np.bincount([g for _, _, g in plan], weights=[hi - lo for lo, hi, _ in plan])


def _process_chunk(triplet, cfg, lo, hi, anti, reducers) -> list[dict]:
    values = _simulate_chunk(triplet, cfg, lo, hi, anti)
    return [reduce(values) for reduce in reducers]


def _merge(plan: list, partials, n_reducers: int) -> list[dict]:
    """Merge each reducer's chunk partials as they arrive, in chunk order (fixed float
    summation order); each batch's ``acc_*`` row grows alone, and the rows are stacked
    once at the end."""
    outs: list[dict] = [{} for _ in range(n_reducers)]
    for (_, _, g), parts in zip(plan, partials):
        for out, part in zip(outs, parts):
            for key, val in part.items():
                if key.startswith("pp_"):
                    out.setdefault(key, []).append(val)
                elif key.startswith("acc_"):
                    val = np.asarray(val, dtype=float)
                    row = out.setdefault(key, {}).get(g, np.zeros(val.shape[:-1] + (0,)))
                    if val.shape[-1] > row.shape[-1]:
                        row = np.pad(row, [(0, 0)] * (row.ndim - 1) + [(0, val.shape[-1] - row.shape[-1])])
                    row[..., : val.shape[-1]] += val
                    out[key][g] = row
                else:
                    raise KeyError(f"chunk partial key {key!r} has no merge rule")
    for out in outs:
        for key, val in out.items():
            if key.startswith("pp_"):
                out[key] = np.concatenate(val, axis=0)
            else:
                width = max(row.shape[-1] for row in val.values())
                stacked = out[key] = np.zeros((len(val),) + val[0].shape[:-1] + (width,))
                for g in range(len(val)):  # every batch has a chunk; a row is freed once stacked
                    row = val.pop(g)
                    stacked[g, ..., : row.shape[-1]] = row
    return outs


def map_reduce_paths(
    triplet: LevyTriplet,
    cfg: SimConfig,
    reducers,
    n_workers: int = 1,
    chunk_target: int = CHUNK_TARGET_FLOATS,
) -> list[dict]:
    """Simulate each chunk of paths from 0 once, pass it to every reducer, and merge.

    Each of ``reducers`` is a one-argument callable (picklable for a pool: a
    ``functools.partial`` of a module-level chunk function) that receives the
    (chunk_paths, n_grid) value matrix and returns a dict whose keys select
    the merge rule: ``pp_*`` per-path rows (concatenated in path order) and
    ``acc_*`` accumulator arrays (summed per path batch in chunk order,
    right-padded along the last axis to the longest, and stacked into one
    leading row per batch).  One merged dict is returned per reducer, in
    order.  The chunk plan depends only on (n_paths, n_grid, antithetic
    pairing), so results are identical for any worker count.

    Pure-drift models collapse to a single representative path whose partials
    are expanded law-exactly (identical rows, accumulators scaled by each
    batch's path count); stderr over paths is exactly zero there, as it
    should be.  Scaling and then dividing by a batch size rounds, so a
    caller wanting per-batch means of such a model takes them equal.
    """
    anti = _antithetic_active(triplet, cfg, warn=True)
    if triplet.is_deterministic:
        plan = _chunk_plan(cfg.n_paths, 1, anti, cfg.n_paths)  # whole batches (halves if paired)
        parts = _process_chunk(triplet, cfg, 0, 1, anti, reducers)
        partials = (
            [{k: np.repeat(v, hi - lo, axis=0) if k.startswith("pp_") else np.multiply(v, hi - lo)
              for k, v in part.items()} for part in parts]
            for lo, hi, _ in plan
        )
        return _merge(plan, partials, len(reducers))

    plan = _chunk_plan(cfg.n_paths, cfg.n_steps + 1, anti, chunk_target)
    if n_workers <= 1 or len(plan) == 1:
        partials = (_process_chunk(triplet, cfg, lo, hi, anti, reducers) for lo, hi, _ in plan)
        return _merge(plan, partials, len(reducers))
    with ProcessPoolExecutor(max_workers=n_workers) as ex:
        futures = [ex.submit(_process_chunk, triplet, cfg, lo, hi, anti, reducers) for lo, hi, _ in plan]
        return _merge(plan, (f.result() for f in futures), len(reducers))
