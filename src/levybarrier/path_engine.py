"""Discretized path simulation, reflection, and discounted functionals.

Paths are generated on the grid 0, dt, 2dt, ..., n_steps*dt.  Every grid
path owns an independent random stream derived from (master_seed, path index):
the ``PCG64DXSM`` state that ``numpy.random.SeedSequence(master_seed,
spawn_key=(index,))`` seeds, derived for a whole chunk at once and loaded in
turn into one reused generator (``_path_rngs``), so re-simulating any path
reproduces it bit-for-bit regardless of batch size, chunking, or worker
count.  Per grid path the draw order is fixed (``ENGINE_VERSION`` 7): N =
n_steps Gaussian increments (when sigma > 0), a jump count K ~ Poisson(rate N
dt), K uniform times U kept in draw order (given K, the jump times are iid
uniform), then K m uniforms u = 1 - U for the K sizes (``JumpSpec.sample``);
a jump at U lands at the right end of cell min(floor(U N), N - 1).  Grid and
skeleton alike turn K m uniforms into sizes by the family's one transform
(``JumpSpec.from_uniforms``: m = ``uniforms_per_size`` of the jump family,
the K uniforms of its i-th input consecutive).  No size is redrawn: one of
exactly 0 has probability 2**-53 and leaves the law as it is.

A path's segments up to an Exponential(q) clock (``clock_skeleton``), K of
them fixed by the rate, q and ``tail_tol``, take ONE block u of d = K c
uniforms in (0, 1], c = 1 + m + [sigma > 0]: E_dn = -log u of the first K,
the K sizes from the next K m, and E_up = -log u of the last K (with sigma
> 0).  Block l (path p, or p - n/2 for an antithetic mirror), l = i R + r
with R = ``BATCHES``, is u = 1 - frac(x_i + Delta_r) (stream contract 7):
x_i = frac(phi_2(i) z) is point i of an extensible base-2 Korobov lattice
(Hickernell, Hong, L'Ecuyer & Lemieux, SIAM J. Sci. Comput. 2000), phi_2
the radical inverse and z_j = a^j mod 2^20 (a = ``LATTICE_A``), lattice
coordinate j = s c + t (the t-th uniform of segment s) at block position
t K + s, so the segments the clock reaches most often come first; the shift
Delta_r is the block stream (master_seed, r) draws (``Generator.random``).
Point 0 is 0, so block l < R is 1 - U exactly, as under contract 6, and a
block depends on p alone.  Replicate r, the rows l = r (mod R) with both
halves of a mirrored pair, is an unbiased shifted lattice rule: a skeleton
read's mean is over all rows and its stderr that of the R replicate means,
since a per-path stderr overstates the error of lattice points.
a = 1485: of the odd a < 2^13, 706 rank above it (of 4,096) by mean log P_2
over n = 2^4 .. 2^10 (shift-averaged worst-case error, weight pi_s on the
coordinates of segment s, d = 48 as for the compound Poisson config).  On
that config at 1,200 paths (eps = 0.025, 100 seeds), rho-hat(-0.603) has
variance 3.4e-4 with it, 3.5e-4 with the P_2 best (a = 43), 2.3e-3 with
a = 1 and 3.6e-3 with independent blocks: a poor generator loses the gain.

Large runs never materialize the full (paths x grid) matrix: the one grid
pass, ``map_reduce_paths``, simulates each chunk of paths from 0 once and
hands it to its one reducer, merging the chunk partials in chunk order so
results do not depend on the worker count; accumulators are summed per fixed
batch of consecutive streams (``BATCHES``, mirrored pairs together), giving
batch-means errors.  A path started at x is the path from 0 plus x bit for
bit, so a start is an offset that the reducer adds.  Every grid pass has the
one reducer ``value_chunk``: it reads the value at any (start offset,
barrier) pair, reflected or read off the reflected pair (b, b), first
passages, stopped values, time-integral rho-hat and the solver's occupation
histogram off one running minimum per row block, since the minimum of a
shifted path is the shifted minimum.  Sums along the grid
take fixed-length dot products per path, so a path's sums depend neither on
its chunk nor on the BLAS thread count.  The grid reducer sweeps a chunk in
row blocks of ``BLOCK_FLOATS`` (``_row_blocks``), in reused block-sized
buffers that stay in cache; each row takes the same operations in the same
order, so the bits do not depend on the block size.
Grid paths serve every estimator, solver and check but two, which read the
suprema S_k or U^0 off the clock skeleton (``ClockSkeleton``), with no grid
and no dt: ``solve_barrier_perturbed`` and ``skeleton_rho_curve`` (``rho``).
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import struct
import sys
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple

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
    "horizon_for",
    "integral_weights",
    "discount_factors",
]

ENGINE_VERSION = 7  # the per-path draw orders of the module docstring

CHUNK_TARGET_FLOATS = 2**23  # ~64 MB of float64 per streamed chunk
BATCHES = 64  # fixed path batches per pass; fewer when there are fewer streams
DOT_SLICE = 10_000  # longest dot product OpenBLAS computes on one thread
BLOCK_FLOATS = 2**15  # rows a grid reducer sweeps at a time: 256 KiB per buffer, within L2
BATCH_FLOATS = 2**27  # largest (paths x grid) batch simulate_batch materializes
SKELETON_FLOATS = 2**22  # largest (paths x K) clock skeleton: perturb peaks at ~10 such arrays
SKELETON_SLAB = 2**13  # uniforms a clock skeleton draws and transforms at a time, beside its output
SHIFT_TABLE_FLOATS = 2**15  # largest table of the R lattice shifts a skeleton read draws up front
SEED_SLAB = 1024  # stream states converted to Python ints at a time
LATTICE_A = 1485  # generator of the skeleton's lattice, z_j = LATTICE_A^j mod 2^20 (module docstring)
HISTOGRAM_FLOATS = 2**26  # largest (BATCHES x bins) occupation histogram of the grid solve


def horizon_for(q: float, tail_tol: float = 1e-4, dt: float | None = None) -> float:
    """Smallest horizon T with exp(-q T) <= tail_tol, grid-aligned (at least one step) if dt given."""
    t = math.log(1.0 / tail_tol) / q
    if dt is not None:
        t = max(1, math.ceil(t / dt - 1e-12)) * dt
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
        if not self.horizon_T / self.dt < CHUNK_TARGET_FLOATS - 1:  # one path's grid fits a chunk
            raise ValueError(f"horizon_T / dt = {self.horizon_T / self.dt:.3g} grid steps exceed the "
                             f"budget of {CHUNK_TARGET_FLOATS - 1} steps per path")
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
    seeds = np.stack(state, axis=-1).astype("<u4").view("<u8")
    rng = Generator(PCG64DXSM(0))
    for lo in range(0, len(seeds), SEED_SLAB):  # Python ints for a slab of streams at a time
        for s_hi, s_lo, i_hi, i_lo in seeds[lo:lo + SEED_SLAB].tolist():
            inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
            s = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
            rng.bit_generator.state = {"bit_generator": "PCG64DXSM", "state": {"state": s, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
            yield rng


_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _outside_stacklevel() -> int:
    """Our caller's warning ``stacklevel`` naming the first frame outside the package."""
    frame, level = sys._getframe(1), 1
    while frame is not None and os.path.abspath(frame.f_code.co_filename).startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


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
                stacklevel=_outside_stacklevel(),
            )
        return False
    if cfg.n_paths % 2 != 0:
        raise ValueError("antithetic sampling needs an even n_paths")
    return True


def _simulate_chunk(triplet, cfg, lo, hi, anti):
    """Values (hi-lo, n_steps+1) from 0 for paths lo..hi-1; ``anti`` (mirror the second half) is decided
    once per pass by the caller.  The draws go straight into each row; scaling, drift, jumps (at
    their cell's right end) and the running sum then act chunk-wide, each element rounding as
    it would path by path.  A drift step of exactly 0 is not added: the skipped ``+ 0.0`` only
    keeps a -0.0 that it would have made +0.0, and no output tells the two apart
    (``value_chunk``)."""
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
    drift = triplet.effective_drift * cfg.dt
    if triplet.sigma > 0:
        scale = triplet.sigma * math.sqrt(cfg.dt)
        incr *= np.where(mirror, -scale, scale)[:, None]  # (-z) s is z (-s)
        if drift != 0.0:
            incr += drift
    else:
        incr[:] = drift
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


def _clock_segments(rate: float, q: float, tail_tol: float, n_paths: int = 1) -> int:
    """K = 1 + ceil(log(tail_tol) / log(p)), p = rate / (rate + q), the segments of a skeleton path:
    from scalars alone, so that n_paths x K above ``SKELETON_FLOATS`` raises ValueError before anything
    is allocated (K is infinite where p rounds to 1)."""
    k = 1
    if rate > 0:
        log_p = math.log(rate / (rate + q))
        k = 1 + math.ceil(math.log(tail_tol) / log_p) if log_p < 0 else math.inf
    if n_paths * k > SKELETON_FLOATS:
        raise ValueError(f"clock skeleton of {n_paths} paths x K = {k} jumps exceeds the budget of "
                         f"{SKELETON_FLOATS} floats; use fewer paths (sim.n_paths), a larger q "
                         f"(problem.q) or tail_tol (sim.tail_tol)")
    return k


def _radical_inverse(i) -> np.ndarray:
    """phi_2(i) for i < 2**32: the 32 bits of i reversed, over 2**32."""
    v = np.asarray(i, dtype=np.uint64)
    for shift, mask in ((1, 0x55555555), (2, 0x33333333), (4, 0x0F0F0F0F), (8, 0x00FF00FF), (16, 0x0000FFFF)):
        v = (v >> shift) & mask | (v & mask) << shift
    return v * 2.0**-32


def _lattice_blocks(master_seed: int, streams: np.ndarray, k: int, c: int):
    """(lo, u) per slab of ``SKELETON_SLAB`` uniforms, u the blocks of the lattice rows ``streams[lo:]``
    of the module docstring; z_j of lattice coordinate j = s c + t is put at block position t k + s.  The
    R shifts are drawn once, or, where R rows would exceed ``SHIFT_TABLE_FLOATS``, row by row."""
    z = np.array([pow(LATTICE_A, j, 2**20) for j in range(k * c)], dtype=float).reshape(k, c).T.ravel()
    slab = max(1, SKELETON_SLAB // (k * c))
    block = np.empty((min(slab, len(streams)), k * c))
    table = BATCHES * k * c <= SHIFT_TABLE_FLOATS
    shifts = np.empty((min(BATCHES, int(streams.max(initial=-1)) + 1) if table else len(block), k * c))
    for lo in range(0, len(streams), slab):
        u = block[:min(slab, len(streams) - lo)]
        point, shift = np.divmod(streams[lo:lo + len(u)], BATCHES)
        if lo == 0 or not table:  # one stream state per shift row
            for row, rng in zip(shifts, _path_rngs(master_seed, range(len(shifts)) if table else shift)):
                rng.random(out=row)
        np.multiply.outer(_radical_inverse(point), z, out=u)  # exact: 32 + 20 bits
        u -= np.floor(u)
        u += shifts[shift] if table else shifts[:len(u)]
        u -= u >= 1.0  # frac, as x_i + Delta_r < 2
        yield lo, np.subtract(1.0, u, out=u)


def _replicate_rows(x: np.ndarray, anti: bool) -> np.ndarray:
    """The per-path rows of ``x``, a skeleton read of all paths, as one zero-padded row per replicate,
    lattice row l in replicate l mod R (module docstring), R = min(BATCHES, lattice rows)."""
    h = 2 if anti else 1
    n = len(x) // h
    r = min(BATCHES, n)
    padded = np.zeros((h, -(-n // r) * r) + x.shape[1:])
    padded[:, :n] = x.reshape((h, n) + x.shape[1:])
    return np.moveaxis(padded.reshape((h, -1, r) + x.shape[1:]), 2, 0).reshape(r, -1)


class ClockSkeleton(NamedTuple):
    """``clock_skeleton``'s (pi, moves, sizes) and its two reads per path and segment k at ``drift``, the slope
    of sigma = 0 segments, whose moves are lengths (each perturb level its own); sigma > 0 moves carry theirs."""
    pi: np.ndarray
    moves: np.ndarray
    sizes: np.ndarray

    def _walk(self, drift: float):  # (starts, falls, rises); segment k + 1 starts where k ends, plus its jump
        flat = self.moves.ndim == 2
        fall, rise = (max(-drift, 0.0) * self.moves, max(drift, 0.0) * self.moves) if flat else self.moves
        starts = np.zeros_like(self.sizes)  # segment 1 starts at 0
        np.cumsum((rise - fall)[:, :-1] + self.sizes[:, :-1], axis=1, out=starts[:, 1:])
        return starts, fall, rise

    def suprema(self, drift: float) -> np.ndarray:
        """S_k = max(highs of segments 1..k), >= 0."""
        starts, _, rise = self._walk(drift)
        return np.maximum.accumulate(starts + rise, axis=1)

    def u0(self, drift: float) -> np.ndarray:
        """U^0 at the end of segment k (start + rise - fall, before its jump) less I_k, the least low of 1..k."""
        starts, fall, rise = self._walk(drift)
        return starts + rise - fall - np.minimum.accumulate(starts - fall, axis=1)


def clock_skeleton(triplet: LevyTriplet, cfg: SimConfig, q: float, paths: range | None = None,
                   anti: bool | None = None) -> ClockSkeleton:
    """The ``ClockSkeleton`` (pi, moves, sizes) of ``paths`` (default all) up to an Exponential(q) clock.

    Segments last Exp(lambda), lambda = rate + q; the clock ends segment k with probability pi_k
    and the jump ``sizes`` (n, K) end the others.  ``moves`` are the segment lengths (n, K) when
    sigma = 0; else (2, n, K), each segment's fall E_dn / beta_- to its low and rise E_up / beta_+
    to its high, beta_+- = (-+mu + sqrt(mu^2 + 2 sigma^2 lambda)) / sigma^2 (Wiener-Hopf Monte
    Carlo, Kuznetsov, Kyprianou, Pardo & van Schaik 2011).  Each path transforms one block of
    uniforms, its lattice row of the module docstring (``_lattice_blocks``, ``SKELETON_SLAB`` of
    them at a time), straight into the returned arrays; a mirror swaps E_up and E_dn and negates
    the sizes, and ``anti`` (None: decided here) lets a chunked read decide that once.  Above
    ``SKELETON_FLOATS`` (n x K) ValueError is raised before anything is allocated.
    """
    rate, sigma, mu, lam = triplet.jumps.rate, triplet.sigma, triplet.effective_drift, triplet.jumps.rate + q
    paths = np.arange(cfg.n_paths) if paths is None else np.asarray(paths)
    n, k = len(paths), _clock_segments(rate, q, cfg.tail_tol, len(paths))
    p = rate / lam  # pi_k = p^(k-1) (1 - p); the last of K takes the tail p^(K-1) <= tail_tol
    pi = p ** np.arange(k) * np.append(np.full(k - 1, 1.0 - p), 1.0)
    if anti is None:
        anti = _antithetic_active(triplet, cfg, warn=True)
    mirror = anti & (paths >= cfg.n_paths // 2)
    m = triplet.jumps.uniforms_per_size
    moves, sizes = np.empty((2 if sigma > 0 else 1, n, k)), np.zeros((n, k))
    for lo, u in _lattice_blocks(cfg.master_seed, paths - mirror * (cfg.n_paths // 2), k, 1 + m + (sigma > 0)):
        rows = slice(lo, lo + len(u))
        np.log(u[:, :k], out=moves[0, rows])  # -E_dn
        if m:
            sizes[rows] = triplet.jumps.from_uniforms(u[:, k:k + m * k].reshape(len(u), m, k).swapaxes(0, 1))
        if sigma > 0:
            np.log(u[:, k + m * k:], out=moves[1, rows])  # -E_up
    sizes[mirror] *= -1.0
    if sigma == 0:
        return ClockSkeleton(pi, np.divide(moves[0], -lam, out=moves[0]), sizes)
    moves[:, mirror] = moves[::-1, mirror]
    # 1 / beta_+- = (root +- mu) / (2 lambda) = sigma^2 / (root -+ mu), each form taken where it
    # does not cancel; at mu = 0 both are root / (2 lambda), so a mirror is then -X exactly.  The
    # moves hold -E, so each scale carries a minus sign (the negation is exact)
    root = math.sqrt(mu * mu + 2.0 * sigma * sigma * lam)
    moves[0] *= -((root - mu) / (2.0 * lam) if mu <= 0 else sigma * sigma / (root + mu))
    moves[1] *= -((root + mu) / (2.0 * lam) if mu >= 0 else sigma * sigma / (root - mu))
    return ClockSkeleton(pi, moves, sizes)


# ---------------------------------------------------------------------------
# reflection and discounted functionals
# ---------------------------------------------------------------------------


def _row_blocks(n_rows: int, width: int) -> list[slice]:
    """Consecutive row slices covering n_rows rows, max(1, BLOCK_FLOATS // width) at a time."""
    size = max(1, BLOCK_FLOATS // max(1, width))
    return [slice(lo, min(lo + size, n_rows)) for lo in range(0, n_rows, size)]


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
    if g.ndim == 1:  # np.dot takes the same ddot, with less overhead
        if len(g) <= DOT_SLICE:
            return np.dot(g, w)
        total = np.dot(g[:DOT_SLICE], w[:DOT_SLICE])
        for s in range(DOT_SLICE, len(g), DOT_SLICE):
            total += np.dot(g[s:s + DOT_SLICE], w[s:s + DOT_SLICE])
        return total
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


def _float_key(x: float) -> int:
    """An integer key ordering the floats as their values (-0.0 just below +0.0)."""
    (i,) = struct.unpack("<q", struct.pack("<d", x))
    return i if i >= 0 else -1 - (i & 0x7FFF_FFFF_FFFF_FFFF)


def _key_float(k: int) -> float:
    """The float of an ``_float_key``."""
    return struct.unpack("<d", struct.pack("<q", k if k >= 0 else (-1 - k) | -(2**63)))[0]


@functools.lru_cache(maxsize=2**12)  # a pass asks the same cuts of every chunk
def _passage_cut(o: float, level: float) -> float:
    """The least float m with fl(m + o) >= level: rounding is monotone, so fl(m + o) < level exactly
    when m is below it.  A bisection over the floats in order; a walk of ulps from level - o would
    not end where ulp(level - o) << ulp(o)."""
    lo, hi = _float_key(-math.inf), _float_key(math.inf)  # fl(m + o) >= level is false at lo, true at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _key_float(mid) + o >= level else (mid, hi)
    return _key_float(hi)


def stopped_integral(g: np.ndarray, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Left-rule integrals sum_{i < idx[p, k]} g[p, i] w[i]; ``idx`` has shape (n, k)."""
    cum = np.cumsum(g * w, axis=-1)
    return np.where(idx > 0, np.take_along_axis(cum, np.maximum(idx - 1, 0), axis=-1), 0.0)


def value_chunk(values: np.ndarray, *, f, q: float, dt: float, pairs=(), reads=(), passages=(), f_prime=None,
                rho=(), stops=(), hist=None) -> dict:
    """The grid reducer: every figure a pass reads off a chunk of paths from 0.

    ``pp_running`` and ``pp_control`` have shape (n, pairs) and hold
    ``discounted_integral(f(U))`` and ``discounted_stieltjes(R)`` for the
    path values + o reflected at b.  Rounding is monotone, so min(values + o)
    equals m + o exactly for the running minimum m of the chunk:
    R = max(b - (m + o), 0) and U = (values + o) + R match
    ``reflect_arrays(values + o, b)`` bit for bit.  The chunk is read one
    ``_row_blocks`` block at a time, m, R and U written into three block
    buffers reused across all blocks and pairs, R's increments into U once
    f(U) is summed; ``f`` (the running cost) and ``f_prime`` act elementwise,
    as every builtin and mollified cost does, so no figure depends on the
    block size.

    ``pp_read_running`` and ``pp_read_control`` (n, reads) hold the same
    figures for each (offset, barrier) of ``reads``, read off its anchor, the
    pair (b, b) reflected once per barrier after ``pairs``, at the first
    passage tau of values + o below b: before tau the path is unreflected,
    and from tau on both paths are values - m + b while m <= 0 (the strong
    Markov split).  So running is sum_{i<tau} w_i f(values_i + o) +
    [running(b, b) - sum_{i<tau} w_i f(U^b_i)] and control is e^{-q tau}
    max(b - (m_tau + o), 0) + [control(b, b) - sum_{i<=tau} e^{-q t_i}
    dR^b_i], with prefix sums (``_grid_sum``s) of the first tau points: O(tau)
    work per row, where a reflection is O(n).  With reads, R's increments go
    into a fourth block buffer, so an anchor keeps f(U) for its reads above b.
    A start below b has tau = 0; a row that never passes takes sum_i w_i
    f(values_i + o) and 0.  Reads need rows that start at or below 0, so that
    m <= 0 from tau on; a row starting above 0 raises ValueError.  Each figure
    is a few ulp from the reflection of (o, b) and depends on its row, o and
    b alone, never on the block or on which other reads share the barrier.  A
    call per row and start is the price: on short rows it costs more than a
    reflection.

    Every first passage (of the reads, ``passages`` and ``stops``) is one
    ``np.searchsorted`` per row in -m, for the least float m* with fl(m* + o)
    >= level (``_passage_cut``): ``first_passage_index(m + o, level)`` bit
    for bit.  Per (offset, level) of ``passages``,
    ``pp_tau_disc`` is e^{-q tau} (0 if the path values + o never pass below
    the level) and, with ``f_prime``, ``pp_fprime_to_tau`` the left-rule
    integral of f'_+ along that unreflected path up to tau.  Per (offset,
    level, grid indices t_k) of ``stops``, the path values + o stop at
    j = min(tau, t_k): ``pp_stop_at`` holds j, ``pp_stop_value`` the value
    there and ``pp_stop_integral`` the left-rule integral of f up to j, one
    column per t_k, the stops' columns side by side.  Per barrier b of
    ``rho`` (which needs ``f_prime``), ``pp_y`` is the time-integral rho-hat
    sample sum_i w_i f'_+(U^0_i + b), U^0 = values - min(m, 0) the path
    reflected at 0, ``reflect_arrays(values, 0.0)[0]`` bit for bit.  With a
    bin width ``hist``, ``pp_udisc`` is sum_i w_i U^0_i and ``acc_hist`` the
    chunk's occupation histogram: weight w_i in bin rint(U^0_i / hist), added
    in ravel order, so its bits are those of one ``np.bincount`` over the
    chunk; a block whose bins would pass ``HISTOGRAM_FLOATS`` over
    ``BATCHES`` rows raises ValueError before it is binned.

    No full-row pass runs that moves no output bit: m is ``np.fmin``'s
    running minimum (``np.minimum``'s values on finite paths), a passage's
    f'_+ and its prefix sum stop at the block's last passage, and the weight
    rows are written once per call, into a block-sized array.  The
    sign of a zero reaches no output: fmin may pick the other zero at a tie,
    and ``_simulate_chunk`` may leave a -0.0 where a ``+ 0.0`` would have made
    it +0.0, but a path value or minimum reaches an output only through a
    comparison, an add of its offset or barrier (+0.0 unless both are -0.0),
    a rounded bin, or a sum that starts at +0.0.  U^0 keeps
    ``np.minimum(m, 0.0)``: rows need not start at 0, and where m > 0 U^0 is
    the values themselves, not values - m.
    """
    n_rows, n_grid = values.shape
    w, disc = integral_weights(q, dt, n_grid), discount_factors(q, dt, n_grid)
    if reads and (values[:, 0] > 0.0).any():
        raise ValueError("reads need rows that start at or below 0, as a pass's rows start at 0")
    starts, levels = np.array(reads, dtype=float).reshape(-1, 2).T
    reflected = [*pairs, *dict.fromkeys((b, b) for _, b in reads)]  # the asked pairs, then each read's anchor
    anchor = [reflected.index((b, b), len(pairs)) for _, b in reads]  # each read's column; split: its reads above b
    split = [[i for i, c in enumerate(anchor) if c == k and starts[i] > b] for k, (_, b) in enumerate(reflected)]
    running, control, r0 = np.empty((3, n_rows, len(reflected)))  # r0: R_0, which a read below b takes
    searched = [*reads, *passages, *((o, level) for o, level, _ in stops)]  # every first passage asked
    cuts = -np.array([_passage_cut(o, level) for o, level in searched])  # negated: searched in -m
    first = np.empty((n_rows, len(searched)), dtype=np.intp)
    tau = first[:, len(reads):len(reads) + len(passages)]
    m_first, pre, pre_b, pre_c = np.zeros((4, n_rows, len(reads)))  # m there; the prefix sums up to it
    y = np.empty((n_rows, len(rho)))
    to_tau = np.empty((n_rows, len(passages)))
    cols = np.cumsum([0] + [len(t) for _, _, t in stops])
    stop_at = np.empty((n_rows, cols[-1]), dtype=np.intp)
    stop_value, stop_integral = np.empty((2, n_rows, cols[-1]))
    udisc, occupation, n_bins = np.empty(n_rows), np.zeros(0), 0
    blocks = _row_blocks(n_rows, n_grid)
    buffers = np.empty((3 + bool(reads), blocks[0].stop if blocks else 0, n_grid))
    weights = np.tile(w, (len(buffers[0]), 1)) if hist else None  # the histogram's weight rows
    for rows in blocks:
        block = values[rows]
        m, r, u = buffers[:3, : len(block)]
        d = buffers[-1, : len(block)]  # R's increments: into u once f(U) is summed, a fourth buffer with reads
        np.fmin.accumulate(block, axis=-1, out=m)
        if searched:  # -m is nondecreasing: one search per row finds every first passage, bit for bit
            np.negative(m, out=r)
            first[rows] = [np.searchsorted(row, cuts, side="right") for row in r]
            m_first[rows] = np.take_along_axis(m, np.minimum(first[rows, :len(reads)], n_grid - 1), axis=1)
        for k, ((o, b), ks) in enumerate(zip(reflected, split)):
            np.maximum(np.subtract(b, np.add(m, o, out=r), out=r), 0.0, out=r)
            np.add(np.add(block, o, out=u), r, out=u)
            fu = np.asarray(f(u), dtype=float)
            running[rows, k] = _grid_sum(fu, w)
            d[:, 0] = r[:, 0]  # np.diff(r, prepend=0.0) bit for bit
            np.subtract(r[:, 1:], r[:, :-1], out=d[:, 1:])
            control[rows, k], r0[rows, k] = _grid_sum(d, disc), d[:, 0]
            for i in ks:  # prefix sums up to tau; r is free
                np.add(block, starts[i], out=r)
                for p, j in enumerate(first[rows, i].tolist()):
                    pre[rows.start + p, i] = _grid_sum(f(r[p, :j]), w[:j])
                    if j < n_grid:
                        pre_b[rows.start + p, i] = _grid_sum(fu[p, :j], w[:j])
                        pre_c[rows.start + p, i] = _grid_sum(d[p, :j + 1], disc[:j + 1])
        for k, (o, level) in enumerate(passages):
            if f_prime is not None:
                end = max(1, tau[rows, k].max())  # the block's last passage: no later f'_+ is summed
                g = np.asarray(f_prime(np.add(block[:, :end], o, out=u[:, :end])), dtype=float)
                to_tau[rows, k] = stopped_integral(g, w[:end], tau[rows, k:k + 1])[:, 0]
        for s, ((o, level, times), lo, hi) in enumerate(zip(stops, cols, cols[1:]), len(reads) + len(passages)):
            j = np.minimum(first[rows, s:s + 1], times)
            stop_at[rows, lo:hi] = j
            stop_value[rows, lo:hi] = np.take_along_axis(np.add(block, o, out=u), j, axis=1)
            end = max(times) + 1  # no path stops later
            stop_integral[rows, lo:hi] = stopped_integral(np.asarray(f(u[:, :end]), dtype=float), w[:end], j)
        if rho or hist:
            np.subtract(block, np.minimum(m, 0.0, out=r), out=r)
            for k, b in enumerate(rho):
                y[rows, k] = _grid_sum(f_prime(np.add(r, b, out=u)), w)
        if hist:
            udisc[rows] = _grid_sum(r, w)
            top = r.max() / hist
            if top * BATCHES > HISTOGRAM_FLOATS:
                raise ValueError(f"bisect_tol too small: {top:.3g} bins per batch exceed the "
                                 f"{HISTOGRAM_FLOATS}-float histogram budget over {BATCHES} batches")
            n_bins = max(n_bins, int(np.rint(top)) + 1)  # rounding is monotone: the block's top bin
            if n_bins > len(occupation):  # room for twice the bins, cut to n_bins on return
                occupation = np.concatenate((occupation, np.zeros(2 * n_bins - len(occupation))))
            bins = np.rint(np.divide(r, hist, out=r), out=r).astype(np.intp)
            np.add.at(occupation, bins.ravel(), weights[: len(block)].ravel())  # 1-D operands: numpy's fast path
    out = {"pp_running": np.ascontiguousarray(running[:, :len(pairs)]),
           "pp_control": np.ascontiguousarray(control[:, :len(pairs)])}
    if reads:
        run_b, ctl_b, r0_b = running[:, anchor], control[:, anchor], r0[:, anchor]
        first = first[:, :len(reads)]
        never = first == n_grid
        pre_c = np.where(first == 0, disc[0] * r0_b, pre_c)
        control = disc[np.minimum(first, n_grid - 1)] * np.maximum(levels - (m_first + starts), 0.0)
        control += ctl_b - pre_c
        at = starts == levels
        out["pp_read_running"] = np.where(at, run_b, np.where(never, pre, pre + (run_b - pre_b)))
        out["pp_read_control"] = np.where(at, ctl_b, np.where(never, 0.0, control))
    if rho:
        out["pp_y"] = y
    if passages:
        out["pp_tau_disc"] = np.append(disc, 0.0)[tau]
        if f_prime is not None:
            out["pp_fprime_to_tau"] = to_tau
    if stops:
        out.update(pp_stop_at=stop_at, pp_stop_value=stop_value, pp_stop_integral=stop_integral)
    if hist:
        out.update(pp_udisc=udisc, acc_hist=occupation[:n_bins])
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


def _process_chunk(triplet, cfg, lo, hi, anti, reducer) -> dict:
    return reducer(_simulate_chunk(triplet, cfg, lo, hi, anti))


def _merge(plan: list, partials) -> dict:
    """Merge the chunk partials as they arrive (each dropped once merged), in chunk order (fixed
    float summation order); each batch's ``acc_*`` row grows alone and is returned as it is, never
    stacked, so the accumulators are held once."""
    out: dict = {}
    for (_, _, g), part in zip(plan, partials):
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
    for key, val in out.items():
        out[key] = np.concatenate(val, axis=0) if key.startswith("pp_") else [val[g] for g in sorted(val)]
    return out


def _copies(plan: list, part: dict) -> dict:
    """The merge of ``plan`` with every path a copy of the one-path partial ``part``: rows repeated,
    accumulators scaled by each chunk's path count.  Batches with the same chunk sizes (at most two
    kinds, as batch sizes differ by at most one) share one merged row by reference."""
    sizes: dict = {}
    for lo, hi, g in plan:
        sizes[g] = sizes.get(g, ()) + (hi - lo,)
    acc = {k: v for k, v in part.items() if not k.startswith("pp_")}  # _merge refuses unknown keys
    rows = {n: _merge([(0, 0, 0)] * len(n), ({k: np.multiply(v, c) for k, v in acc.items()} for c in n))
            for n in set(sizes.values())}
    out = {k: np.repeat(v, plan[-1][1], axis=0) for k, v in part.items() if k.startswith("pp_")}
    return out | {k: [rows[sizes[g]][k][0] for g in sorted(sizes)] for k in acc}


def map_reduce_paths(triplet: LevyTriplet, cfg: SimConfig, reducer, n_workers: int = 1) -> dict:
    """Simulate each chunk of paths from 0 once, pass it to ``reducer``, and merge.

    ``reducer`` is a one-argument callable (picklable for a pool: a
    ``functools.partial`` of a module-level chunk function, ``value_chunk``
    for every pass in the package) that receives the (chunk_paths, n_grid)
    value matrix and returns a dict whose keys select the merge rule:
    ``pp_*`` per-path rows (concatenated in path order) and ``acc_*``
    accumulator arrays (summed per path batch in chunk order into a list of
    one row per batch, in batch order, each right-padded along the last axis
    to its batch's widest partial).  Chunks hold at most
    ``CHUNK_TARGET_FLOATS`` floats, read when the pass starts.  The chunk
    plan depends only on (n_paths, n_grid, antithetic pairing), so results
    are identical for any worker count.

    Pure-drift models collapse to a single representative path whose partials
    are expanded law-exactly (identical rows, accumulators scaled by each
    batch's path count, ``_copies``); stderr over paths is exactly zero there,
    as it should be.  Scaling and then dividing by a batch size rounds, so a
    caller wanting per-batch means of such a model takes them equal.
    """
    anti = _antithetic_active(triplet, cfg, warn=True)
    if triplet.is_deterministic:
        plan = _chunk_plan(cfg.n_paths, 1, anti, cfg.n_paths)  # whole batches (halves if paired)
        return _copies(plan, _process_chunk(triplet, cfg, 0, 1, anti, reducer))

    plan = _chunk_plan(cfg.n_paths, cfg.n_steps + 1, anti, CHUNK_TARGET_FLOATS)
    if n_workers <= 1 or len(plan) == 1:
        return _merge(plan, (_process_chunk(triplet, cfg, lo, hi, anti, reducer) for lo, hi, _ in plan))
    from concurrent.futures import ProcessPoolExecutor  # here: a one-worker run never pays for loading it
    with ProcessPoolExecutor(max_workers=n_workers) as ex:
        chunk = functools.partial(_process_chunk, triplet, cfg, anti=anti, reducer=reducer)
        los, his, _ = zip(*plan)  # map yields in chunk order and holds no result it has yielded
        return _merge(plan, ex.map(chunk, los, his))
