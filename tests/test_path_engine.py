import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levybarrier import (
    JumpSpec,
    LevyTriplet,
    SimConfig,
    barrier_sweep,
    builtin_cost,
    driftless_compound_poisson,
    estimators,
    path_engine,
    solve_barrier,
    solve_barrier_perturbed,
)
from levybarrier.cost_model import ProblemSpec
from levybarrier.estimators import estimate_rho, estimate_value, skeleton_rho_curve
from levybarrier.verification import run_checks
from levybarrier.path_engine import (
    BATCHES,
    DOT_SLICE,
    LATTICE_A,
    _batch_path_counts,
    _chunk_plan,
    _grid_sum,
    _path_rngs,
    _radical_inverse,
    _simulate_chunk,
    clock_skeleton,
    discount_factors,
    discounted_integral,
    discounted_stieltjes,
    first_passage_index,
    horizon_for,
    integral_weights,
    map_reduce_paths,
    reflect_arrays,
    simulate_batch,
    stopped_integral,
    value_chunk,
)

BM = LevyTriplet(gamma=0.0, sigma=1.0)
DRIFT_UP = LevyTriplet(gamma=1.0, sigma=0.0)


def test_pure_drift_paths_exact():
    cfg = SimConfig(dt=0.5, horizon_T=1.0, n_paths=4, master_seed=1, tail_tol=0.999)
    batch = simulate_batch(DRIFT_UP, 0.0, cfg)
    assert np.allclose(batch, [[0.0, 0.5, 1.0]] * 4)


def test_variance_of_unit_bm():
    n = 100_000
    cfg = SimConfig(dt=0.01, horizon_T=1.0, n_paths=n, master_seed=2024, tail_tol=0.999)
    batch = simulate_batch(BM, 0.0, cfg)
    var = batch[:, -1].var()
    assert abs(var - 1.0) <= 0.02


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "x, b, r_expect, u_expect",
    [
        ([0.0, 1.0, 2.0], 0.0, [0, 0, 0], [0.0, 1.0, 2.0]),
        ([0.0, -1.0, 0.5], 0.0, [0, 1, 1], [0.0, 0.0, 1.5]),
        ([1.0, 0.2, -0.4], 0.5, [0.0, 0.3, 0.9], [1.0, 0.5, 0.5]),
    ],
)
def test_reflect_hand_cases(x, b, r_expect, u_expect):
    u, r, _ = reflect_arrays(np.asarray([x], dtype=float), b)
    assert np.allclose(r[0], r_expect)
    assert np.allclose(u[0], u_expect)


def _reflect_brute(path, b):
    r, u = [], []
    for i in range(len(path)):
        r_i = -min(0.0, min(path[: i + 1]) - b)
        r.append(r_i)
        u.append(path[i] + r_i)
    return np.asarray(u), np.asarray(r)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=30),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_reflect_matches_definition(path, b):
    u, r, tau = reflect_arrays(np.asarray([path]), b)
    u_ref, r_ref = _reflect_brute(path, b)
    assert np.allclose(u[0], u_ref, atol=1e-12)
    assert np.allclose(r[0], r_ref, atol=1e-12)
    crossings = [i for i, v in enumerate(path) if v < b]
    assert tau[0] == (crossings[0] if crossings else len(path))
    # invariants: R nondecreasing, U >= b, R_0 = max(0, b - x_0)
    assert np.all(np.diff(r[0]) >= 0)
    assert np.all(u[0] >= b - 1e-12)
    assert r[0][0] == max(0.0, b - path[0])


def test_reflect_barrier_monotonicity():
    cfg = SimConfig(dt=0.01, horizon_T=2.0, n_paths=50, master_seed=7, tail_tol=0.999)
    batch = simulate_batch(BM, 0.0, cfg)
    b1, b2 = -0.5, 0.25
    u1, r1, _ = reflect_arrays(batch, b1)
    u2, r2, _ = reflect_arrays(batch, b2)
    du = u2 - u1
    dr = r2 - r1
    gap = b2 - b1
    assert np.all(du >= -1e-12) and np.all(du <= gap + 1e-12)
    assert np.all(dr >= -1e-12) and np.all(dr <= gap + 1e-12)


_path_rows = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=12
)
_levels = st.floats(min_value=-3, max_value=3, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_path_rows, min_size=1, max_size=4),
    st.lists(_levels, min_size=1, max_size=3),
    st.lists(_levels, min_size=1, max_size=3),
)
def test_value_kernel_matches_reflection_per_pair(rows, offsets, barriers):
    # rows cut to one length, plus a path that never crosses and one starting below
    width = min(len(r) for r in rows)
    values = np.asarray([r[:width] for r in rows] + [[10.0] * width, [-10.0] * width])
    q, dt = 0.7, 0.1
    f = lambda u: u**2 + np.sin(u)
    f_prime = lambda u: 2 * u + np.cos(u)
    pairs = [(o, b) for o in offsets for b in barriers]
    passages = [(o, level) for o in offsets for level in barriers]
    out = value_chunk(values, pairs=tuple(pairs), f=f, q=q, dt=dt, passages=tuple(passages), f_prime=f_prime)
    w, disc = integral_weights(q, dt, width), discount_factors(q, dt, width)
    for k, (o, b) in enumerate(pairs):
        u, r, _ = reflect_arrays(values + o, b)
        assert np.array_equal(out["pp_running"][:, k], discounted_integral(f(u), q, dt))
        assert np.array_equal(out["pp_control"][:, k], discounted_stieltjes(r, q, dt))
    for k, (o, level) in enumerate(passages):
        # first passage of the path values + o, n_grid if never
        base = values + o
        tau = first_passage_index(np.minimum.accumulate(base, axis=-1), level)
        _, _, tau_ref = reflect_arrays(base, level)
        assert np.array_equal(tau, tau_ref)
        tau_disc = np.where(tau < width, disc[np.minimum(tau, width - 1)], 0.0)
        assert np.array_equal(out["pp_tau_disc"][:, k], tau_disc)
        stopped = [float(np.sum(f_prime(base[p, :t]) * w[:t])) for p, t in enumerate(tau)]
        assert np.allclose(out["pp_fprime_to_tau"][:, k], stopped, rtol=1e-12, atol=1e-12)


def test_reads_bit_identical_across_workers():
    cfg = SimConfig(dt=0.05, horizon_T=4.0, n_paths=130, master_seed=21)
    cost = builtin_cost("quadratic")
    reads = tuple((o, b) for b in (-0.8, -0.75) for o in (-2.0, -0.75, 0.25, 1.5))
    reducer = functools.partial(value_chunk, pairs=(), f=cost.f, q=0.5, dt=cfg.dt, reads=reads)
    one, two = (map_reduce_paths(KOU_SYM, cfg, reducer, n_workers=n) for n in (1, 2))
    assert all(_same_bits(one[key], two[key]) for key in ("pp_read_running", "pp_read_control"))


def _block_split(monkeypatch, s: int, width: int) -> None:
    """Patch BLOCK_FLOATS so that rows of ``width`` come s at a time; s = 1 with a row wider than a block."""
    monkeypatch.setattr(path_engine, "BLOCK_FLOATS", s * width if s > 1 else width - 1)


_SPLITS = [(3, 1), (3, 2), (3, 3), (3, 4), (3, 7), (1, 1), (1, 2), (1, 3)]  # (s, rows): 1, s-1, s, s+1, 2s+1


def _assert_reads_match_reflection(values, reads, q=0.7, dt=0.1):
    """Each read of ``value_chunk`` within rel 1e-12 of reflecting its (offset, barrier) pair, against the
    absolute sums it is formed from (those of the pair and of its at-barrier pair (b, b)) and the operands
    each u and R rounds (f' = 2u + cos u is at most 2|u| + 1)."""
    f = lambda u: u**2 + np.sin(u)
    out = value_chunk(values, pairs=(), f=f, q=q, dt=dt, reads=tuple(reads))
    w, disc = integral_weights(q, dt, values.shape[1]), discount_factors(q, dt, values.shape[1])
    for k, (o, b) in enumerate(reads):
        u, r, _ = reflect_arrays(values + o, b)
        u_b, r_b, _ = reflect_arrays(values + b, b)
        running, control = discounted_integral(f(u), q, dt), discounted_stieltjes(r, q, dt)
        operands = np.abs(values) + np.abs(np.minimum.accumulate(values, axis=1)) + abs(o) + abs(b)
        scale = _grid_sum(np.abs(f(u)) + np.abs(f(u_b)) + np.abs(f(values + o)) + (2 * np.abs(u) + 1) * operands, w)
        assert np.all(np.abs(out["pp_read_running"][:, k] - running) <= 1e-12 * scale)
        scale = control + discounted_stieltjes(r_b, q, dt) + _grid_sum(operands, disc)
        assert np.all(np.abs(out["pp_read_control"][:, k] - control) <= 1e-12 * scale)
        if o == b:  # the at-barrier pair is the reflection itself
            assert np.array_equal(out["pp_read_running"][:, k], running)
            assert np.array_equal(out["pp_read_control"][:, k], control)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_path_rows, min_size=1, max_size=4),
    st.lists(_levels, min_size=1, max_size=3),
    st.lists(_levels, min_size=1, max_size=3),
)
def test_read_off_the_barrier_matches_reflection_per_pair(rows, offsets, barriers):
    # rows shifted to start at 0 and a path that never goes below 0, each with its antithetic mirror, and
    # a row starting below 0; every barrier with a start below it (tau = 0)
    width = min(len(r) for r in rows)
    drawn = np.asarray([r[:width] for r in rows])
    values = np.concatenate([drawn - drawn[:, :1], [[0.0] + [10.0] * (width - 1)]])
    values = np.concatenate([values, -values, [[-10.0] * width]])
    reads = [(o, b) for b in barriers for o in offsets + [b, b - 1.0]]
    _assert_reads_match_reflection(values, reads)


def test_reads_refuse_a_row_starting_above_0():
    # from tau on a read is the (b, b) path only while m <= 0, which a row starting above 0 may not be
    values = np.array([[0.0, -1.0, 2.0], [0.5, -1.0, 2.0]])
    out = value_chunk(values, pairs=((0.3, -0.5),), f=np.square, q=0.7, dt=0.1)  # a reflection takes any row
    assert out["pp_running"].shape == (2, 1)
    with pytest.raises(ValueError, match="start at or below 0"):
        value_chunk(values, pairs=(), f=np.square, q=0.7, dt=0.1, reads=((0.3, -0.5),))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=-1e6, max_value=1e6))
def test_passage_cut_is_the_least_float_not_passing(o, level):
    # fl(m + o) < level exactly when m < cut, found where ulp(level - o) << ulp(o) too
    for level in (level, o + 1e-10, o):
        cut = path_engine._passage_cut(o, level)
        assert cut + o >= level and not np.nextafter(cut, -np.inf) + o >= level


def test_read_at_an_exact_tie_and_past_a_dot_slice():
    # fl(m_i + o) == b is no passage (the path is not strictly below b); rows longer than DOT_SLICE
    # sum their prefixes in slices
    rng = np.random.default_rng(3)
    long = np.cumsum(rng.normal(scale=0.02, size=(3, DOT_SLICE + 700)), axis=1)
    long[:, 0] = 0.0
    _assert_reads_match_reflection(long, [(o, -0.5) for o in (-1.0, -0.5, 0.0, 0.4, 3.0)], dt=1e-3)
    tie = np.array([[0.0, 0.3, -1.5, -1.5, 0.2, -1.5, -2.0, 1.0], [0.0, -0.1, -1.5, 0.5, -1.2, -1.5, 0.0, 2.0]])
    o = 0.7
    b = -1.5 + o  # fl(-1.5 + o): the minimum -1.5 ties, then -2.0 passes
    assert -1.5 + o == b and first_passage_index(np.minimum.accumulate(tie, axis=1) + o, b).tolist() == [6, 8]
    _assert_reads_match_reflection(tie, [(o, b), (o + 0.1, b), (b, b)])


@pytest.mark.parametrize("s, n_rows", _SPLITS)
def test_reads_bit_identical_across_row_blocks_and_other_reads(monkeypatch, s, n_rows):
    # a read depends on its row, offset and barrier alone: not on the block cutting the chunk,
    # nor on the other reads of its barrier
    width, q, dt = 9, 0.7, 0.1
    rng = np.random.default_rng(n_rows)
    values = np.cumsum(rng.normal(size=(n_rows, width)), axis=1)
    values[:, 0] = 0.0
    if n_rows > 1:
        values[-1] = np.abs(values[-1])  # never below 0
    f = lambda u: u**2 + np.sin(u)
    reads = tuple((o, b) for b in (-1.0, 0.25) for o in (-2.0, -1.0, 0.25, 0.5, 1.7))
    whole = value_chunk(values, pairs=(), f=f, q=q, dt=dt, reads=reads)
    _block_split(monkeypatch, s, width)
    split = value_chunk(values, pairs=(), f=f, q=q, dt=dt, reads=reads)
    for key in ("pp_read_running", "pp_read_control"):
        assert _same_bits(split[key], whole[key])
        for k, read in enumerate(reads):
            alone = value_chunk(values, pairs=(), f=f, q=q, dt=dt, reads=(read,))
            assert _same_bits(alone[key][:, 0], whole[key][:, k])


@pytest.mark.parametrize("s, n_rows", _SPLITS)
def test_grid_reducers_bit_identical_across_row_blocks(monkeypatch, s, n_rows):
    # the property of test_value_kernel_matches_reflection_per_pair, with blocks cutting the chunk:
    # every figure equals its unblocked formula bit for bit, the histogram one np.bincount over the
    # chunk in ravel order
    width, q, dt, h = 9, 0.7, 0.1, 0.01
    _block_split(monkeypatch, s, width)
    assert path_engine._row_blocks(n_rows, width) == [slice(lo, min(lo + s, n_rows)) for lo in range(0, n_rows, s)]
    rng = np.random.default_rng(n_rows)
    values = np.cumsum(rng.normal(size=(n_rows, width)), axis=1) + rng.uniform(-2.0, 2.0, (n_rows, 1))
    if n_rows > 1:
        values[-1] = 10.0  # never crosses
    f = lambda u: u**2 + np.sin(u)
    f_prime = lambda u: 2 * u + np.cos(u)
    offsets, levels = (-0.5, 0.0, 0.7), (-1.0, 0.0, 1.5)
    pairs = tuple((o, b) for o in offsets for b in levels)
    b_values = (-1.0, 0.25, 2.0)
    stops = ((0.0, -1.0, (0, 3, 8)), (0.7, 0.0, (2,)), (0.7, 1.5, (0, 8)))
    out = value_chunk(values, pairs=pairs, f=f, q=q, dt=dt, passages=pairs, f_prime=f_prime, rho=b_values,
                      stops=stops, hist=h)
    w, disc = integral_weights(q, dt, width), discount_factors(q, dt, width)
    for k, (o, b) in enumerate(pairs):
        u, r, tau = reflect_arrays(values + o, b)
        assert np.array_equal(out["pp_running"][:, k], discounted_integral(f(u), q, dt))
        assert np.array_equal(out["pp_control"][:, k], discounted_stieltjes(r, q, dt))
        assert np.array_equal(out["pp_tau_disc"][:, k], np.append(disc, 0.0)[tau])
        stopped = stopped_integral(f_prime(values + o), w, tau[:, None])[:, 0]
        assert np.array_equal(out["pp_fprime_to_tau"][:, k], stopped)
    rho = out["pp_y"]
    z = reflect_arrays(values, 0.0)[0]
    assert np.array_equal(rho, np.stack([_grid_sum(f_prime(z + b), w) for b in b_values], axis=1))
    lo = 0
    for o, level, times in stops:
        cols = slice(lo, lo + len(times))
        j = np.minimum(reflect_arrays(values + o, level)[2][:, None], times)
        assert np.array_equal(out["pp_stop_at"][:, cols], j)
        assert np.array_equal(out["pp_stop_value"][:, cols], np.take_along_axis(values + o, j, axis=1))
        assert np.array_equal(out["pp_stop_integral"][:, cols], stopped_integral(f(values + o), w, j))
        lo = cols.stop
    assert np.array_equal(out["pp_udisc"], _grid_sum(z, w))
    bins = np.rint(z / h).astype(np.int64).ravel()
    assert out["acc_hist"].tobytes() == np.bincount(bins, weights=np.broadcast_to(w, z.shape).ravel()).tobytes()


@pytest.mark.parametrize("s", [1, 2, 5])
def test_grid_reducers_ignore_the_sign_of_a_zero(monkeypatch, s):
    # -0.0 path values, with running minima tied between +0.0 and -0.0, give every output of
    # value_chunk byte-equal to the same block with +0.0 there: each value meets an offset or a
    # barrier (not -0.0) by an add, a bin by rounding, and every sum starts at +0.0
    width, q, dt, h = 9, 0.7, 0.1, 0.01
    _block_split(monkeypatch, s, width)
    signed = np.array([[0.0, -0.0, 0.5, -0.0, 0.0, 1.0, -0.0, 2.0, 0.3],
                       [-0.0, 0.7, -0.0, 0.0, -0.0, -1.0, -0.0, 0.0, 0.2],
                       [0.0, 1.2, 0.0, -0.0, 3.0, -0.0, 0.0, 0.5, -0.0],
                       [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
                       [0.0, -0.4, -0.0, 0.0, 0.0, -0.0, 0.6, -0.0, 1.0]])
    unsigned, zero = signed + 0.0, signed == 0.0
    assert np.signbit(signed[zero]).sum() == 22 and not np.signbit(unsigned[zero]).any()
    m = np.fmin.accumulate(signed, axis=1)  # +0.0 and -0.0 both in the minimum's zero stretches
    assert np.signbit(m[m == 0.0]).any() and not np.signbit(m[m == 0.0]).all()
    cost = builtin_cost("quadratic")
    f, f_prime = (lambda u: u**2 + np.sin(u)), (lambda u: 2 * u + np.cos(u))
    offsets, levels = (-0.5, 0.0, 0.7), (-1.0, 0.0, 1.5)
    pairs = tuple((o, b) for o in offsets for b in levels)
    stops = ((0.0, 0.0, (0, 3, 8)), (0.7, 0.0, (2,)), (0.0, -1.0, (0, 8)))
    for fs in ((f, f_prime), (cost.f, cost.f_prime_plus)):
        kwargs = dict(pairs=pairs, f=fs[0], q=q, dt=dt, passages=pairs, f_prime=fs[1], rho=(-1.0, 0.0, 2.0),
                      stops=stops, hist=h)
        for keep in ({}, dict(pairs=(), passages=(), rho=(), stops=())):  # the histogram alone too
            got, want = value_chunk(signed, **kwargs | keep), value_chunk(unsigned, **kwargs | keep)
            assert got.keys() == want.keys()
            for key in want:
                assert _same_bits(got[key], want[key]), key


@pytest.mark.parametrize("method", ["time_integral", "exp_clock"])
@pytest.mark.parametrize("s, n_paths", _SPLITS)
def test_skeleton_rho_bit_identical_across_row_blocks(monkeypatch, s, n_paths, method):
    cp = LevyTriplet(0.1, 0.0, jumps=JumpSpec.atom_sizes(1.0, (-1.0, 0.5), (0.5, 0.5)))
    problem = ProblemSpec(builtin_cost("quadratic"), 0.5, 0.5)
    cfg = SimConfig(dt=0.1, horizon_T=1.0, n_paths=n_paths, master_seed=29, tail_tol=1e-2)
    k = path_engine._clock_segments(cp.jumps.rate, problem.q, cfg.tail_tol)
    _block_split(monkeypatch, s, k)
    seen = []
    rho_curve = estimators._rho_curve
    monkeypatch.setattr(estimators, "_rho_curve", lambda y, *a, **kw: seen.append(y.copy()) or rho_curve(y, *a, **kw))
    b_grid = (-1.0, 0.25, 2.0)
    skeleton_rho_curve(cp, problem, b_grid, cfg, method)
    read = clock_skeleton(cp, cfg, problem.q)
    z = (read.u0 if method == "time_integral" else read.suprema)(cp.effective_drift)
    w = read.pi / problem.q
    want = np.stack([_grid_sum(problem.cost.f_prime_plus(z + b), w) for b in b_grid], axis=1)
    assert np.array_equal(seen[0], want)


def test_grid_reducers_allocate_no_chunk_sized_temporaries(traced_peak):
    # a kou_verify-sized chunk of 64 rows x 9,212 points: value_chunk with 19 pairs and one passage
    # with f'_+, a 41-barrier rho-hat curve, the martingale check's stopped values and the solver's
    # histogram keep block-sized buffers beside their outputs
    rng = np.random.default_rng(5)
    values = np.cumsum(rng.normal(0.0, 0.035, (64, 9212)), axis=1)
    cost, q, dt = builtin_cost("quadratic"), 0.5, 2e-3
    pairs = tuple((o, -1.0 + 0.1 * j) for o in (-0.05, 0.0, 0.05) for j in range(6)) + ((0.0, -0.75),)
    reducers = {
        "value_chunk": functools.partial(value_chunk, pairs=pairs, f=cost.f, q=q, dt=dt,
                                         passages=((0.0, -0.75),), f_prime=cost.f_prime_plus),
        "rho": functools.partial(value_chunk, pairs=(), f=cost.f, q=q, dt=dt, f_prime=cost.f_prime_plus,
                                 rho=tuple(np.linspace(-2.0, 1.0, 41))),
        "stops": functools.partial(value_chunk, pairs=(), f=cost.f, q=q, dt=dt,
                                   stops=((0.25, -0.75, (0, 250, 500, 750, 1000, 1250)),)),
        "histogram": functools.partial(value_chunk, pairs=(), f=cost.f, q=q, dt=dt, hist=2.5e-4),
    }
    for name, reduce in reducers.items():
        out, peak = traced_peak(lambda: reduce(values))
        assert peak - sum(v.nbytes for v in out.values()) < values.nbytes / 2, name


def test_stopped_integral_is_a_prefix_sum():
    g = np.arange(12.0).reshape(2, 6)
    w = np.full(6, 0.5)
    idx = np.array([[0, 1, 6], [3, 3, 2]])
    got = stopped_integral(g, w, idx)
    want = [[0.0, 0.0, 7.5], [0.5 * (6 + 7 + 8)] * 2 + [0.5 * (6 + 7)]]
    assert np.array_equal(got, want)


def test_atom_increments_are_jump_multiples():
    # pure compound Poisson with atoms -1 and 0.5: every grid increment is
    # the drift step plus a whole number of half units of booked jumps
    cp = LevyTriplet(0.0, 0.0, jumps=JumpSpec.atom_sizes(2.0, (-1.0, 0.5), (0.5, 0.5)))
    cfg = SimConfig(dt=0.1, horizon_T=2.0, n_paths=5, master_seed=17, tail_tol=0.999)
    batch = simulate_batch(cp, 0.0, cfg)
    jumps = np.diff(batch, axis=-1) - cp.effective_drift * cfg.dt
    halves = np.rint(jumps / 0.5)
    assert np.allclose(jumps, 0.5 * halves, rtol=0.0, atol=1e-12)
    assert np.any(halves != 0)  # some cells did book jumps


def test_jump_counts_per_cell_are_poisson_and_uniform_in_time():
    # a +1 atom with rate * dt = 0.05: a cell's increment counts its jumps,
    # which must be Poisson(0.05) however the draws place them in time
    up = LevyTriplet(0.0, 0.0, jumps=JumpSpec.atom_sizes(1.0, (1.0,), (1.0,)))
    cfg = SimConfig(dt=0.05, horizon_T=5.0, n_paths=4000, master_seed=23, tail_tol=0.999)
    counts = np.rint(np.diff(simulate_batch(up, 0.0, cfg), axis=-1))
    lam, n = 0.05, counts.size
    p0, p1 = math.exp(-lam), lam * math.exp(-lam)
    for freq, p in ((counts == 0, p0), (counts == 1, p1), (counts >= 2, 1.0 - p0 - p1)):
        assert abs(freq.mean() - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)
    half = counts.shape[1] // 2
    early, late = counts[:, :half].mean(), counts[:, half:].mean()
    assert abs(early - late) <= 4.0 * math.sqrt(2.0 * lam / (n / 2))


def test_translation_covariance():
    cfg = SimConfig(dt=0.05, horizon_T=1.0, n_paths=20, master_seed=5, tail_tol=0.999)
    kou = LevyTriplet(0.1, 0.3, jumps=JumpSpec.kou_mixture(2.0, 0.4, 2.0, 3.0))
    a = simulate_batch(kou, 0.0, cfg)
    b = simulate_batch(kou, 1.5, cfg)
    assert np.allclose(b, a + 1.5, atol=1e-12)


# ---------------------------------------------------------------------------
# discounted functionals
# ---------------------------------------------------------------------------


def test_discounted_integral_constant():
    q, dt, T = 1.0, 1e-3, 20.0
    g = np.ones(int(T / dt) + 1)
    val = discounted_integral(g, q, dt)
    assert val == pytest.approx(1.0, abs=dt + np.exp(-T))


def test_discounted_integral_zero():
    assert discounted_integral(np.zeros(100), 0.7, 0.01) == 0.0


def test_discounted_integral_linear():
    q, dt, T = 0.1, 0.01, 100.0
    t = np.arange(int(T / dt) + 1) * dt
    val = discounted_integral(t, q, dt)
    assert val == pytest.approx(1.0 / q**2, rel=0.01)


def test_discounted_stieltjes_cases():
    assert discounted_stieltjes(np.zeros(50), 0.5, 0.1) == 0.0
    r0 = np.full(11, 5.0)  # atom at time 0 is charged undiscounted
    assert discounted_stieltjes(r0, 0.5, 0.1) == 5.0
    q, dt, T = 0.5, 1e-3, 40.0
    t = np.arange(int(T / dt) + 1) * dt
    assert discounted_stieltjes(t, q, dt) == pytest.approx(1.0 / q, rel=0.01)


# ---------------------------------------------------------------------------
# determinism and streaming
# ---------------------------------------------------------------------------


def test_same_seed_bit_identical():
    cfg = SimConfig(dt=0.02, horizon_T=1.0, n_paths=16, master_seed=11, tail_tol=0.999)
    kou = LevyTriplet(0.0, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 2.0, 2.0))
    a = simulate_batch(kou, 0.0, cfg)
    b = simulate_batch(kou, 0.0, cfg)
    assert np.array_equal(a, b)


def test_path_reproducible_independent_of_batch():
    cfg = SimConfig(dt=0.02, horizon_T=1.0, n_paths=8, master_seed=11, tail_tol=0.999)
    kou = LevyTriplet(0.0, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 2.0, 2.0))
    full = simulate_batch(kou, 0.0, cfg)
    row5 = _simulate_chunk(kou, cfg, 5, 6, False)
    assert np.array_equal(full[5], row5[0])


# ---------------------------------------------------------------------------
# per-path streams: NumPy's own seeding is the reference
# ---------------------------------------------------------------------------

STREAMS = [*range(50), 123_456, 2**31, 2**32 - 1]


def _seed_sequence_rng(master_seed, stream):
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(master_seed, spawn_key=(stream,))))


@pytest.mark.parametrize("master_seed", [0, 7, 611, 2**32 + 5, 2**70 + 3, 12 * 10**39])
def test_stream_states_equal_seed_sequence(master_seed):
    for stream, rng in zip(STREAMS, _path_rngs(master_seed, STREAMS), strict=True):
        assert rng.bit_generator.state == _seed_sequence_rng(master_seed, stream).bit_generator.state


def _reference_chunk(triplet, x_start, cfg, lo, hi, anti):
    """Paths lo..hi-1 one at a time, each from its own SeedSequence, in the contract-6 draw order."""
    n, half, drift = cfg.n_steps, cfg.n_paths // 2, triplet.effective_drift * cfg.dt
    rows = []
    for p in range(lo, hi):
        mirror = anti and p >= half
        rng = _seed_sequence_rng(cfg.master_seed, p - half if mirror else p)
        incr = np.full(n, drift)
        if triplet.sigma > 0:
            incr = rng.standard_normal(n) * ((-1.0 if mirror else 1.0) * triplet.sigma * math.sqrt(cfg.dt))
            incr += drift
        total = int(rng.poisson(triplet.jumps.rate * n * cfg.dt)) if triplet.jumps.rate > 0 else 0
        if total:
            cells = np.minimum((rng.random(total) * n).astype(np.int64), n - 1)
            m = triplet.jumps.uniforms_per_size  # m blocks of `total` uniforms u = 1 - U
            sizes = triplet.jumps.from_uniforms((1.0 - rng.random(m * total)).reshape(m, total))
            incr += np.bincount(cells, weights=-sizes if mirror else sizes, minlength=n)
        rows.append(np.concatenate([[x_start], np.cumsum(incr) + x_start]))
    return np.array(rows)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


SYM_ATOMS = LevyTriplet(0.1, 0.4, jumps=JumpSpec.atom_sizes(2.0, (-1.0, 1.0), (0.5, 0.5)))


@pytest.mark.parametrize("triplet, antithetic", [
    (BM, False),
    (LevyTriplet(0.2, 0.5, jumps=JumpSpec.kou_mixture(3.0, 0.4, 2.0, 3.0)), False),
    (LevyTriplet(0.3, 0.0, jumps=JumpSpec.atom_sizes(2.0, (-1.0, 0.5), (0.3, 0.7))), False),
    (BM, True),
    (SYM_ATOMS, True),
    (LevyTriplet(-0.1, 0.3, jumps=JumpSpec.gaussian_sizes(2.5, 0.2, 0.6)), False),
    (LevyTriplet(0.2, 0.0, jumps=JumpSpec.uniform_sizes(2.5, -0.8, 0.5)), False),
])
def test_chunk_matches_per_path_seed_sequences(triplet, antithetic):
    cfg = SimConfig(dt=0.01, horizon_T=2.0, n_paths=40, master_seed=611, antithetic=antithetic, tail_tol=0.999)
    for lo, hi in ((0, 40), (13, 31)):  # the second straddles the mirrored half
        for x in (0.0, -0.7):
            expect = _reference_chunk(triplet, x, cfg, lo, hi, antithetic)
            assert _same_bits(_simulate_chunk(triplet, cfg, lo, hi, antithetic) + x, expect)


def _parent_chunk(triplet, cfg, lo, hi, anti):
    """``_simulate_chunk`` as full-row passes: a per-row sign times the scale, the drift step added
    even when 0, each path's jumps added as a full-row ``np.bincount``; and, per path with jumps,
    whether two of them share a cell."""
    n_steps, rate, half = cfg.n_steps, triplet.jumps.rate, cfg.n_paths // 2
    paths = np.arange(lo, hi)
    mirror = anti & (paths >= half)
    values, jumps = np.empty((hi - lo, n_steps + 1)), []
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
        incr *= np.where(mirror, -1.0, 1.0)[:, None] * triplet.sigma * math.sqrt(cfg.dt)
        incr += triplet.effective_drift * cfg.dt
    else:
        incr[:] = triplet.effective_drift * cfg.dt
    for j, cells, sizes in jumps:
        incr[j] += np.bincount(cells, weights=sizes, minlength=n_steps)
    np.cumsum(incr, axis=1, out=incr)
    values[:, 0] = 0.0
    return values, [len(np.unique(cells)) < len(cells) for _, cells, _ in jumps]


KOU_SYM = LevyTriplet(0.0, 0.5, jumps=JumpSpec.kou_mixture(6.0, 0.5, 2.0, 2.0))


@pytest.mark.parametrize("triplet, antithetic", [
    (KOU_SYM, True),
    (KOU_SYM, False),
    (LevyTriplet(0.2, 0.5, jumps=JumpSpec.kou_mixture(6.0, 0.4, 2.0, 3.0)), False),
    (SYM_ATOMS, True),
    (LevyTriplet(0.3, 0.0, jumps=JumpSpec.atom_sizes(6.0, (-1.0, 0.5), (0.3, 0.7))), False),
    (BM, True),
])
def test_chunk_equals_full_row_passes(triplet, antithetic):
    # the skipped zero drift moves no bit of the chunk; KOU_SYM has zero drift, mirrored and
    # unmirrored rows, and paths with two jumps in one cell
    assert KOU_SYM.effective_drift == 0.0 and KOU_SYM.jumps.is_symmetric
    cfg = SimConfig(dt=0.01, horizon_T=2.0, n_paths=40, master_seed=611, antithetic=antithetic, tail_tol=0.999)
    for lo, hi in ((0, 40), (13, 31), (0, 20), (25, 40)):  # both halves, each alone
        want, shared = _parent_chunk(triplet, cfg, lo, hi, antithetic)
        if triplet.jumps.rate > 0:  # paths with two jumps in one cell, and paths without
            assert any(shared) and not all(shared)
        assert _same_bits(_simulate_chunk(triplet, cfg, lo, hi, antithetic), want)


def test_clock_skeleton_matches_per_path_seed_sequences():
    # one block u = 1 - U of 3K uniforms per stream: E = -log u of the first K, then the K Kou
    # sides (up where u <= p_up) and the K magnitudes -log u / eta
    cp = LevyTriplet(0.0, 0.0, jumps=JumpSpec.kou_mixture(2.0, 0.5, 2.0, 3.0))
    cfg = SimConfig(dt=0.01, horizon_T=1.0, n_paths=50, master_seed=611, tail_tol=1e-3)
    _, gaps, sizes = clock_skeleton(cp, cfg, 0.5)
    k = gaps.shape[1]
    for path in range(cfg.n_paths):
        u = 1.0 - _seed_sequence_rng(cfg.master_seed, path).random(3 * k)
        assert _same_bits(gaps[path], -np.log(u[:k]) / (2.0 + 0.5))
        mags = -np.log(u[2 * k:])
        assert _same_bits(sizes[path], np.where(u[k:2 * k] <= 0.5, mags / 2.0, -(mags / 3.0)))


@pytest.mark.parametrize("triplet, antithetic", [
    (LevyTriplet(0.3, 0.5, jumps=JumpSpec.kou_mixture(2.0, 0.4, 2.0, 3.0)), False),
    (LevyTriplet(-0.4, 0.7, jumps=JumpSpec.kou_mixture(2.0, 0.4, 2.0, 3.0)), False),
    (SYM_ATOMS, True),
    (BM, True),
])
def test_clock_skeleton_with_sigma_matches_per_path_seed_sequences(triplet, antithetic):
    # one block u = 1 - U of K (2 + m) uniforms per stream: E_dn = -log u of the first K, the sizes
    # from the next K m (m = 0 without jumps), E_up = -log u of the last K; fall E_dn / beta_-,
    # rise E_up / beta_+
    q, n = 0.5, 40
    cfg = SimConfig(dt=0.01, horizon_T=1.0, n_paths=n, master_seed=611, antithetic=antithetic, tail_tol=1e-3)
    mu, s2, lam = triplet.effective_drift, triplet.sigma**2, triplet.jumps.rate + q
    beta_up = (-mu + math.sqrt(mu * mu + 2 * s2 * lam)) / s2
    beta_dn = (mu + math.sqrt(mu * mu + 2 * s2 * lam)) / s2
    for rows in (range(n), range(13, 31)):  # the second straddles the mirrored half
        _, moves, sizes = clock_skeleton(triplet, cfg, q, rows)
        k = sizes.shape[1]
        assert moves.shape == (2, len(rows), k) and (triplet.jumps.rate > 0 or k == 1)
        for j, path in enumerate(rows):
            mirror = antithetic and path >= n // 2
            rng = _seed_sequence_rng(cfg.master_seed, path - n // 2 if mirror else path)
            m = triplet.jumps.uniforms_per_size
            u = 1.0 - rng.random(k * (2 + m))
            e_dn, e_up = -np.log(u[:k]), -np.log(u[-k:])
            jumps = triplet.jumps.from_uniforms(u[k:-k].reshape(m, k)) if m else np.zeros(k)
            if mirror:
                e_dn, e_up, jumps = e_up, e_dn, -jumps
            assert _same_bits(sizes[j], jumps)
            assert moves[0, j] == pytest.approx(e_dn / beta_dn, rel=1e-14)
            assert moves[1, j] == pytest.approx(e_up / beta_up, rel=1e-14)


def _lattice_block(master_seed, row, k, c):
    """Stream contract 7's block of lattice row = i 64 + r, built coordinate by coordinate: u = 1 -
    frac(frac(phi_2(i) z_j) + U), z_j = a^j mod 2^20, U the shift stream r draws; coordinate j = s c + t
    (the t-th uniform of segment s) sits at block position t k + s."""
    i, r = divmod(row, BATCHES)
    phi = sum((i >> bit & 1) * 2.0 ** -(bit + 1) for bit in range(32))
    shift = _seed_sequence_rng(master_seed, r).random(k * c)
    u = np.empty(k * c)
    for s in range(k):
        for t in range(c):
            y = phi * pow(LATTICE_A, s * c + t, 2**20) % 1.0 + shift[t * k + s]
            u[t * k + s] = 1.0 - (y - 1.0 if y >= 1.0 else y)
    return u


@pytest.mark.parametrize("triplet, antithetic, n, rows", [
    (LevyTriplet(0.0, 0.0, jumps=JumpSpec.kou_mixture(2.0, 0.5, 2.0, 3.0)), False, 300, range(60, 300)),
    (LevyTriplet(0.3, 0.5, jumps=JumpSpec.kou_mixture(2.0, 0.4, 2.0, 3.0)), False, 300, range(120, 140)),
    (SYM_ATOMS, True, 400, range(150, 330)),
    (BM, True, 400, range(180, 220)),
], ids=["kou", "kou_sigma", "sym_atoms_antithetic", "bm_antithetic"])
def test_clock_skeleton_rows_are_shifted_lattice_points(triplet, antithetic, n, rows):
    # rows past 64 take lattice points i >= 1 (each range straddles replicates), mirrors their row
    # less n / 2, and the transform of the contract-6 tests
    q = 0.5
    cfg = SimConfig(dt=0.01, horizon_T=1.0, n_paths=n, master_seed=611, antithetic=antithetic, tail_tol=1e-3)
    mu, s2, lam = triplet.effective_drift, triplet.sigma**2, triplet.jumps.rate + q
    _, moves, sizes = clock_skeleton(triplet, cfg, q, rows)
    k, m = sizes.shape[1], triplet.jumps.uniforms_per_size
    for j, path in enumerate(rows):
        mirror = antithetic and path >= n // 2
        u = _lattice_block(cfg.master_seed, path - n // 2 if mirror else path, k, 1 + m + (s2 > 0))
        jumps = triplet.jumps.from_uniforms(u[k:k + m * k].reshape(m, k)) if m else np.zeros(k)
        assert _same_bits(sizes[j], -jumps if mirror else jumps)
        if s2 == 0:
            assert _same_bits(moves[j], -np.log(u[:k]) / lam)
            continue
        e_dn, e_up = -np.log(u[:k]), -np.log(u[-k:])
        if mirror:
            e_dn, e_up = e_up, e_dn
        root = math.sqrt(mu * mu + 2 * s2 * lam)  # 1 / beta_+- = (root +- mu) / (2 lambda)
        assert moves[0, j] == pytest.approx(e_dn * (root - mu) / (2 * lam), rel=1e-14)
        assert moves[1, j] == pytest.approx(e_up * (root + mu) / (2 * lam), rel=1e-14)


def test_lattice_projections_are_exact_dyadic_grids():
    # z_j = a^j mod 2^20 is odd, so over the first 2^m points frac(phi_2(i) z_j) runs through
    # {k / 2^m} once per coordinate: each replicate's one-dimensional projections are stratified
    assert LATTICE_A % 2 == 1
    z = np.array([pow(LATTICE_A, j, 2**20) for j in range(200)], dtype=float)
    for m in range(13):
        x = np.fmod(np.multiply.outer(_radical_inverse(np.arange(2**m)), z), 1.0)
        assert np.array_equal(np.sort(x, axis=0), np.broadcast_to(np.arange(2**m)[:, None] / 2**m, x.shape))
    last = 2**32 - 1 - 2**7  # every bit but one: phi_2 is exact to the last of 32 bits
    assert _radical_inverse([1, 6, last]).tolist() == [0.5, 0.375, 1.0 - 2.0**-32 - 2.0**-8]


def test_lattice_read_loads_one_stream_state_per_replicate(monkeypatch):
    loaded, real = [], path_engine._path_rngs

    def counting(master_seed, streams):
        for rng in real(master_seed, streams):
            loaded.append(rng)
            yield rng

    monkeypatch.setattr(path_engine, "_path_rngs", counting)
    cfg = SimConfig(dt=0.01, horizon_T=1.0, n_paths=3000, master_seed=5)
    clock_skeleton(LevyTriplet(0.0, 0.5, jumps=JumpSpec.kou_mixture(2.0, 0.5, 2.0, 3.0)), cfg, 0.5)
    assert len(loaded) == BATCHES


def test_lattice_rows_past_the_shift_table_draw_their_own_shifts(monkeypatch):
    # K = 3,690 segments (rate 200 at q = 0.5): 64 shifts of d = 3 K uniforms exceed SHIFT_TABLE_FLOATS,
    # so each row loads its own shift's stream state; the rows, straddling replicates and the
    # mirrored half, are those a table of all 64 shifts gives
    loaded, real = [], path_engine._path_rngs

    def counting(master_seed, streams):
        for rng in real(master_seed, streams):
            loaded.append(rng)
            yield rng

    triplet = LevyTriplet(0.0, 0.5, jumps=JumpSpec.atom_sizes(200.0, (-1.0, 1.0), (0.5, 0.5)))
    cfg = SimConfig(dt=0.1, horizon_T=1.0, n_paths=200, master_seed=611, antithetic=True)
    rows = range(50, 150)
    monkeypatch.setattr(path_engine, "_path_rngs", counting)
    per_row = clock_skeleton(triplet, cfg, 0.5, rows)
    assert len(loaded) == len(rows)
    monkeypatch.setattr(path_engine, "SHIFT_TABLE_FLOATS", math.inf)
    table = clock_skeleton(triplet, cfg, 0.5, rows)
    assert all(_same_bits(a, b) for a, b in zip(per_row, table))


@pytest.mark.parametrize("read", ["clock_skeleton", "skeleton_rho_curve"])
def test_skeleton_peak_memory_at_large_k(read, traced_peak):
    # K = 3,690 segments and 8 rows (rows 640-647 in the skeleton read, so a table would hold all 64
    # shifts): a table of 64 x 4 K floats outweighed the rows, a traced peak of 36.7 and 8.8 n K
    # floats, where rows that draw their own shifts peak at 6.1 and 6.3
    triplet = LevyTriplet(0.0, 0.5, jumps=JumpSpec.kou_mixture(200.0, 0.5, 3.0, 3.0))
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.5, q=0.5)

    def read_k():
        if read == "clock_skeleton":
            cfg = SimConfig(dt=0.1, horizon_T=1.0, n_paths=1000, master_seed=7)
            return len(clock_skeleton(triplet, cfg, 0.5, range(640, 648))[0])
        cfg = SimConfig(dt=0.1, horizon_T=1.0, n_paths=8, master_seed=7)
        skeleton_rho_curve(triplet, prob, [-0.5, 0.0], cfg, "exp_clock")
        return path_engine._clock_segments(200.0, 0.5, cfg.tail_tol)

    k, peak = traced_peak(read_k)
    assert k == 3690
    assert peak <= 7.0 * 8 * 8 * k


def test_stream_set_up_builds_no_seed_sequence_per_path(monkeypatch):
    made, real = [], np.random.SeedSequence

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(path_engine.np.random, "SeedSequence", counting)
    cfg = SimConfig(dt=0.01, horizon_T=1.0, n_paths=300, master_seed=5, tail_tol=0.999)
    simulate_batch(BM, 0.0, cfg)  # one chunk
    assert len(made) <= 1
    made.clear()
    clock_skeleton(LevyTriplet(0.0, 0.0, jumps=JumpSpec.kou_mixture(2.0, 0.5, 2.0, 3.0)), cfg, 0.5)
    assert len(made) <= 1


def test_seed_domain_enforced():
    with pytest.raises(ValueError, match="master_seed"):
        SimConfig(dt=0.1, horizon_T=1.0, n_paths=2, master_seed=-1)
    with pytest.raises(ValueError, match="n_paths"):
        SimConfig(dt=0.1, horizon_T=1.0, n_paths=2**32 + 1, master_seed=0)  # a two-word spawn key


@pytest.mark.parametrize("n_grid", [1, 1843, 9213, 10_000, 20_001])
def test_grid_sum_adds_per_row_slice_dots(n_grid):
    rng = np.random.default_rng(n_grid)
    g, w = rng.standard_normal((7, n_grid)), rng.random(n_grid)
    expect = []
    for row in g:
        acc = row[:DOT_SLICE] @ w[:DOT_SLICE]
        for s in range(DOT_SLICE, n_grid, DOT_SLICE):
            acc += row[s:s + DOT_SLICE] @ w[s:s + DOT_SLICE]
        expect.append(acc)
    assert _same_bits(_grid_sum(g, w), np.array(expect))


def test_clock_skeleton_reproducible_independent_of_n_paths():
    cfg = SimConfig(dt=0.02, horizon_T=1.0, n_paths=8, master_seed=11, tail_tol=1e-3)
    kou = LevyTriplet(0.0, 0.0, jumps=JumpSpec.kou_mixture(1.0, 0.5, 2.0, 3.0))
    pi, gaps, sizes = clock_skeleton(kou, cfg, 0.5)
    # p = 2/3: K = 1 + ceil(log(1e-3) / log p) segments, tail mass p^(K-1) <= tail_tol
    assert len(pi) == 19 and pi[-1] <= 1e-3 and pi.sum() == pytest.approx(1.0, rel=1e-14)
    _, gaps3, sizes3 = clock_skeleton(kou, replace(cfg, n_paths=3), 0.5)
    assert np.array_equal(gaps[:3], gaps3) and np.array_equal(sizes[:3], sizes3)
    # an antithetic mirror reuses stream p - n/2 with negated sizes
    sym = LevyTriplet(0.0, 0.0, jumps=JumpSpec.atom_sizes(1.0, (-1.0, 1.0), (0.5, 0.5)))
    _, g_anti, s_anti = clock_skeleton(sym, replace(cfg, antithetic=True), 0.5)
    _, g_half, s_half = clock_skeleton(sym, replace(cfg, n_paths=4), 0.5)
    assert np.array_equal(g_anti, np.vstack([g_half, g_half]))
    assert np.array_equal(s_anti, np.vstack([s_half, -s_half]))
    # sigma > 0: rows do not depend on n_paths nor on the rows asked for; with mu = 0 the
    # mirror swaps fall and rise exactly, so it is -X
    kou_bm = LevyTriplet(0.2, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 2.0, 3.0))
    _, moves, sizes = clock_skeleton(kou_bm, cfg, 0.5)
    _, moves3, sizes3 = clock_skeleton(kou_bm, replace(cfg, n_paths=3), 0.5)
    _, moves_mid, sizes_mid = clock_skeleton(kou_bm, cfg, 0.5, range(2, 7))
    assert np.array_equal(moves[:, :3], moves3) and np.array_equal(sizes[:3], sizes3)
    assert np.array_equal(moves[:, 2:7], moves_mid) and np.array_equal(sizes[2:7], sizes_mid)
    sym_bm = replace(sym, sigma=0.5)
    _, m_anti, s_anti = clock_skeleton(sym_bm, replace(cfg, antithetic=True), 0.5)
    _, m_half, s_half = clock_skeleton(sym_bm, replace(cfg, n_paths=4), 0.5)
    assert np.array_equal(m_anti, np.concatenate([m_half, m_half[::-1]], axis=1))
    assert np.array_equal(s_anti, np.vstack([s_half, -s_half]))
    _, anti_rows, _ = clock_skeleton(sym_bm, replace(cfg, antithetic=True), 0.5, range(3, 6))
    assert np.array_equal(anti_rows, m_anti[:, 3:6])


def test_clock_skeleton_over_budget_raises_before_allocating():
    # rate 10, q = 0.01: K = 9,216 jumps per path; gaps and sizes alone would take 1.37 GiB
    cfg = SimConfig(dt=0.02, horizon_T=1.0, n_paths=10_000, master_seed=13)
    cp = LevyTriplet(0.0, 0.0, jumps=JumpSpec.atom_sizes(10.0, (-1.0, 1.0), (0.5, 0.5)))
    with pytest.raises(ValueError, match=r"10000 paths x K = 9216 jumps .* budget of 4194304"):
        clock_skeleton(cp, cfg, 0.01)


@pytest.mark.parametrize("q", [1e-9, 1e-300])
def test_skeleton_rho_refuses_a_long_clock_before_allocating(q, traced_peak):
    # q = 1e-9: K = 9,210,339,607 segments, whose weights alone would take 69 GiB; at q = 1e-300,
    # p = rate / (rate + q) rounds to 1 and K is infinite
    cp = LevyTriplet(0.0, 0.0, jumps=JumpSpec.atom_sizes(1.0, (-1.0, 1.0), (0.5, 0.5)))
    cfg = SimConfig(dt=0.1, horizon_T=1.0, n_paths=10, master_seed=1)

    def refused():
        with pytest.raises(ValueError, match=r"1 paths x K = (9210339607|inf) jumps .* larger q \(problem.q\)"):
            skeleton_rho_curve(cp, ProblemSpec(builtin_cost("quadratic"), 0.0, q), [0.0], cfg)

    _, peak = traced_peak(refused)
    assert peak < 2**20


@pytest.mark.parametrize("triplet, bound", [
    (LevyTriplet(0.0, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 3.0, 3.0)), 4.77),
    (LevyTriplet(0.0, 0.0, jumps=JumpSpec.atom_sizes(1.0, (-1.0, 1.0), (0.5, 0.5))), 3.77),
], ids=["kou_config", "compound_poisson_config"])
def test_clock_skeleton_peak_memory(triplet, bound, traced_peak):
    # the models of the shipped configs at q = 0.5 (K = 24).  Uniforms are drawn and transformed a
    # slab at a time, straight into the returned arrays, so at n K = 2**20 the traced peak stays
    # within what drawing each path's Exp(1) and sizes by separate calls took (4.77 and 3.77 n K
    # floats)
    cfg = SimConfig(dt=0.1, horizon_T=1.0, n_paths=2**20 // 24, master_seed=7)
    (pi, _, _), peak = traced_peak(lambda: clock_skeleton(triplet, cfg, 0.5))
    assert len(pi) == 24
    assert peak <= bound * 8 * cfg.n_paths * len(pi)


def test_clock_suprema_nonincreasing_in_eps():
    cfg = SimConfig(dt=0.02, horizon_T=1.0, n_paths=500, master_seed=12)
    kou = LevyTriplet(0.0, 0.0, jumps=JumpSpec.kou_mixture(1.0, 0.5, 2.0, 3.0))
    read = clock_skeleton(kou, cfg, 0.5)
    sups = [read.suprema(kou.effective_drift - eps) for eps in (-0.1, 0.0, 0.025, 0.2, 1.0)]
    assert all(np.all(s >= 0.0) and np.all(np.diff(s, axis=1) >= 0.0) for s in sups)
    for hi, lo in zip(sups, sups[1:]):
        assert np.all(hi >= lo)
    assert np.any(sups[0] > sups[-1])


def _parent_suprema(moves, sizes, drift, lows=False):
    """The running suprema S_k or, with ``lows``, U^0 at the segment ends, as the former
    ``clock_suprema(moves, sizes, drift, lows)`` took them off a skeleton's moves and sizes."""
    if moves.ndim == 2:
        fall, rise = max(-drift, 0.0) * moves, max(drift, 0.0) * moves
    else:
        fall, rise = moves
    starts = np.zeros_like(sizes)
    np.cumsum((rise - fall)[:, :-1] + sizes[:, :-1], axis=1, out=starts[:, 1:])
    if lows:
        return starts + rise - fall - np.minimum.accumulate(starts - fall, axis=1)
    return np.maximum.accumulate(starts + rise, axis=1)


@pytest.mark.parametrize("triplet, antithetic, drifts", [
    (LevyTriplet(0.0, 0.0, jumps=JumpSpec.kou_mixture(2.0, 0.4, 2.0, 3.0)), False, (-0.2, 0.0, 0.025, 0.3)),
    (LevyTriplet(0.0, 0.0, jumps=JumpSpec.atom_sizes(1.0, (-1.0, 1.0), (0.5, 0.5))), True, (-0.1, -0.025, 0.1)),
    (LevyTriplet(-0.4, 0.7, jumps=JumpSpec.kou_mixture(2.0, 0.4, 2.0, 3.0)), False, (None,)),
    (SYM_ATOMS, True, (None,)),
    (BM, True, (None,)),
], ids=["kou_sigma0", "atoms_sigma0_antithetic", "kou_sigma", "sym_atoms_sigma_antithetic", "bm_antithetic"])
def test_skeleton_reads_equal_the_former_suprema_bit_for_bit(triplet, antithetic, drifts):
    # sigma = 0 reads each drift off one draw's segment lengths (as perturb's levels do); sigma > 0
    # reads the draw's own (fall, rise) pairs; the antithetic reads take in the mirrored half
    cfg = SimConfig(dt=0.01, horizon_T=1.0, n_paths=300, master_seed=611, antithetic=antithetic, tail_tol=1e-3)
    read = clock_skeleton(triplet, cfg, 0.5)
    for drift in drifts:
        drift = triplet.effective_drift if drift is None else drift
        assert _same_bits(read.suprema(drift), _parent_suprema(read.moves, read.sizes, drift))
        assert _same_bits(read.u0(drift), _parent_suprema(read.moves, read.sizes, drift, lows=True))


def _sum_chunk(values):
    return {"pp_sum": values.sum(axis=1), "acc_total": np.array([values.sum()])}


def test_map_reduce_worker_and_chunk_invariance(monkeypatch):
    cfg = SimConfig(dt=0.01, horizon_T=1.0, n_paths=64, master_seed=13, tail_tol=0.999)
    kou = LevyTriplet(0.2, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 2.0, 2.0))
    base = map_reduce_paths(kou, cfg, _sum_chunk, n_workers=1)
    two = map_reduce_paths(kou, cfg, _sum_chunk, n_workers=2)
    assert np.array_equal(base["pp_sum"], two["pp_sum"])
    assert np.array_equal(base["acc_total"], two["acc_total"])
    # per-path outputs do not depend on the chunk plan either
    monkeypatch.setattr(path_engine, "CHUNK_TARGET_FLOATS", 512)
    small = map_reduce_paths(kou, cfg, _sum_chunk)
    assert np.array_equal(base["pp_sum"], small["pp_sum"])


def _wide_chunk(values):
    # a 256 KiB accumulator per chunk, whatever its path count
    return {"acc_wide": np.ones(2**15)}


def test_pool_merge_drops_each_partial_once_merged(traced_peak):
    # 64 one-path chunks on two workers: the parent holds the 64 merged rows and only the partials
    # it has not merged yet.  Holding every chunk's partial until the merge returned peaked at 2x
    # the rows, and 3x beside a stacked copy of them
    cfg = SimConfig(dt=0.1, horizon_T=1.0, n_paths=64, master_seed=3, tail_tol=0.999)
    out, peak = traced_peak(lambda: map_reduce_paths(BM, cfg, _wide_chunk, n_workers=2))
    rows = out["acc_wide"]
    assert len(rows) == BATCHES and all(np.array_equal(row, np.ones(2**15)) for row in rows)
    assert peak <= 1.5 * sum(row.nbytes for row in rows)


def test_value_sums_independent_of_chunk_rows(monkeypatch):
    # 192 paths make 3-path batches; a path's discounted sums over more than
    # 8,192 grid points must not change with its chunk's row count
    cfg = SimConfig(dt=2e-3, horizon_T=horizon_for(0.5, 1e-4, 2e-3), n_paths=192,
                    master_seed=13)
    kou = LevyTriplet(0.2, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 2.0, 2.0))
    value = functools.partial(value_chunk, pairs=((0.0, -0.5), (0.0, 0.1), (0.3, -0.5), (0.3, 0.1)),
                              f=np.square, q=0.5, dt=cfg.dt)
    n_grid = cfg.n_steps + 1
    assert n_grid > 8192
    three = map_reduce_paths(kou, cfg, value)
    monkeypatch.setattr(path_engine, "CHUNK_TARGET_FLOATS", n_grid)
    one = map_reduce_paths(kou, cfg, value)
    for key in ("pp_running", "pp_control"):
        assert np.array_equal(three[key], one[key])


def _width_chunk(values):
    # a 2-D accumulator whose last axis grows with the chunk's path count
    return {"acc_grid": np.ones((2, values.shape[0]))}


def test_accumulators_are_summed_per_batch(monkeypatch):
    cfg = SimConfig(dt=0.01, horizon_T=1.0, n_paths=200, master_seed=13, tail_tol=0.999)
    kou = LevyTriplet(0.2, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 2.0, 2.0))
    # 3- and 4-path batches cut into 2-path chunks: rows are right-padded
    # along the last axis only, then summed within the batch
    monkeypatch.setattr(path_engine, "CHUNK_TARGET_FLOATS", 2 * 101)
    out = map_reduce_paths(kou, cfg, _width_chunk)
    grid = np.stack(out["acc_grid"])  # one row per batch, in batch order
    sizes = np.diff([g * 200 // BATCHES for g in range(BATCHES + 1)])
    want = np.stack([np.full((2, 2), [2.0, n - 2.0]) for n in sizes])
    assert grid.shape == (BATCHES, 2, 2)
    assert np.array_equal(grid, want)
    # pure drift: each batch row is the representative path's scaled by its size
    drift = map_reduce_paths(DRIFT_UP, cfg, _sum_chunk)
    one = map_reduce_paths(DRIFT_UP, replace(cfg, n_paths=1), _sum_chunk)
    assert np.array_equal(np.stack(drift["acc_total"])[:, 0], np.stack(one["acc_total"])[0, 0] * sizes)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 40), st.booleans(), st.integers(1, 3000))
def test_chunk_plan_batches(n_paths, n_grid, antithetic, target):
    n_paths += antithetic and n_paths % 2
    plan = _chunk_plan(n_paths, n_grid, antithetic, target)
    los, his, _ = (list(col) for col in zip(*plan))
    assert los == [0] + his[:-1] and his[-1] == n_paths  # 0..n-1 in order
    assert all(1 <= hi - lo <= max(1, target // n_grid) for lo, hi in zip(los, his))
    batch = np.empty(n_paths, dtype=int)
    for lo, hi, g in plan:
        batch[lo:hi] = g
    n_streams = n_paths // 2 if antithetic else n_paths
    if antithetic:  # both members of a mirrored pair share the batch
        assert np.array_equal(batch[:n_streams], batch[n_streams:])
    # batches are contiguous stream ranges, sized within one stream, and do
    # not depend on how chunks cut them
    per_stream = batch[:n_streams]
    assert np.all(np.diff(per_stream) >= 0)
    sizes = np.bincount(per_stream)
    assert sizes.size == min(BATCHES, n_streams) and sizes.max() - sizes.min() <= 1
    whole = _chunk_plan(n_paths, n_grid, antithetic, 10**9)
    assert [g for lo, hi, g in whole for _ in range(lo, hi)] == batch.tolist()
    assert np.array_equal(_batch_path_counts(n_paths, antithetic), np.bincount(batch))


def test_antithetic_ignored_warns_once_per_call(monkeypatch):
    # each call warns once, naming its own line: a grid pass decides the pairing once and warns there
    skew = LevyTriplet(0.0, 0.0, jumps=JumpSpec.kou_mixture(1.0, 0.7, 2.0, 3.0))
    noisy = LevyTriplet(0.0, 0.5, jumps=skew.jumps)  # solve_barrier refuses a driftless compound Poisson
    cfg = SimConfig(dt=0.05, horizon_T=1.0, n_paths=10, master_seed=9, antithetic=True, tail_tol=0.999)
    prob = ProblemSpec(builtin_cost("quadratic"), 0.0, 0.5)
    monkeypatch.setattr(estimators, "SKELETON_FLOATS", 6)  # K = 2: skeleton reads of 3 paths, 4 chunks
    monkeypatch.setattr(path_engine, "CHUNK_TARGET_FLOATS", 21)  # grid chunks of one path
    calls = (
        lambda: simulate_batch(skew, 0.0, cfg),
        lambda: map_reduce_paths(skew, cfg, _sum_chunk),  # 10 chunks
        lambda: estimate_rho(skew, prob, 0.0, cfg, method="exp_clock"),
        lambda: skeleton_rho_curve(skew, prob, [-1.0, 0.0], cfg, "time_integral"),
        lambda: solve_barrier_perturbed(driftless_compound_poisson(skew.jumps), prob, cfg),
        lambda: estimate_value(skew, prob, 0.0, 0.5, cfg),
        lambda: solve_barrier(noisy, prob, cfg),
        lambda: barrier_sweep(skew, prob, 0.5, [-1.0, 0.0], cfg),
        lambda: run_checks(skew, prob, cfg, [("convexity", {"x_grid": np.linspace(-1.0, 1.0, 5), "b_star": -0.5})]),
    )
    for call in calls:
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            call()
        assert len(rec) == 1 and "antithetic ignored" in str(rec[0].message)
        assert rec[0].filename == __file__


def test_antithetic_mirrors_gaussian_increments():
    cfg = SimConfig(dt=0.05, horizon_T=1.0, n_paths=10, master_seed=9, antithetic=True, tail_tol=0.999)
    batch = simulate_batch(BM, 0.0, cfg)
    assert np.allclose(batch[5:], -batch[:5], atol=1e-15)


def test_antithetic_ignored_for_asymmetric_jumps():
    skew = LevyTriplet(0.0, 0.0, jumps=JumpSpec.kou_mixture(1.0, 0.7, 2.0, 3.0))
    cfg = SimConfig(dt=0.05, horizon_T=1.0, n_paths=10, master_seed=9, antithetic=True, tail_tol=0.999)
    with pytest.warns(UserWarning, match="antithetic ignored"):
        batch = simulate_batch(skew, 0.0, cfg)
    assert not np.allclose(batch[5:], batch[:5])


def test_horizon_validation():
    cfg = SimConfig(dt=0.1, horizon_T=5.0, n_paths=2, master_seed=0)
    with pytest.raises(ValueError, match="horizon too short"):
        cfg.validate_for(0.5)  # exp(-2.5) >> 1e-4
    cfg2 = SimConfig(dt=0.1, horizon_T=horizon_for(0.5, 1e-4, 0.1), n_paths=2, master_seed=0)
    cfg2.validate_for(0.5)


def test_materialize_guard():
    cfg = SimConfig(dt=1e-4, horizon_T=10.0, n_paths=10_000, master_seed=0, tail_tol=0.999)
    with pytest.raises(ValueError, match="too large"):
        simulate_batch(BM, 0.0, cfg)
