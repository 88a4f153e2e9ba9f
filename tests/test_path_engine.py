import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levybarrier import JumpSpec, LevyTriplet, SimConfig, builtin_cost
from levybarrier.cost_model import ProblemSpec
from levybarrier.estimators import estimate_rho
from levybarrier.path_engine import (
    BATCHES,
    NEVER,
    ValueCtx,
    _chunk_plan,
    _simulate_chunk,
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
    assert np.allclose(batch.values, [[0.0, 0.5, 1.0]] * 4)


def test_variance_of_unit_bm():
    n = 100_000
    cfg = SimConfig(dt=0.01, horizon_T=1.0, n_paths=n, master_seed=2024, tail_tol=0.999)
    batch = simulate_batch(BM, 0.0, cfg)
    var = batch.values[:, -1].var()
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
    assert tau[0] == (crossings[0] if crossings else NEVER)
    # invariants: R nondecreasing, U >= b, R_0 = max(0, b - x_0)
    assert np.all(np.diff(r[0]) >= 0)
    assert np.all(u[0] >= b - 1e-12)
    assert r[0][0] == max(0.0, b - path[0])


def test_reflect_barrier_monotonicity():
    cfg = SimConfig(dt=0.01, horizon_T=2.0, n_paths=50, master_seed=7, tail_tol=0.999)
    batch = simulate_batch(BM, 0.0, cfg)
    b1, b2 = -0.5, 0.25
    u1, r1, _ = reflect_arrays(batch.values, b1)
    u2, r2, _ = reflect_arrays(batch.values, b2)
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
    ctx = ValueCtx(pairs=tuple(pairs), f=f, q=q, dt=dt, passages=tuple(passages), f_prime=f_prime)
    out = value_chunk(values, ctx)
    w, disc = integral_weights(q, dt, width), discount_factors(q, dt, width)
    for k, (o, b) in enumerate(pairs):
        u, r, _ = reflect_arrays(values + o, b)
        assert np.array_equal(out["pp_running"][:, k], discounted_integral(f(u), q, dt))
        assert np.array_equal(out["pp_control"][:, k], discounted_stieltjes(r, q, dt))
    for k, (o, level) in enumerate(passages):
        # first passage of the path values + o, NEVER mapped to n_grid
        base = values + o
        tau = first_passage_index(np.minimum.accumulate(base, axis=-1), level)
        _, _, tau_ref = reflect_arrays(base, level)
        assert np.array_equal(tau, np.where(tau_ref == NEVER, width, tau_ref))
        tau_disc = np.where(tau < width, disc[np.minimum(tau, width - 1)], 0.0)
        assert np.array_equal(out["pp_tau_disc"][:, k], tau_disc)
        stopped = [float(np.sum(f_prime(base[p, :t]) * w[:t])) for p, t in enumerate(tau)]
        assert np.allclose(out["pp_fprime_to_tau"][:, k], stopped, rtol=1e-12, atol=1e-12)


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
    jumps = np.diff(batch.values, axis=-1) - cp.effective_drift * cfg.dt
    halves = np.rint(jumps / 0.5)
    assert np.allclose(jumps, 0.5 * halves, rtol=0.0, atol=1e-12)
    assert np.any(halves != 0)  # some cells did book jumps


def test_translation_covariance():
    cfg = SimConfig(dt=0.05, horizon_T=1.0, n_paths=20, master_seed=5, tail_tol=0.999)
    kou = LevyTriplet(0.1, 0.3, jumps=JumpSpec.kou_mixture(2.0, 0.4, 2.0, 3.0))
    a = simulate_batch(kou, 0.0, cfg)
    b = simulate_batch(kou, 1.5, cfg)
    assert np.allclose(b.values, a.values + 1.5, atol=1e-12)


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
    assert np.array_equal(a.values, b.values)


def test_path_reproducible_independent_of_batch():
    cfg = SimConfig(dt=0.02, horizon_T=1.0, n_paths=8, master_seed=11, tail_tol=0.999)
    kou = LevyTriplet(0.0, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 2.0, 2.0))
    full = simulate_batch(kou, 0.0, cfg)
    row5 = _simulate_chunk(kou, 0.0, cfg, 5, 6, False)
    assert np.array_equal(full.values[5], row5[0])


def _sum_chunk(values, ctx):
    return {"pp_sum": values.sum(axis=1), "acc_total": np.array([values.sum()])}


def test_map_reduce_worker_and_chunk_invariance():
    cfg = SimConfig(dt=0.01, horizon_T=1.0, n_paths=64, master_seed=13, tail_tol=0.999)
    kou = LevyTriplet(0.2, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 2.0, 2.0))
    base = map_reduce_paths(kou, 0.0, cfg, _sum_chunk, None, n_workers=1)
    two = map_reduce_paths(kou, 0.0, cfg, _sum_chunk, None, n_workers=2)
    assert np.array_equal(base["pp_sum"], two["pp_sum"])
    assert np.array_equal(base["acc_total"], two["acc_total"])
    # per-path outputs do not depend on the chunk plan either
    small = map_reduce_paths(kou, 0.0, cfg, _sum_chunk, None, chunk_target=512)
    assert np.array_equal(base["pp_sum"], small["pp_sum"])


def test_value_sums_independent_of_chunk_rows():
    # 192 paths make 3-path batches; a path's discounted sums over more than
    # 8,192 grid points must not change with its chunk's row count
    cfg = SimConfig(dt=2e-3, horizon_T=horizon_for(0.5, 1e-4, 2e-3), n_paths=192,
                    master_seed=13)
    kou = LevyTriplet(0.2, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 2.0, 2.0))
    ctx = ValueCtx(pairs=((0.0, -0.5), (0.0, 0.1), (0.3, -0.5), (0.3, 0.1)), f=np.square,
                   q=0.5, dt=cfg.dt)
    n_grid = cfg.n_steps + 1
    assert n_grid > 8192
    three = map_reduce_paths(kou, 0.0, cfg, value_chunk, ctx)
    one = map_reduce_paths(kou, 0.0, cfg, value_chunk, ctx, chunk_target=n_grid)
    for key in ("pp_running", "pp_control"):
        assert np.array_equal(three[key], one[key])


def _width_chunk(values, ctx):
    # a 2-D accumulator whose last axis grows with the chunk's path count
    return {"acc_grid": np.ones((2, values.shape[0]))}


def test_accumulators_are_summed_per_batch():
    cfg = SimConfig(dt=0.01, horizon_T=1.0, n_paths=200, master_seed=13, tail_tol=0.999)
    kou = LevyTriplet(0.2, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 2.0, 2.0))
    # 3- and 4-path batches cut into 2-path chunks: rows are right-padded
    # along the last axis only, then summed within the batch
    out = map_reduce_paths(kou, 0.0, cfg, _width_chunk, None, chunk_target=2 * 101)
    sizes = np.diff([g * 200 // BATCHES for g in range(BATCHES + 1)])
    want = np.stack([np.full((2, 2), [2.0, n - 2.0]) for n in sizes])
    assert out["acc_grid"].shape == (BATCHES, 2, 2)
    assert np.array_equal(out["acc_grid"], want)
    # pure drift: each batch row is the representative path's scaled by its size
    drift = map_reduce_paths(DRIFT_UP, 0.0, cfg, _sum_chunk, None)
    one = map_reduce_paths(DRIFT_UP, 0.0, replace(cfg, n_paths=1), _sum_chunk, None)
    assert np.array_equal(drift["acc_total"][:, 0], one["acc_total"][0, 0] * sizes)


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


def test_antithetic_ignored_warns_once_per_call():
    skew = LevyTriplet(0.0, 0.0, jumps=JumpSpec.kou_mixture(1.0, 0.7, 2.0, 3.0))
    cfg = SimConfig(dt=0.05, horizon_T=1.0, n_paths=10, master_seed=9, antithetic=True, tail_tol=0.999)
    calls = (
        lambda: simulate_batch(skew, 0.0, cfg),
        lambda: map_reduce_paths(skew, 0.0, cfg, _sum_chunk, None, chunk_target=21),  # 10 chunks
        lambda: estimate_rho(skew, ProblemSpec(builtin_cost("quadratic"), 0.0, 0.5), 0.0, cfg,
                             method="exp_clock"),
    )
    for call in calls:
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            call()
        assert len(rec) == 1 and "antithetic ignored" in str(rec[0].message)


def test_antithetic_mirrors_gaussian_increments():
    cfg = SimConfig(dt=0.05, horizon_T=1.0, n_paths=10, master_seed=9, antithetic=True, tail_tol=0.999)
    batch = simulate_batch(BM, 0.0, cfg)
    assert np.allclose(batch.values[5:], -batch.values[:5], atol=1e-15)


def test_antithetic_ignored_for_asymmetric_jumps():
    skew = LevyTriplet(0.0, 0.0, jumps=JumpSpec.kou_mixture(1.0, 0.7, 2.0, 3.0))
    cfg = SimConfig(dt=0.05, horizon_T=1.0, n_paths=10, master_seed=9, antithetic=True, tail_tol=0.999)
    with pytest.warns(UserWarning, match="antithetic ignored"):
        batch = simulate_batch(skew, 0.0, cfg)
    assert not np.allclose(batch.values[5:], batch.values[:5])


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
