import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

import levybarrier as lb
from levybarrier import JumpSpec, LevyTriplet, SimConfig, barrier_solver, builtin_cost, estimators
from levybarrier.cost_model import ProblemSpec
from levybarrier.errors import AssumptionViolated, NoSignChange
from levybarrier.estimators import _value_pass, estimate_rho, estimate_value
from levybarrier.barrier_solver import barrier_sweep, solve_barrier, solve_barrier_perturbed
from levybarrier.path_engine import (
    BATCHES,
    CHUNK_TARGET_FLOATS,
    _chunk_plan,
    clock_skeleton,
    horizon_for,
    integral_weights,
    value_chunk,
)

DRIFT_UP = LevyTriplet(gamma=1.0, sigma=0.0)
BM = LevyTriplet(gamma=0.0, sigma=1.0)
KOU = LevyTriplet(0.0, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.5, 3.0, 3.0))


def make_cfg(q, dt=1e-3, n=2000, seed=42, tail=1e-4):
    return SimConfig(dt=dt, horizon_T=horizon_for(q, tail, dt), n_paths=n, master_seed=seed, tail_tol=tail)


def quad_problem(C, q):
    return ProblemSpec(cost=builtin_cost("quadratic"), C=C, q=q)


def test_pure_drift_zero_cost_root():
    # C = 0: rho(b) = 2(mu/q^2 + b/q) has root b* = -mu/q
    q = 0.1
    # 100 paths: batches of one and of two paths; 1,000: of 15 and 16, whose
    # rows are scaled by sizes that a division does not undo exactly
    for n in (20, 100, 1000):
        cfg = make_cfg(q, n=n, tail=1e-6)
        res = solve_barrier(DRIFT_UP, quad_problem(0.0, q), cfg, bisect_tol=2e-3)
        assert abs(res.b_star + 10.0) <= max(1e-2, 3 * res.ci_halfwidth)
        assert res.ci_halfwidth == 0.0  # deterministic paths
        assert res.rho_at_b_star.n == n
        lo, hi = res.bracket
        assert lo <= res.b_star <= hi and hi - lo <= 2e-3


def test_theta_bar_enforced_by_solver():
    # up-jump tail rate 0.8 < theta_bar = 1: E[exp(theta_bar |J|)] is infinite
    heavy = JumpSpec.kou_mixture(1.0, 0.5, 0.8, 3.0)
    cfg = make_cfg(0.5, dt=0.05, n=20)
    calls = (
        lambda: solve_barrier(LevyTriplet(0.0, 0.5, jumps=heavy), quad_problem(0.5, 0.5), cfg),
        lambda: solve_barrier_perturbed(lb.driftless_compound_poisson(heavy), quad_problem(0.5, 0.5), cfg),
    )
    for call in calls:
        with pytest.raises(AssumptionViolated, match=r"theta_bar = 1 .* rate 0\.8"):
            call()
    # declaring a theta_bar below the tail rate lifts it
    ok = LevyTriplet(0.0, 0.5, jumps=heavy, exp_moment_theta=0.5)
    assert lb.exp_moment_check(ok)
    solve_barrier(ok, quad_problem(0.5, 0.5), cfg)


def test_solve_is_one_pass(monkeypatch):
    passes = []
    real = estimators.map_reduce_paths

    def counted(triplet, cfg, *args, **kwargs):
        passes.append(cfg.n_paths)
        return real(triplet, cfg, *args, **kwargs)

    monkeypatch.setattr(estimators, "map_reduce_paths", counted)
    solve_barrier(KOU, quad_problem(0.5, 0.5), make_cfg(0.5, dt=0.05, n=500))
    assert passes == [500]


def test_solve_same_record_for_any_worker_count():
    # 130 paths: 64 batches, so 64 chunks, spread over two processes
    cfg = make_cfg(0.5, dt=0.05, n=130, seed=21)
    prob = quad_problem(0.5, 0.5)
    one = solve_barrier(KOU, prob, cfg, n_workers=1)
    two = solve_barrier(KOU, prob, cfg, n_workers=2)
    assert one.to_record() == two.to_record()


@pytest.mark.parametrize("triplet, antithetic, n", [(KOU, False, 48), (BM, True, 64)])
def test_one_path_per_batch_stderr_matches_per_path_estimate(triplet, antithetic, n):
    # with at most one stream per batch the batch means are the per-path (or
    # per-pair) rho-hat samples, up to the binning of U^0
    q = 0.5
    prob = quad_problem(0.5, q)
    cfg = replace(make_cfg(q, dt=0.01, n=n, seed=17), antithetic=antithetic)
    res = solve_barrier(triplet, prob, cfg)
    direct = estimate_rho(triplet, prob, res.b_star, cfg)
    bin_width = 1e-3 / 4.0  # default bisection tolerance
    w_sum = integral_weights(q, cfg.dt, cfg.n_steps + 1).sum()
    assert res.rho_at_b_star.stderr > 0.0
    assert abs(res.rho_at_b_star.stderr - direct.stderr) <= bin_width * w_sum * 2  # f'' = 2


def test_bracket_certificate_and_rho_at_root():
    q = 0.5
    res = solve_barrier(BM, quad_problem(1.0, q), make_cfg(q, dt=2e-3, n=2000, seed=11))
    # rho-hat(b*) + C vanishes at the fitted root by construction
    assert abs(res.rho_at_b_star.mean + 1.0) <= 3 * (res.rho_at_b_star.stderr + 1e-2)
    assert res.rho_at_b_star.n == 2000


def test_general_process_matches_quadratic_identity():
    # b* = -q (C/2 + E int e^{-qt} U^0_t dt), estimated on the same batch
    q, C = 0.5, 0.5
    res = solve_barrier(KOU, quad_problem(C, q), make_cfg(q, dt=2e-3, n=4000, seed=5), bisect_tol=1e-3)
    closed = -q * (C / 2.0 + res.discounted_u0.mean)
    assert abs(res.b_star - closed) <= 1e-3 + 3 * res.ci_halfwidth


def test_bm_closed_form_barrier():
    q = 0.5
    oracle = lb.SpectrallyNegativeOracle.for_model(BM, q)
    target = lb.quadratic_bstar_closed_form(oracle, quad_problem(1.0, q))
    assert target == pytest.approx(-1.25, abs=1e-12)
    res = solve_barrier(BM, quad_problem(1.0, q), make_cfg(q, dt=1e-3, n=4000, seed=2))
    # sqrt(dt) reflection deficit biases the root up by ~0.58 sqrt(dt)
    assert abs(res.b_star - target) <= 0.017 + 0.6 * np.sqrt(1e-3) + 3 * res.ci_halfwidth


def test_rho_positive_above_root_away_from_plateaus():
    q = 0.5
    cfg = make_cfg(q, dt=2e-3, n=3000, seed=8)
    prob = quad_problem(1.0, q)
    res = solve_barrier(BM, prob, cfg)
    for delta in (0.1, 0.5, 1.0):
        est = estimate_rho(BM, prob, res.b_star + delta, cfg)
        assert est.mean + prob.C > 3 * est.stderr


def test_seed_invariance_within_ci():
    q = 0.5
    prob = quad_problem(1.0, q)
    results = [
        solve_barrier(BM, prob, make_cfg(q, dt=2e-3, n=1500, seed=s)) for s in range(5)
    ]
    bs = [r.b_star for r in results]
    cis = [r.ci_halfwidth for r in results]
    for i in range(5):
        for j in range(i + 1, 5):
            tol = 3.0 * np.hypot(cis[i], cis[j]) + 4e-3
            assert abs(bs[i] - bs[j]) <= tol


def test_driftless_cp_rejected_by_plain_solver():
    cp = lb.driftless_compound_poisson(JumpSpec.atom_sizes(1.0, (-1.0, 1.0), (0.5, 0.5)))
    with pytest.raises(AssumptionViolated, match="perturbed"):
        solve_barrier(cp, quad_problem(0.0, 0.5), make_cfg(0.5, n=100))


def test_inadmissible_problem_rejected():
    prob = ProblemSpec(cost=builtin_cost("abs"), C=5.0, q=0.5)  # -Cq = -2.5 outside (-1, 1)
    with pytest.raises(AssumptionViolated):
        solve_barrier(BM, prob, make_cfg(0.5, n=100))


def test_no_sign_change_guard():
    # admissible on paper, but a short horizon truncates the discount sum so
    # rho-hat + C stays positive everywhere; the solver must flag it rather
    # than trust the predicate alone
    q = 0.5
    prob = ProblemSpec(cost=builtin_cost("abs"), C=1.5, q=q)
    assert prob.is_admissible()
    cfg = SimConfig(dt=5e-3, horizon_T=horizon_for(q, 0.5, 5e-3), n_paths=200,
                    master_seed=1, tail_tol=0.5)
    with pytest.raises(NoSignChange):
        solve_barrier(BM, prob, cfg)


# ---------------------------------------------------------------------------
# perturbed solver (driftless compound Poisson)
# ---------------------------------------------------------------------------


def test_negative_subordinator_cp_exact_root():
    # reflected process sits at the barrier, so rho(b) = 2 b / q exactly
    q, C = 0.5, 1.0
    neg = lb.driftless_compound_poisson(JumpSpec.kou_mixture(1.0, 0.0, 1.0, 2.0))
    res = solve_barrier_perturbed(neg, quad_problem(C, q), make_cfg(q, n=400, seed=4),
                                  eps_grid=(0.1, 0.05), bisect_tol=1e-3)
    assert abs(res.b_star + q * C / 2.0) <= 1e-3
    levels = [r.b_star for _, r in res.levels]
    assert levels[0] == levels[1]  # barrier invariant to the drift perturbation


def test_perturbed_negative_subordinator_reads_f_prime_over_q():
    # S = 0 on every path, so rho-hat(b) = f'_+(b) / q = 2 b / q at each level
    q = 0.5
    neg = lb.driftless_compound_poisson(JumpSpec.kou_mixture(1.0, 0.0, 1.0, 2.0))
    res = solve_barrier_perturbed(neg, quad_problem(1.0, q), make_cfg(q, n=130, seed=5),
                                  eps_grid=(0.2, 0.05), bisect_tol=1e-3)
    for _, r in res.levels:
        assert r.rho_at_b_star.mean == pytest.approx(2.0 * r.b_star / q, rel=1e-12)
        assert r.discounted_u0.mean == 0.0


def test_perturbed_matches_spectrally_positive_closed_form():
    # up-jumps Exp(eta) only: P(S_{e_q} > x) = ((eta - beta) / eta) e^{-beta x}, beta
    # the root on (0, eta) of -eps beta + lam beta / (eta - beta) = q (Kou & Wang,
    # Adv. Appl. Probab. 2003, sigma = 0), so b* = -qC/2 - E S = -qC/2 - (eta - beta) / (eta beta)
    q, C, lam, eta, tol = 0.5, 1.0, 1.0, 2.0, 1e-3
    up = lb.driftless_compound_poisson(JumpSpec.kou_mixture(lam, 1.0, eta, 3.0))
    res = solve_barrier_perturbed(up, quad_problem(C, q), make_cfg(q, n=2000),
                                  eps_grid=(0.2, 0.05), bisect_tol=tol)
    for eps, r in res.levels:
        beta = brentq(lambda b: -eps * b + lam * b / (eta - b) - q, 1e-9, eta - 1e-9)
        exact = -q * C / 2.0 - (eta - beta) / (eta * beta)
        assert abs(r.b_star - exact) <= 3.0 * r.ci_halfwidth + tol


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_perturbed_replicate_stderr_beats_per_path_stderr(seed):
    # the model, eps grid and benchmark size (1,200 paths) of configs/compound_poisson.json: the
    # lattice replicates' stderr of the smallest-eps rho-hat(b*) is at most half the per-path
    # stderr that independent blocks would report
    q = 0.5
    cp = lb.driftless_compound_poisson(JumpSpec.atom_sizes(1.0, (-1.0, 1.0), (0.5, 0.5)))
    cfg = make_cfg(q, dt=2e-3, n=1200, seed=seed)
    res = solve_barrier_perturbed(cp, quad_problem(0.0, q), cfg, bisect_tol=1e-3)
    eps, r = res.levels[-1]
    read = clock_skeleton(cp, cfg, q)
    y = (2.0 * (read.suprema(cp.with_drift_added(-eps).effective_drift) + r.b_star) * read.pi / q).sum(axis=1)
    assert 0.0 < r.rho_at_b_star.stderr <= 0.5 * y.std(ddof=1) / math.sqrt(cfg.n_paths)


def test_symmetric_cp_monotone_levels():
    q = 0.5
    sym = lb.driftless_compound_poisson(JumpSpec.atom_sizes(1.0, (-1.0, 1.0), (0.5, 0.5)))
    res = solve_barrier_perturbed(
        sym, quad_problem(0.0, q), make_cfg(q, dt=5e-3, n=3000, seed=6), eps_grid=(0.2, 0.1, 0.05)
    )
    bs = [r.b_star for _, r in res.levels]
    cis = [r.ci_halfwidth for _, r in res.levels]
    for (b1, c1), (b2, c2) in zip(zip(bs, cis), zip(bs[1:], cis[1:])):
        assert b1 >= b2 - 3 * np.hypot(c1, c2) - 2e-3
    assert res.monotone_trend
    assert res.b_star == bs[-1]


def test_perturbed_tiny_tolerance_stops_at_adjacent_floats():
    # a tolerance below 1 ulp of b* cannot be met: the bisection stops at adjacent floats,
    # and the CI's slope step keeps a floor, so the quadratic cost's rho is not flat
    q = 0.5
    sym = lb.driftless_compound_poisson(JumpSpec.atom_sizes(1.0, (-1.0, 1.0), (0.5, 0.5)))
    res = solve_barrier_perturbed(sym, quad_problem(0.0, q), make_cfg(q, n=200), bisect_tol=1e-300)
    for _, r in res.levels:
        lo, hi = r.bracket
        assert lo < hi == np.nextafter(lo, np.inf)
        assert r.b_star in (lo, hi)
        assert not r.flat_slope and np.isfinite(r.ci_halfwidth)


def test_perturbed_requires_driftless_cp():
    with pytest.raises(AssumptionViolated):
        solve_barrier_perturbed(BM, quad_problem(0.0, 0.5), make_cfg(0.5, n=100))
    with pytest.raises(ValueError, match="decreasing"):
        cp = lb.driftless_compound_poisson(JumpSpec.atom_sizes(1.0, (-1.0, 1.0), (0.5, 0.5)))
        solve_barrier_perturbed(cp, quad_problem(0.0, 0.5), make_cfg(0.5, n=100), eps_grid=(0.1, 0.2))


# ---------------------------------------------------------------------------
# barrier sweep
# ---------------------------------------------------------------------------


def test_sweep_minimized_near_fitted_barrier():
    q = 0.5
    prob = quad_problem(1.0, q)
    cfg = make_cfg(q, dt=2e-3, n=3000, seed=10)
    res = solve_barrier(BM, prob, cfg)
    grid = res.b_star + np.linspace(-1.0, 1.0, 11)
    curve = barrier_sweep(BM, prob, x=0.0, b_grid=grid, cfg=cfg)
    samples, _ = _value_pass(BM, prob, cfg, [(0.0, b) for b in grid])  # the sweep's per-path values
    means = np.array([est.mean for _, est in curve])
    assert means == pytest.approx(samples.mean(axis=0), rel=1e-12)
    j_min = int(np.argmin(means))
    j_star = int(np.argmin(np.abs(grid - res.b_star)))
    gap = samples[:, j_star] - samples[:, j_min]
    se = gap.std(ddof=1) / np.sqrt(len(gap)) if gap.std() > 0 else 0.0
    assert gap.mean() <= 3 * se + 1e-9
    # shape: nonincreasing left of the minimum, nondecreasing right (3 se per pair)
    for j in range(len(grid) - 1):
        d = samples[:, j + 1] - samples[:, j]
        se_d = d.std(ddof=1) / np.sqrt(len(d))
        if j + 1 <= j_min:
            assert d.mean() <= 3 * se_d
        if j >= j_min:
            assert d.mean() >= -3 * se_d


def test_sweep_below_grid_linear_identity():
    q = 0.5
    prob = quad_problem(0.7, q)
    cfg = make_cfg(q, dt=2e-3, n=500, seed=13)
    grid = [-1.0, -0.5, 0.0, 0.5]
    x = -2.0  # below every barrier in the grid
    curve = barrier_sweep(KOU, prob, x=x, b_grid=grid, cfg=cfg)
    for (b, est) in curve:
        _, _, v_b = estimate_value(KOU, prob, b, b, cfg)
        assert est.mean == pytest.approx(prob.C * (b - x) + v_b.mean, abs=1e-9 * (1 + abs(v_b.mean)))


def _rho_sweep_solve(triplet, prob, cfg):
    rho = estimate_rho(triplet, prob, -0.5, cfg)
    sweep = barrier_sweep(triplet, prob, 0.0, [-1.0, -0.5], cfg)
    res = solve_barrier(triplet, prob, cfg)
    ests = [rho] + [est for _, est in sweep] + [res.rho_at_b_star]
    return [(e.mean, e.stderr, e.n) for e in ests], (res.b_star, res.ci_halfwidth)


def test_antithetic_ignored_for_asymmetric_jumps_matches_unpaired_run():
    # mirroring would bias an asymmetric jump law, so no pairing happens and
    # every estimate (the solver's batches of paths included) equals the
    # unpaired one
    skew = LevyTriplet(0.0, 0.5, jumps=JumpSpec.kou_mixture(1.0, 0.7, 2.0, 3.0))
    prob = quad_problem(0.5, 0.5)
    plain = make_cfg(0.5, dt=0.05, n=301)
    with pytest.warns(UserWarning, match="antithetic ignored"):
        paired = _rho_sweep_solve(skew, prob, replace(plain, antithetic=True))
    assert paired == _rho_sweep_solve(skew, prob, plain)


@pytest.mark.parametrize("shape", [(64, 5), (64, 456), (64, 123_457), (1, 1), (3, 70_000), (64, 1_000)])
def test_weighted_rho_row_sums_match_per_row_sums(shape):
    # row blocks of at most BLOCK_FLOATS, each row one pairwise sum: the bits of row.sum() per row
    rng = np.random.default_rng(sum(shape))
    rows = rng.standard_normal(shape)
    for vals in (rng.standard_normal(shape[1]), rng.standard_normal(shape)):
        want = np.array([(row * v).sum() for row, v in zip(rows, np.broadcast_to(vals, shape))])
        assert np.array_equal(barrier_solver._WeightedRho._row_sums(vals, rows), want)


def test_solve_holds_one_copy_of_the_histogram(monkeypatch, traced_peak):
    # 2,000 Brownian paths at dt = 0.01: 64 histogram rows (23 MB) beside 31-path chunks (0.47 MB).
    # Stacking the rows into one array beside them peaked at 2.4 times the two
    merged = []
    real = estimators.map_reduce_paths

    def kept(*args, **kwargs):
        merged.append(real(*args, **kwargs))
        return merged[0]

    monkeypatch.setattr(estimators, "map_reduce_paths", kept)
    cfg = make_cfg(0.5, dt=0.01, n=2000, seed=3)
    _, peak = traced_peak(lambda: solve_barrier(BM, quad_problem(1.0, 0.5), cfg, bisect_tol=1e-3))
    rows = sum(row.nbytes for row in merged[0]["acc_hist"])
    chunk = max(hi - lo for lo, hi, _ in _chunk_plan(cfg.n_paths, cfg.n_steps + 1, False, CHUNK_TARGET_FLOATS))
    assert peak <= 1.25 * (rows + chunk * (cfg.n_steps + 1) * 8)


@pytest.mark.parametrize("antithetic", [False, True])
def test_pure_drift_solve_holds_one_row_per_batch_size(traced_peak, antithetic):
    # one path stands for 1,000 in batches of 15 and 16 (pairs of 7 and 8): two scaled histogram rows
    # of ~73,700 bins (0.59 MB), shared by the 64 batches.  A scaled copy per batch peaked at 68 rows
    cfg = replace(make_cfg(0.5, dt=0.01, n=1000, seed=3), antithetic=antithetic)
    res, peak = traced_peak(lambda: solve_barrier(DRIFT_UP, quad_problem(0.0, 0.5), cfg, bisect_tol=1e-3))
    assert abs(res.b_star + 2.0) <= 1e-2  # -mu / q, up to the grid's left rule
    n_bins = round(cfg.effective_horizon / 2.5e-4) + 1
    assert peak <= 10 * 8 * n_bins


def _padded(rows):
    stacked = np.zeros((len(rows), max(map(len, rows))))
    for dst, row in zip(stacked, rows):
        dst[: len(row)] = row
    return stacked


def _same_rows(a, b):
    return len(a) == len(b) and all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _histogram_rows(cfg, n_workers):
    reducer = functools.partial(value_chunk, pairs=(), f=np.square, q=0.5, dt=cfg.dt, hist=2.5e-4)
    return estimators.map_reduce_paths(BM, cfg, reducer, n_workers=n_workers)["acc_hist"]


def _random_rows(n, width, seed):
    # nonnegative weights over many magnitudes, one row at the full width
    rng = np.random.default_rng(seed)
    widths = rng.integers(1, width + 1, n)
    widths[n // 2] = width
    return [rng.random(w) * rng.choice([1e-3, 1.0, 1e3], w) for w in widths]


@pytest.mark.parametrize("rows", ["histogram", "one_bin", "blocks_of_32", "wide"])
def test_weighted_rho_reads_ragged_rows_as_padded_rows(rows):
    # the merged rows keep their own widths; pooled curve and batch means equal those of the rows
    # right-padded and stacked, bit for bit (np.sum(axis=0) pooled the stacked rows)
    if rows == "histogram":  # 130 Brownian paths: 64 batches of 2-3 paths, each as high as it reaches
        cfg = make_cfg(0.5, dt=0.05, n=130, seed=21)
        rows = _histogram_rows(cfg, 1)
        assert isinstance(rows, list) and len(rows) == BATCHES and len(set(map(len, rows))) > 1
        assert _same_rows(rows, _histogram_rows(cfg, 2))
    else:  # one bin (pooled pairwise), 32 rows per block of BLOCK_FLOATS, one row per block
        rows = _random_rows(BATCHES, {"one_bin": 1, "blocks_of_32": 1000, "wide": 70_001}[rows], len(rows))
    padded = _padded(rows)
    points = np.arange(padded.shape[1]) * 2.5e-4
    paths = np.arange(1.0, len(rows) + 1.0)
    f_prime = builtin_cost("quadratic").f_prime_plus
    ragged, stacked = (barrier_solver._WeightedRho(points, w, paths, f_prime) for w in (rows, padded))
    assert ragged.pooled.tobytes() == np.sum(padded, axis=0).tobytes()
    for b in (-2.0, -0.5, 0.0, 0.7):
        assert ragged(b) == stacked(b)
        assert ragged.batch_means(b).tobytes() == stacked.batch_means(b).tobytes()
