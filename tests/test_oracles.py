import numpy as np
import pytest

import levybarrier as lb
from levybarrier import JumpSpec, LevyTriplet, builtin_cost
from levybarrier.cost_model import ProblemSpec
from levybarrier.errors import NotSpectrallyNegative
from levybarrier.oracles import (
    SpectrallyNegativeOracle,
    _laplace_exponent,
    phi_root,
    pure_drift_value,
    quadratic_bstar_closed_form,
)

BM = LevyTriplet(gamma=0.0, sigma=1.0)


def test_phi_driftless_bm():
    # psi(lam) = lam^2 / 2 = q  =>  Phi(q) = sqrt(2q)
    assert phi_root(BM, 0.5) == pytest.approx(1.0, abs=1e-10)
    assert phi_root(BM, 2.0) == pytest.approx(2.0, abs=1e-10)


def test_phi_pure_positive_drift():
    t = LevyTriplet(gamma=2.0, sigma=0.0)
    assert phi_root(t, 0.5) == pytest.approx(0.25, abs=1e-10)


def test_phi_bm_with_negative_exponential_jumps():
    t = LevyTriplet(gamma=0.0, sigma=1.0, jumps=JumpSpec.kou_mixture(2.0, 0.0, 1.0, 1.5))
    oracle = SpectrallyNegativeOracle.for_model(t, 0.7)
    assert abs(_laplace_exponent(t, oracle.phi_q) - 0.7) <= 1e-10
    # psi convex with psi(0) = 0
    lams = np.linspace(0.0, 2 * oracle.phi_q, 9)
    vals = [_laplace_exponent(t, l) for l in lams]
    assert vals[0] == 0.0
    assert np.all(np.diff(vals, 2) >= -1e-9)


def test_phi_rejects_positive_jumps_and_monotone_paths():
    # up-jumps are refused before monotone-down paths, which psi never lifts to q
    up_jumps = [JumpSpec.kou_mixture(1.0, 0.5, 2.0, 2.0), JumpSpec.kou_mixture(1.0, 0.1, 2.0, 2.0),
                JumpSpec.gaussian_sizes(1.0, -3.0, 0.5), JumpSpec.uniform_sizes(1.0, -1.0, 0.5),
                JumpSpec.atom_sizes(1.0, (-1.0, 0.5), (0.9, 0.1))]
    for jumps in up_jumps:
        with pytest.raises(NotSpectrallyNegative, match="positive jumps"):
            phi_root(LevyTriplet(0.0, 1.0, jumps=jumps), 0.5)
        with pytest.raises(NotSpectrallyNegative, match="positive jumps"):
            phi_root(LevyTriplet(-1.0, 0.0, jumps=jumps), 0.5)
    monotone_down = [
        LevyTriplet(-1.0, 0.0, jumps=JumpSpec.kou_mixture(1.0, 0.0, 1.0, 2.0)),
        LevyTriplet(-1.0, 0.0, jumps=JumpSpec.uniform_sizes(1.0, -1.0, 0.0)),
        LevyTriplet(0.0, 0.0, jumps=JumpSpec.atom_sizes(1.0, (-1.0,), (1.0,))),
        LevyTriplet(-0.5, 0.0),
    ]
    for model in monotone_down:
        with pytest.raises(NotSpectrallyNegative, match="monotone"):
            phi_root(model, 0.5)


def test_quadratic_bstar_closed_forms():
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=1.0, q=0.5)
    oracle = SpectrallyNegativeOracle.for_model(BM, 0.5)
    assert quadratic_bstar_closed_form(oracle, prob) == pytest.approx(-1.25, abs=1e-10)

    drift = LevyTriplet(gamma=1.0, sigma=0.0)
    prob2 = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=0.1)
    oracle2 = SpectrallyNegativeOracle.for_model(drift, 0.1)
    assert quadratic_bstar_closed_form(oracle2, prob2) == pytest.approx(-10.0, abs=1e-9)


def test_bstar_inversion_gives_zero_barrier():
    # pick C so that the closed form vanishes; the solver must return ~0
    q = 0.5
    oracle = SpectrallyNegativeOracle.for_model(BM, q)
    C = -2.0 / (q * oracle.phi_q)
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=C, q=q)
    assert quadratic_bstar_closed_form(oracle, prob) == pytest.approx(0.0, abs=1e-12)
    cfg = lb.SimConfig(dt=2e-3, horizon_T=lb.horizon_for(q, 1e-4, 2e-3),
                       n_paths=3000, master_seed=14)
    res = lb.solve_barrier(BM, prob, cfg)
    assert abs(res.b_star) <= 0.03 + 3 * res.ci_halfwidth


def test_pure_drift_value_formula():
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=1.0, q=0.5)
    assert pure_drift_value(prob, d=1.0, b=0.0, x=0.0) == pytest.approx(16.0)
    prob2 = ProblemSpec(cost=builtin_cost("quadratic"), C=1.0, q=1.0)
    assert pure_drift_value(prob2, d=0.5, b=0.0, x=1.0) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        pure_drift_value(prob, d=0.0, b=0.0, x=0.0)  # degenerate drift excluded
    with pytest.raises(ValueError):
        pure_drift_value(prob, d=1.0, b=1.0, x=0.0)  # would reflect


def test_exp_clock_rho_matches_phi():
    # q rho_ec(0) / 2 for the quadratic cost is E[S at e_q] = 1 / Phi(q)
    q = 0.5
    oracle = SpectrallyNegativeOracle.for_model(BM, q)
    cfg = lb.SimConfig(dt=2e-4, horizon_T=lb.horizon_for(q, 1e-4, 2e-4),
                       n_paths=3000, master_seed=15)
    prob = ProblemSpec(cost=builtin_cost("quadratic"), C=0.0, q=q)
    est = lb.estimate_rho(BM, prob, 0.0, cfg, method="exp_clock")
    mean, se = q * est.mean / 2, q * est.stderr / 2
    assert abs(mean - 1 / oracle.phi_q) <= 3 * se + 0.6 * np.sqrt(cfg.dt)
