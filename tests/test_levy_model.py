import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import levybarrier as lb
from levybarrier import JumpSpec, LevyTriplet, characteristic_exponent
from levybarrier.errors import InvalidModel, NotSpectrallyNegative
from levybarrier.oracles import phi_root
from levybarrier.path_engine import SimConfig, simulate_batch


def kou(rate=1.0, p_up=0.5, eta_up=2.0, eta_down=2.0):
    return JumpSpec.kou_mixture(rate, p_up, eta_up, eta_down)


# ---------------------------------------------------------------------------
# characteristic exponent
# ---------------------------------------------------------------------------


def test_char_exponent_pure_gaussian():
    t = LevyTriplet(gamma=0.0, sigma=1.0)
    assert characteristic_exponent(t, 2.0) == pytest.approx(2.0 + 0.0j)


def test_char_exponent_pure_drift():
    t = LevyTriplet(gamma=1.0, sigma=0.0)
    assert characteristic_exponent(t, 3.0) == pytest.approx(-3.0j)


def _quad_jump_term(jumps, lam):
    """Independent oracle: numerical quadrature of the jump integrand."""

    def integrand_re(z):
        val = 1.0 - np.exp(1j * lam * z) + 1j * lam * z * (abs(z) < 1.0)
        return (val * jumps.pdf(z)).real

    def integrand_im(z):
        val = 1.0 - np.exp(1j * lam * z) + 1j * lam * z * (abs(z) < 1.0)
        return (val * jumps.pdf(z)).imag

    pieces = [(-60.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 60.0)]
    re = sum(integrate.quad(integrand_re, a, b, limit=200)[0] for a, b in pieces)
    im = sum(integrate.quad(integrand_im, a, b, limit=200)[0] for a, b in pieces)
    return jumps.rate * (re + 1j * im)


def test_char_exponent_kou_matches_quadrature():
    j = kou()
    t = LevyTriplet(gamma=0.0, sigma=0.0, jumps=j)
    got = characteristic_exponent(t, 1.0)
    assert got == pytest.approx(0.2 + 0.0j, abs=1e-12)  # closed form for this symmetric law
    assert got == pytest.approx(_quad_jump_term(j, 1.0), abs=1e-8)


@pytest.mark.parametrize(
    "jumps",
    [
        kou(1.3, 0.7, 1.5, 3.0),
        JumpSpec.gaussian_sizes(0.8, 0.2, 0.6),
        JumpSpec.uniform_sizes(2.0, -0.7, 1.4),
    ],
)
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.7])
def test_char_exponent_quadrature_cross_check(jumps, lam):
    t = LevyTriplet(gamma=0.3, sigma=0.4, jumps=jumps)
    expected = (
        -1j * t.gamma * lam + 0.5 * t.sigma**2 * lam**2 + _quad_jump_term(jumps, lam)
    )
    assert characteristic_exponent(t, lam) == pytest.approx(expected, abs=1e-7)


def test_psi_zero_is_zero():
    for t in [
        LevyTriplet(0.5, 1.0),
        LevyTriplet(0.0, 0.2, jumps=kou()),
        LevyTriplet(-1.0, 0.0, jumps=JumpSpec.atom_sizes(2.0, (-1.0, 2.0), (0.5, 0.5))),
    ]:
        assert characteristic_exponent(t, 0.0) == 0.0


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_psi_conjugate_symmetry(lam):
    t = LevyTriplet(gamma=0.4, sigma=0.7, jumps=kou(1.0, 0.3, 2.0, 1.0))
    a = characteristic_exponent(t, lam)
    b = characteristic_exponent(t, -lam)
    assert a == pytest.approx(np.conj(b), abs=1e-12)


def test_empirical_characteristic_function():
    # E[e^{i lam X_1}] = e^{-Psi(lam)}: exact in law on the grid, so the
    # Monte Carlo CLT bound 4/sqrt(N) applies per real/imaginary part
    n = 20_000
    cfg = SimConfig(dt=1.0 / 64, horizon_T=1.0, n_paths=n, master_seed=99, tail_tol=0.999)
    for t in [LevyTriplet(0.0, 1.0), LevyTriplet(0.2, 0.5, jumps=kou(1.0, 0.4, 2.0, 3.0))]:
        batch = simulate_batch(t, 0.0, cfg)
        x1 = batch[:, -1]
        for lam in (0.5, 1.0, 2.0):
            emp = np.exp(1j * lam * x1).mean()
            target = np.exp(-characteristic_exponent(t, lam))
            assert abs(emp.real - target.real) <= 4 / np.sqrt(n)
            assert abs(emp.imag - target.imag) <= 4 / np.sqrt(n)


# ---------------------------------------------------------------------------
# path flags
# ---------------------------------------------------------------------------


def test_driftless_compound_poisson_flag():
    cp = lb.driftless_compound_poisson(JumpSpec.atom_sizes(1.0, (-1.0, 1.0), (0.5, 0.5)))
    assert cp.is_driftless_cp()
    assert not cp.with_drift_added(0.1).is_driftless_cp()
    assert not LevyTriplet(cp.gamma, 1.0, jumps=cp.jumps).is_driftless_cp()


def test_classify_negative_of_subordinator():
    # the negative of a subordinator: only down-jumps, no Gaussian part, drift <= 0
    t = LevyTriplet(gamma=-1.0, sigma=0.0, jumps=kou(1.0, 0.0, 1.0, 2.0))
    assert t.jumps.support_negative
    assert np.all(t.jumps.sample(np.random.default_rng(0), 1000) < 0)
    assert t.sigma == 0.0 and t.effective_drift <= 0.0
    with pytest.raises(NotSpectrallyNegative, match="monotone"):
        phi_root(t, 0.5)


def test_degenerate_model_rejected():
    with pytest.raises(InvalidModel):
        LevyTriplet(gamma=0.0, sigma=0.0)


# ---------------------------------------------------------------------------
# exponential moments
# ---------------------------------------------------------------------------


def test_exp_moment_gaussian_always_finite():
    t = LevyTriplet(0.0, 1.0, jumps=JumpSpec.gaussian_sizes(1.0, 0.0, 2.0), exp_moment_theta=1.0)
    assert lb.exp_moment_check(t)


def test_exp_moment_kou_tail_too_heavy():
    t = LevyTriplet(0.0, 1.0, jumps=kou(eta_up=2.0), exp_moment_theta=3.0)
    assert not lb.exp_moment_check(t)
    # boundary theta = eta diverges as well
    t2 = LevyTriplet(0.0, 1.0, jumps=kou(eta_up=2.0, eta_down=5.0), exp_moment_theta=2.0)
    assert not lb.exp_moment_check(t2)


def test_exp_moment_bounded_support():
    t = LevyTriplet(
        0.0, 1.0, jumps=JumpSpec.atom_sizes(1.0, (-1.0, 2.0), (0.5, 0.5)), exp_moment_theta=10.0
    )
    assert lb.exp_moment_check(t)


# ---------------------------------------------------------------------------
# jump spec internals
# ---------------------------------------------------------------------------


def test_jump_invariants_rejected():
    with pytest.raises(InvalidModel):
        JumpSpec.kou_mixture(1.0, 1.5, 2.0, 2.0)
    with pytest.raises(InvalidModel):
        JumpSpec.atom_sizes(1.0, (0.0, 1.0), (0.5, 0.5))
    with pytest.raises(InvalidModel):
        JumpSpec.atom_sizes(1.0, (-1.0, 1.0), (0.6, 0.6))
    with pytest.raises(InvalidModel):
        JumpSpec(rate=-1.0)
    with pytest.raises(InvalidModel):
        JumpSpec(rate=1.0)
    with pytest.raises(InvalidModel):
        JumpSpec.gaussian_sizes(0.0, 0.0, 1.0)


def test_samples_never_zero():
    rng = np.random.default_rng(0)
    for j in [kou(), JumpSpec.uniform_sizes(1.0, -1.0, 1.0), JumpSpec.gaussian_sizes(1.0, 0.0, 1.0)]:
        assert np.all(j.sample(rng, 5000) != 0.0)


@pytest.mark.parametrize("values, probs", [((-1.0, 1.0), (0.5, 0.5)), ((1.0,), (1.0,)),
                                           ((-2.0, 0.5, 3.0), (0.2, 0.3, 0.5)),
                                           ((-1.5, 0.25, 2.0, 4.0), (0.1, 0.6, 0.2, 0.1))])
def test_atom_sampler_is_generator_choice(values, probs):
    jumps = JumpSpec.atom_sizes(1.0, values, probs)
    for seed in range(4):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = jumps.sample(got_rng, 997)
        want = want_rng.choice(np.asarray(values), size=997, p=np.asarray(probs))
        assert np.array_equal(got, want)
        assert got_rng.random() == want_rng.random()  # the same draws consumed


def _kou_draw(p_up, eta_up, eta_down):
    def draw(rng, n):
        up = rng.random(n) < p_up
        mags_up, mags_down = rng.exponential(1.0 / eta_up, n), rng.exponential(1.0 / eta_down, n)
        return np.where(up, mags_up, -mags_down)

    return draw


@pytest.mark.parametrize("jumps, draw, described", [
    (JumpSpec.gaussian_sizes(1.5, 0.2, 0.7), lambda rng, n: rng.normal(0.2, 0.7, n),
     {"rate": 1.5, "kind": "gaussian", "mean": 0.2, "std": 0.7}),
    (JumpSpec.uniform_sizes(0.5, -1.0, 2.0), lambda rng, n: rng.uniform(-1.0, 2.0, n),
     {"rate": 0.5, "kind": "uniform", "lo": -1.0, "hi": 2.0}),
    (kou(1.3, 0.7, 1.5, 3.0), _kou_draw(0.7, 1.5, 3.0),
     {"rate": 1.3, "kind": "kou", "p_up": 0.7, "eta_up": 1.5, "eta_down": 3.0}),
    (JumpSpec.atom_sizes(2.0, [-1.0, 2.0], [0.25, 0.75]),
     lambda rng, n: rng.choice(np.array([-1.0, 2.0]), size=n, p=np.array([0.25, 0.75])),
     {"rate": 2.0, "kind": "atoms", "values": [-1.0, 2.0], "probs": [0.25, 0.75]}),
], ids=["gaussian", "uniform", "kou", "atoms"])
def test_family_draws_and_describe(jumps, draw, described):
    # the draws are stream contract 3's and describe() enters every fingerprint
    for seed in range(4):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(jumps.sample(got_rng, 997), draw(want_rng, 997))
        assert got_rng.random() == want_rng.random()  # the same draws consumed
    assert list(jumps.describe().items()) == list(described.items())
    assert list(JumpSpec.none().describe().items()) == [("rate", 0.0), ("kind", "none")]


def test_truncated_mean_against_quadrature():
    for j in [kou(1.0, 0.7, 1.5, 3.0), JumpSpec.gaussian_sizes(1.0, 0.3, 0.8),
              JumpSpec.uniform_sizes(1.0, -0.4, 2.5)]:
        val, _ = integrate.quad(lambda z: z * j.pdf(z), -1.0, 1.0, limit=200)
        assert j.truncated_mean() == pytest.approx(val, abs=1e-10)


@pytest.mark.parametrize("jumps", [kou(1.0, 0.7, 1.5, 3.0), JumpSpec.gaussian_sizes(1.0, 0.3, 0.8),
                                   JumpSpec.uniform_sizes(1.0, -0.4, 2.5), JumpSpec.uniform_sizes(1.0, 0.5, 2.0),
                                   JumpSpec.uniform_sizes(1.0, -3.0, -1.5)])
def test_mean_abs_size_against_quadrature(jumps):
    pieces = [(-60.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 60.0)]
    val = sum(integrate.quad(lambda z: abs(z) * jumps.pdf(z), a, b, limit=200)[0] for a, b in pieces)
    assert jumps.mean_abs_size() == pytest.approx(val, abs=1e-9)


@pytest.mark.parametrize("mean, std", [(0.3, 0.8), (-0.3, 0.7), (0.0, 1.0), (2.0, 0.5), (-1.5, 0.25)])
def test_gaussian_normal_law_matches_scipy(mean, std):
    jumps = JumpSpec.gaussian_sizes(1.0, mean, std)
    z = np.linspace(mean - 12 * std, mean + 12 * std, 10_001)
    assert np.array_equal(jumps.pdf(z), stats.norm.pdf(z, loc=mean, scale=std))
    a, b = (-1.0 - mean) / std, (1.0 - mean) / std
    truncated = mean * (stats.norm.cdf(b) - stats.norm.cdf(a)) + std * (stats.norm.pdf(a) - stats.norm.pdf(b))
    assert jumps.truncated_mean() == pytest.approx(truncated, rel=1e-13)
    mean_abs = std * np.sqrt(2 / np.pi) * np.exp(-0.5 * (mean / std) ** 2) + mean * (
        1.0 - 2.0 * stats.norm.cdf(-mean / std))
    assert jumps.mean_abs_size() == pytest.approx(mean_abs, rel=1e-13)
    for tail in (1e-3, 1e-6):
        z = stats.norm.ppf(1.0 - tail)
        expected = (min(0.0, mean - z * std), max(0.0, mean + z * std))
        assert jumps.displacement_quantiles(tail) == pytest.approx(expected, rel=1e-13)


def test_symmetry_flags():
    assert kou().is_symmetric
    assert not kou(p_up=0.4).is_symmetric
    assert JumpSpec.atom_sizes(1.0, (-1.0, 1.0), (0.5, 0.5)).is_symmetric
    assert not JumpSpec.atom_sizes(1.0, (-1.0, 2.0), (0.5, 0.5)).is_symmetric
