import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import levybarrier as lb
from levybarrier import JumpSpec, LevyTriplet
from levybarrier.errors import InvalidModel, NotSpectrallyNegative
from levybarrier.levy_model import JUMP_FAMILIES
from levybarrier.oracles import phi_root
from levybarrier.path_engine import SimConfig, simulate_batch


def characteristic_exponent(triplet: LevyTriplet, lam: float) -> complex:
    """Exponent Psi with E[exp(i*lam*X_t)] = exp(-t*Psi(lam)).

    Psi(lam) = -i*gamma*lam + sigma^2 lam^2 / 2
               + rate * E[1 - exp(i*lam*J) + i*lam*J*1_{|J|<1}],
    with the jump expectation in closed form per family (the tests' reference, with no
    caller in the library).
    """
    jumps = triplet.jumps
    val = -1j * triplet.gamma * lam + 0.5 * triplet.sigma**2 * lam**2
    val += jumps.rate * (1.0 - jumps.mgf(1j * lam) + 1j * lam * jumps.truncated_mean())
    return complex(val)


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


@pytest.mark.parametrize("lam", [1e-7, 1e-10, 1e-12])
def test_uniform_mgf_matches_its_series_near_zero(lam):
    # E[J^k] = (hi^(k+1) - lo^(k+1)) / ((k + 1)(hi - lo)); the series to O(lam^3) on both axes
    lo, hi = -0.5, 0.3
    jumps = JumpSpec.uniform_sizes(1.0, lo, hi)
    m1, m2, m3 = ((hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo)) for k in (1, 2, 3))
    assert jumps.mgf(lam) == pytest.approx(1.0 + lam * m1 + lam**2 * m2 / 2, rel=1e-15, abs=0.0)
    at_i_lam = jumps.mgf(1j * lam)
    assert at_i_lam.real == pytest.approx(1.0 - lam**2 * m2 / 2, rel=1e-15, abs=0.0)
    assert at_i_lam.imag == pytest.approx(lam * m1 - lam**3 * m3 / 6, rel=1e-14, abs=0.0)


def test_uniform_mgf_far_from_zero():
    # e^(lam lo) underflows while e^(lam (hi - lo)) need not: phi_root brackets out to lam = 2048
    # here, and at its root, 1500, the mgf is e^-750 / 750, so Phi(q) = (q + rate) / d to rounding
    jumps = JumpSpec.uniform_sizes(1.0, -1.0, -0.5)
    assert jumps.mgf(800.0) == pytest.approx(math.exp(-400.0) / 400.0, rel=1e-13)
    t = LevyTriplet(gamma=-0.749, sigma=0.0, jumps=jumps)
    assert phi_root(t, 0.5) == pytest.approx(1.5 / t.effective_drift, rel=1e-12)


def test_char_exponent_uniform_near_zero():
    # E[J] = E[J 1_{|J| < 1}] here, so the jump term is O(lam^2) real + O(lam^3) and Im Psi = -gamma lam
    t = LevyTriplet(gamma=0.1, sigma=0.0, jumps=JumpSpec.uniform_sizes(1.0, -0.5, 0.3))
    assert characteristic_exponent(t, 1e-9).imag == pytest.approx(-1e-10, rel=1e-9)


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


@pytest.mark.parametrize("jumps, described", [
    (JumpSpec.gaussian_sizes(1.5, 0.2, 0.7), {"rate": 1.5, "kind": "gaussian", "mean": 0.2, "std": 0.7}),
    (JumpSpec.uniform_sizes(0.5, -1.0, 2.0), {"rate": 0.5, "kind": "uniform", "lo": -1.0, "hi": 2.0}),
    (kou(1.3, 0.7, 1.5, 3.0), {"rate": 1.3, "kind": "kou", "p_up": 0.7, "eta_up": 1.5, "eta_down": 3.0}),
    (JumpSpec.atom_sizes(2.0, [-1.0, 2.0], [0.25, 0.75]),
     {"rate": 2.0, "kind": "atoms", "values": [-1.0, 2.0], "probs": [0.25, 0.75]}),
], ids=["gaussian", "uniform", "kou", "atoms"])
def test_family_draws_and_describe(jumps, described):
    # stream contract 6: n sizes are from_uniforms of the next m n uniforms u = 1 - U, m blocks of
    # n; describe() enters every fingerprint
    m = jumps.uniforms_per_size
    for seed in range(4):
        for n in (0, 1, 997):
            got_rng, want_rng = (np.random.Generator(np.random.PCG64DXSM(seed)) for _ in range(2))
            got = jumps.sample(got_rng, n)
            want = jumps.from_uniforms((1.0 - want_rng.random(m * n)).reshape(m, n))
            assert got.shape == (n,) and got.tobytes() == want.tobytes()
            assert got_rng.random() == want_rng.random()  # exactly m n uniforms consumed
    assert list(jumps.describe().items()) == list(described.items())
    assert list(JumpSpec.none().describe().items()) == [("rate", 0.0), ("kind", "none")]


def test_no_family_overrides_sample():
    # the benchmark times the grid's jump draws by patching JumpSpec.sample: an override would escape it
    assert [kind for kind, family in JUMP_FAMILIES.items() if "sample" in vars(family)] == []


def _uniforms(m, n, seed):
    """m arrays of n uniforms in (0, 1], as the clock skeleton draws them."""
    return 1.0 - np.random.default_rng(seed).random((m, n))


@pytest.mark.parametrize("jumps, mean, var", [
    (kou(1.0, 0.7, 1.5, 3.0), 0.7 / 1.5 - 0.3 / 3.0, 2 * 0.7 / 1.5**2 + 2 * 0.3 / 3.0**2 - (0.7 / 1.5 - 0.3 / 3.0) ** 2),
    (kou(1.0, 0.0, 2.0, 4.0), -0.25, 2 / 16.0 - 0.0625),
    (JumpSpec.gaussian_sizes(1.0, -0.3, 0.7), -0.3, 0.49),
    (JumpSpec.uniform_sizes(1.0, -0.4, 2.5), 1.05, 2.9**2 / 12.0),
], ids=["kou", "kou_negative", "gaussian", "uniform"])
def test_from_uniforms_law(jumps, mean, var):
    # 1e5 sizes from uniforms in (0, 1]: mean and variance within 4 se of the closed forms
    n = 100_000
    z = jumps.from_uniforms(_uniforms(jumps.uniforms_per_size, n, 17))
    assert z.shape == (n,)
    assert abs(z.mean() - mean) <= 4.0 * math.sqrt(var / n)
    dev = (z - mean) ** 2
    assert abs(dev.mean() - var) <= 4.0 * dev.std() / math.sqrt(n)


def test_from_uniforms_atom_frequencies():
    values, probs = (-2.0, 0.5, 3.0, 7.0), (0.2, 0.3, 0.5, 0.0)
    n = 100_000
    z = JumpSpec.atom_sizes(1.0, values, probs).from_uniforms(_uniforms(1, n, 18))
    for v, p in zip(values, probs):
        assert abs(np.mean(z == v) - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)
    assert np.isin(z, values).all()


@pytest.mark.parametrize("jumps, lo, hi", [
    (kou(1.0, 0.3, 1.5, 3.0), -np.inf, np.inf),
    (kou(1.0, 1.0, 1.5, 3.0), 0.0, np.inf),
    (kou(1.0, 0.0, 1.5, 3.0), -np.inf, 0.0),
    (JumpSpec.gaussian_sizes(1.0, 0.2, 0.5), -np.inf, np.inf),
    (JumpSpec.uniform_sizes(1.0, -0.1, 0.3), -0.1, 0.3),
    (JumpSpec.atom_sizes(1.0, (-1.0, 0.5, 2.0), (0.0, 1.0, 0.0)), 0.5, 0.5),
], ids=["kou", "kou_up_only", "kou_down_only", "gaussian", "uniform", "atoms_zero_mass_ends"])
def test_from_uniforms_at_the_ends(jumps, lo, hi):
    # u = 1 and u = 2**-53, the ends of (0, 1], in every combination of the family's inputs
    ends = np.array([2.0**-53, 0.5, 1.0])
    u = np.stack(np.meshgrid(*[ends] * jumps.uniforms_per_size, indexing="ij")).reshape(jumps.uniforms_per_size, -1)
    z = jumps.from_uniforms(u)
    assert np.isfinite(z).all() and (z >= lo).all() and (z <= hi).all()


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
