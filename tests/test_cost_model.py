import numpy as np
import pytest
from scipy import integrate

from levybarrier import builtin_cost, mollify
from levybarrier.cost_model import CostSpec, ProblemSpec
from levybarrier.errors import AssumptionViolated, NonConvexSpec


def test_quadratic_values_and_slopes():
    c = builtin_cost("quadratic")
    assert c.f(3.0) == 9.0
    assert c.f_prime_plus(3.0) == 6.0
    assert c.f_prime_minus(3.0) == 6.0


def test_abs_kink():
    c = builtin_cost("abs")
    assert c.f_prime_plus(0.0) == 1.0
    assert c.f_prime_minus(0.0) == -1.0
    assert c.f(-2.5) == 2.5


def test_piecewise_linear_kink():
    c = builtin_cost("piecewise_linear", slopes=(-2.0, 1.0), kinks=(0.0,))
    assert c.f_prime_plus(0.0) == 1.0
    assert c.f_prime_minus(0.0) == -2.0
    assert c.f(-1.0) == 2.0 and c.f(2.0) == 2.0
    assert c.f_prime_limits == (-2.0, 1.0)


def test_nonconvex_rejected():
    with pytest.raises(NonConvexSpec):
        builtin_cost("piecewise_linear", slopes=(1.0, -1.0), kinks=(0.0,))


def test_vectorized_evaluation():
    c = builtin_cost("piecewise_linear", slopes=(-1.0, 0.0, 2.0), kinks=(-1.0, 1.0))
    x = np.array([-3.0, -1.0, 0.0, 1.0, 4.0])
    assert np.allclose(c.f(x), [2.0, 0.0, 0.0, 0.0, 6.0])
    assert np.allclose(c.f_prime_plus(x), [-1.0, 0.0, 0.0, 2.0, 2.0])
    assert np.allclose(c.f_prime_minus(x), [-1.0, -1.0, 0.0, 0.0, 2.0])


def test_admissibility_predicate():
    cost = builtin_cost("quadratic")
    assert ProblemSpec(cost=cost, C=1.0, q=0.5).is_admissible()
    flat = builtin_cost("piecewise_linear", slopes=(1.0, 1.0), kinks=(0.0,))
    prob = ProblemSpec(cost=flat, C=1.0, q=0.5)  # slopes equal: -Cq outside (1, 1)
    assert not prob.is_admissible()
    with pytest.raises(AssumptionViolated):
        prob.require_admissible()


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def test_mollified_linear_cost_keeps_slope():
    c = builtin_cost("piecewise_linear", slopes=(0.7, 0.7), kinks=(0.0,))
    m = mollify(c, 0.3)
    x = np.linspace(-5, 5, 21)
    assert np.allclose(m.f_prime_plus(x), 0.7, atol=1e-12)


def test_mollified_abs_exact_values():
    eps = 0.2
    m = mollify(builtin_cost("abs"), eps, b_star_anchor=0.0)
    assert m.f_prime_plus(0.0) == pytest.approx(-1.0, abs=1e-12)
    assert m.f_prime_plus(eps) == pytest.approx(0.0, abs=1e-12)
    assert m.f_prime_plus(2 * eps) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("field", ["f", "f_prime_plus"])
def test_mollified_derivative_against_quadrature(field):
    # oracles, split at the kink crossings: f_eps(x) = E f(x+S) - E f(a+S) + f(a)
    # against the triangular density of S on [-2 eps, 0], and f_eps'(x) as the
    # equivalent single integral of the difference quotient [f(x+z) - f(x+z-eps)] / eps
    base = builtin_cost("piecewise_linear", slopes=(-2.0, 0.5, 3.0), kinks=(-0.5, 1.0))
    eps = 0.37
    m = mollify(base, eps)
    kinks = (-0.5, 1.0)

    def quad(g, lo, breaks):
        inner = sorted(b for b in breaks if lo < b < 0.0)
        val, _ = integrate.quad(g, lo, 0.0, points=inner or None, limit=200, epsabs=1e-13, epsrel=1e-13)
        return val

    def smoothed(x):
        density = lambda s: (eps - abs(s + eps)) / eps**2
        return quad(lambda s: float(base.f(x + s)) * density(s), -2 * eps, {-eps} | {k - x for k in kinks})

    def slope(x):
        breaks = {z for k in kinks for z in (k - x, k - x + eps)}
        return quad(lambda z: float(base.f(x + z)) - float(base.f(x + z - eps)), -eps, breaks) / eps**2

    oracle = {"f": lambda x: smoothed(x) - smoothed(0.0) + float(base.f(0.0)), "f_prime_plus": slope}[field]
    for x in (-1.3, -0.5, -0.2, 0.4, 1.0, 1.2, 1.9):
        assert float(getattr(m, field)(x)) == pytest.approx(oracle(x), abs=1e-9)


def test_mollify_rejects_costs_outside_the_builtin_families():
    base = builtin_cost("abs")
    custom = CostSpec(f=base.f, f_prime_plus=base.f_prime_plus, f_prime_minus=base.f_prime_minus,
                      growth_k1=0.0, growth_k2=1.0, growth_degree=1, f_prime_limits=(-1.0, 1.0))
    with pytest.raises(ValueError, match=r"\('custom',\)"):
        mollify(custom, 0.2)
    with pytest.raises(ValueError, match=r"\('mollified', \('piecewise_linear'"):
        mollify(mollify(base, 0.2), 0.1)


def test_mollified_quadratic_second_derivative_exact():
    m = mollify(builtin_cost("quadratic"), 0.45)
    x = np.linspace(-4, 4, 17)
    assert np.allclose(m.f_double_prime(x), 2.0, atol=1e-10)
    # derivative: triangular kernel average of 2(x+s) has mean shift -eps
    assert np.allclose(m.f_prime_plus(x), 2 * (x - 0.45), atol=1e-12)


def test_mollified_quartic_against_quadrature():
    base = builtin_cost("quartic")
    eps = 0.3
    m = mollify(base, eps)

    def oracle(x):
        val, _ = integrate.quad(
            lambda z: float(base.f(x + z)) - float(base.f(x + z - eps)), -eps, 0.0
        )
        return val / eps**2

    for x in (-2.0, -0.3, 0.0, 1.2):
        assert float(m.f_prime_plus(x)) == pytest.approx(oracle(x), rel=1e-9)


def test_mollified_derivative_bands():
    # f_eps'(x) lies in [f'_-(x - 2 eps), f'_-(x)]
    base = builtin_cost("abs")
    eps = 0.25
    m = mollify(base, eps)
    x = np.linspace(-2, 2, 41)
    lo = base.f_prime_minus(x - 2 * eps)
    hi = base.f_prime_minus(x)
    mid = m.f_prime_plus(x)
    assert np.all(mid >= lo - 1e-12)
    assert np.all(mid <= hi + 1e-12)


def test_mollified_monotone_in_eps_and_limit():
    base = builtin_cost("abs")
    x = np.linspace(-1.5, 1.5, 20)
    prev = None
    for eps in (0.4, 0.2, 0.1, 0.05):
        cur = np.asarray(mollify(base, eps).f_prime_plus(x))
        if prev is not None:
            assert np.all(cur >= prev - 1e-12)
        prev = cur
    assert np.all(prev <= np.asarray(base.f_prime_minus(x)) + 1e-12)
    # pointwise limit toward f'_- as eps shrinks further
    tiny = np.asarray(mollify(base, 1e-4).f_prime_plus(x))
    assert np.allclose(tiny, base.f_prime_minus(x), atol=5e-4)


def test_mollified_value_anchor_and_ordering():
    base = builtin_cost("abs")
    eps = 0.3
    anchor = 0.7
    m = mollify(base, eps, b_star_anchor=anchor)
    assert float(m.f(anchor)) == pytest.approx(float(base.f(anchor)), abs=1e-10)
    xs_below = np.array([-1.0, 0.0, 0.4])
    xs_above = np.array([1.0, 1.5, 2.0])
    assert np.all(np.asarray(m.f(xs_below)) >= np.asarray(base.f(xs_below)) - 1e-9)
    assert np.all(np.asarray(m.f(xs_above)) <= np.asarray(base.f(xs_above)) + 1e-9)


def test_mollified_passes_cost_validation():
    for kind in ("quadratic", "abs", "quartic"):
        m = mollify(builtin_cost(kind), 0.2)
        m.validate(np.linspace(-8, 8, 33))
