"""Convex running costs, control cost, discounting, and cost smoothing.

A cost is carried around as a :class:`CostSpec`: the function itself, its
one-sided derivatives, a polynomial growth certificate ``|f| <= k1+k2|x|^N``,
and the derivative limits at -inf/+inf.  All evaluation callables must accept
scalars and numpy arrays and be pure.  Each builtin family is one small
picklable class, so costs can cross process boundaries: ``_Power`` gives x^n
or its slope (``quadratic`` n = 2, ``quartic`` n = 4), and ``_PiecewiseLinear``
gives the value or either one-sided slope (``abs`` is slopes (-1, 1) at 0).

``mollify`` smooths a builtin cost into f_eps(x) = E f(x + S) - E f(a + S) + f(a),
S = -(Y + Z) with Y, Z iid uniform(0, eps): a triangular kernel on [-2 eps, 0].
f_eps and its two derivatives are closed forms (polynomials for the quadratic and
quartic families; the kernel's call, CDF and density at each kink of a
piecewise-linear one); costs that are not builtin families cannot be mollified.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AssumptionViolated, NonConvexSpec

__all__ = ["CostSpec", "ProblemSpec", "builtin_cost", "mollify"]

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class CostSpec:
    """Convex running cost with one-sided derivatives and a growth bound."""

    f: Callable
    f_prime_plus: Callable
    f_prime_minus: Callable
    growth_k1: float
    growth_k2: float
    growth_degree: int
    f_prime_limits: tuple[float, float]
    descriptor: tuple = ("custom",)
    f_double_prime: Callable | None = None

    def validate(self, grid=None) -> None:
        """Spot-check convexity, derivative consistency and the growth bound.

        Raises NonConvexSpec / ValueError on violation.  The finite-difference
        check uses tol = 1e-6 * (1 + |f'_+|), a relative tolerance that
        survives large slopes.
        """
        if grid is None:
            grid = np.linspace(-20.0, 20.0, 41)
        grid = np.asarray(grid, dtype=float)
        fp = np.asarray(self.f_prime_plus(grid), dtype=float)
        fm = np.asarray(self.f_prime_minus(grid), dtype=float)
        if np.any(fm > fp + 1e-12 * (1 + np.abs(fp))):
            raise NonConvexSpec("left derivative exceeds right derivative")
        if np.any(np.diff(fp) < -1e-12 * (1 + np.abs(fp[:-1]))) or np.any(
            np.diff(fm) < -1e-12 * (1 + np.abs(fm[:-1]))
        ):
            raise NonConvexSpec("one-sided derivatives must be nondecreasing")
        h = 1e-6
        fd = (np.asarray(self.f(grid + h)) - np.asarray(self.f(grid))) / h
        tol = 1e-6 * (1.0 + np.abs(fp))
        hi = np.asarray(self.f_prime_plus(grid + h), dtype=float)
        if np.any(fd < fp - tol) or np.any(fd > hi + tol):
            raise ValueError("finite differences inconsistent with declared f'_+")
        bound = self.growth_k1 + self.growth_k2 * np.abs(grid) ** self.growth_degree
        if np.any(np.abs(np.asarray(self.f(grid))) > bound * (1 + 1e-9) + 1e-9):
            raise ValueError("growth certificate (k1, k2, N) does not bound |f| on the grid")

    def describe(self) -> dict:
        return {
            "descriptor": list(self.descriptor),
            "growth": [self.growth_k1, self.growth_k2, self.growth_degree],
        }


@dataclass(frozen=True)
class ProblemSpec:
    """Running cost together with the unit control cost C and discount q."""

    cost: CostSpec
    C: float
    q: float

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("discount q must be positive")

    def is_admissible(self) -> bool:
        """f'_+(-inf) < -C q < f'_+(inf): the barrier problem is nontrivial."""
        lo, hi = self.cost.f_prime_limits
        return lo < -self.C * self.q < hi

    def require_admissible(self) -> None:
        if not self.is_admissible():
            lo, hi = self.cost.f_prime_limits
            raise AssumptionViolated(
                f"need f'_+(-inf) < -C*q < f'_+(inf); got {lo} < {-self.C * self.q} < {hi}"
            )

    def describe(self) -> dict:
        return {"cost": self.cost.describe(), "C": self.C, "q": self.q}


# ---------------------------------------------------------------------------
# builtin families (picklable callables)
# ---------------------------------------------------------------------------


_POWERS = {"quadratic": 2, "quartic": 4}  # kind -> n of the power family x^n


class _Power:
    """x^n, or its slope n x^(n-1) when ``slope``."""

    def __init__(self, n: int, slope: bool = False):
        self.n, self.slope = n, slope

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if not self.slope:
            return x**self.n
        return self.n * (x if self.n == 2 else x ** (self.n - 1))  # x**1 would copy x


class _PiecewiseLinear:
    """Convex piecewise-linear function with f(first kink) = 0, or its right (``side``
    "right") or left ("left") slope."""

    def __init__(self, slopes, kinks, side=None):
        self.slopes = np.asarray(slopes, dtype=float)
        self.kinks = np.asarray(kinks, dtype=float)
        self.side = side
        # value at each kink, integrating slopes from the first kink
        self.kink_values = np.cumsum(np.append(0.0, self.slopes[1:-1] * np.diff(self.kinks)))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.kinks, x, side=self.side or "right")  # segment index
        if self.side:
            return self.slopes[idx]
        idx_k = np.clip(idx, 1, len(self.kinks)) - 1
        return self.kink_values[idx_k] + self.slopes[idx] * (x - self.kinks[idx_k])


def builtin_cost(kind: str, **params) -> CostSpec:
    """Construct one of the builtin convex cost families.

    kind: "quadratic" (x^2), "abs" (|x|), "quartic" (x^4) or
    "piecewise_linear" with params slopes (len k+1) and kinks (len k).
    Kinks produce genuinely different one-sided derivatives.
    """
    if kind in _POWERS:
        n = _POWERS[kind]
        spec = CostSpec(
            f=_Power(n),
            f_prime_plus=_Power(n, slope=True),
            f_prime_minus=_Power(n, slope=True),
            growth_k1=0.0,
            growth_k2=1.0,
            growth_degree=n,
            f_prime_limits=(NEG_INF, POS_INF),
            descriptor=(kind,),
        )
    elif kind == "abs":
        return builtin_cost("piecewise_linear", slopes=(-1.0, 1.0), kinks=(0.0,))
    elif kind == "piecewise_linear":
        slopes = tuple(float(s) for s in params["slopes"])
        kinks = tuple(float(k) for k in params["kinks"])
        if len(slopes) != len(kinks) + 1:
            raise ValueError("piecewise_linear needs len(slopes) == len(kinks) + 1")
        if any(s2 < s1 for s1, s2 in zip(slopes, slopes[1:])):
            raise NonConvexSpec("piecewise slopes must be nondecreasing")
        if any(k2 <= k1 for k1, k2 in zip(kinks, kinks[1:])):
            raise ValueError("kinks must be strictly increasing")
        pwl = _PiecewiseLinear(slopes, kinks)
        k1_cert = float(np.max(np.abs(pwl.kink_values)) + np.max(np.abs(kinks)) * np.max(np.abs(slopes)))
        spec = CostSpec(
            f=pwl,
            f_prime_plus=_PiecewiseLinear(slopes, kinks, "right"),
            f_prime_minus=_PiecewiseLinear(slopes, kinks, "left"),
            growth_k1=k1_cert,
            growth_k2=float(np.max(np.abs(slopes))),
            growth_degree=1,
            f_prime_limits=(slopes[0], slopes[-1]),
            descriptor=("piecewise_linear", slopes, kinks),
        )
    else:
        raise ValueError(f"unknown builtin cost kind {kind!r}")
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def _kernel_part(y, eps: float, order: int):
    """E[(y + S)^+] (order 0), or the CDF (1) or density (2) of -S at y: second backward
    differences of (y^+)^n / n!, n = 3 - order, over eps^2 below 2 eps, where the kink is
    inside the kernel, and exactly y - eps, 1 or 0 above (no cancellation at large y)."""
    n, head = 3 - order, np.minimum(y, 2.0 * eps)
    inner = np.maximum(head, 0.0) ** n - 2.0 * np.maximum(head - eps, 0.0) ** n
    return np.where(y < 2.0 * eps, inner / (math.factorial(n) * eps**2), (y - eps, 1.0, 0.0)[order])


class _Mollified:
    """Order ``order`` derivative of x -> E f(x + S) for a builtin family f, in closed form;
    order 0 is shifted so that it equals f at ``anchor``."""

    def __init__(self, base: CostSpec, eps: float, order: int, anchor: float = 0.0):
        kind, e2 = base.descriptor[0], eps**2
        self.eps, self.order, self.shift, self.poly = eps, order, 0.0, None
        # E (y + S + eps)^n, a polynomial in y = x - eps: S + eps is symmetric, with
        # variance eps^2 / 6 and fourth moment eps^4 / 15; np.polyder is exact on it
        rows = {"quadratic": [1.0, 0.0, e2 / 6.0], "quartic": [1.0, 0.0, e2, 0.0, e2**2 / 15.0]}
        if kind in rows:
            self.poly = np.polyder(rows[kind], order)
        elif kind == "piecewise_linear":
            # f = s_0 (x - k_1) + sum_j (s_j - s_(j-1)) (x - k_j)^+, as _PiecewiseLinear
            self.slopes, self.kinks = (np.asarray(v, dtype=float) for v in base.descriptor[1:3])
        else:
            raise ValueError(f"mollify supports the builtin cost families only, not {base.descriptor!r}")
        if order == 0:
            self.shift = float(base.f(anchor)) - float(self(anchor))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.poly is not None:
            return np.polyval(self.poly, x - self.eps) + self.shift
        s0, k1 = self.slopes[0], self.kinks[0]
        out = (s0 * (x - self.eps - k1), np.full_like(x, s0), np.zeros_like(x))[self.order]
        for k, ds in zip(self.kinks, np.diff(self.slopes)):
            out = out + ds * _kernel_part(x - k, self.eps, self.order)
        return out + self.shift


def mollify(cost: CostSpec, epsilon: float, b_star_anchor: float = 0.0) -> CostSpec:
    """Smooth a convex cost into a C^2 convex cost with the same tail slopes.

    The derivative is the double average of f'_+ over the square
    (-epsilon, 0)^2 shifted to x, so it lies between f'_-(x - 2 epsilon) and
    f'_-(x) and increases pointwise toward f'_- as epsilon decreases.  The
    anchor only fixes the additive constant (value equality at the anchor);
    derivatives and hence the optimal barrier do not depend on it.  A cost
    that is not a builtin family (descriptor) raises ValueError here.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    deriv = _Mollified(cost, epsilon, 1)
    # |f_eps| <= |f| + |f(a) - f(a - 2 eps)| + 2 eps sup|slope| style slack,
    # folded into k1 via the growth bound at shifted arguments
    shift = 2.0 * epsilon + abs(b_star_anchor)
    k1 = cost.growth_k1 * 2 + cost.growth_k2 * (2.0 * shift + 1.0) ** cost.growth_degree
    k2 = cost.growth_k2 * 2.0 ** cost.growth_degree
    return CostSpec(
        f=_Mollified(cost, epsilon, 0, b_star_anchor),
        f_prime_plus=deriv,
        f_prime_minus=deriv,
        growth_k1=float(k1),
        growth_k2=float(k2),
        growth_degree=cost.growth_degree,
        f_prime_limits=cost.f_prime_limits,
        descriptor=("mollified", cost.descriptor, epsilon, b_star_anchor),
        f_double_prime=_Mollified(cost, epsilon, 2),
    )
