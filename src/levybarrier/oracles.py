"""Closed-form ground truths for spectrally negative and pure-drift models.

For a process with no positive jumps the running supremum at an independent
Exponential(q) time is Exponential(Phi(q)), where Phi(q) is the positive
root of the Laplace exponent equation psi(lam) = q.  Combined with the
quadratic-cost identity b* = -q (C/2 + E[int e^{-qt} U^0_t dt]) this yields
the exact optimal barrier b* = -q C / 2 - 1 / Phi(q) used to cross-check
the Monte Carlo solver; Phi(q) comes from the barrier solver's root finder.
Two-sided models have no such closed form here and are validated through
internal identities instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .barrier_solver import _bisect, _expand_bracket
from .cost_model import ProblemSpec
from .errors import NotSpectrallyNegative
from .levy_model import LevyTriplet

__all__ = [
    "SpectrallyNegativeOracle",
    "phi_root",
    "quadratic_bstar_closed_form",
    "pure_drift_value",
]

PHI_RESIDUAL_TOL = 1e-10


def _laplace_exponent(triplet: LevyTriplet, lam: float) -> float:
    """psi(lam) = log E[e^{lam X_1}] for lam >= 0, finite when jumps are <= 0."""
    jumps = triplet.jumps
    val = triplet.effective_drift * lam + 0.5 * (triplet.sigma * lam) ** 2
    return val + jumps.rate * (jumps.mgf(lam) - 1.0)


def phi_root(triplet: LevyTriplet, q: float) -> float:
    """Positive root Phi(q) of psi(lam) = q, bisected to adjacent floats by the solver's root finder.

    psi is convex with psi(0) = 0 and unbounded unless the paths are monotone
    nonincreasing (those never cross q), so the bracket is finite.
    """
    if not triplet.jumps.support_negative:
        raise NotSpectrallyNegative("model has positive jumps")
    if triplet.sigma == 0.0 and triplet.effective_drift <= 0.0:
        raise NotSpectrallyNegative("monotone nonincreasing paths: psi stays below q")
    if q <= 0:
        raise ValueError("q must be positive")
    g = lambda lam: _laplace_exponent(triplet, lam) - q
    root = _bisect(g, *_expand_bracket(g, limit=math.inf), bisect_tol=0.0)[0]
    residual = abs(g(root))
    if residual > PHI_RESIDUAL_TOL:
        raise ArithmeticError(f"phi root residual {residual:.2e} exceeds {PHI_RESIDUAL_TOL}")
    return float(root)


@dataclass(frozen=True)
class SpectrallyNegativeOracle:
    """Laplace exponent data for a model with no positive jumps."""

    triplet: LevyTriplet
    q: float
    phi_q: float

    @classmethod
    def for_model(cls, triplet: LevyTriplet, q: float) -> "SpectrallyNegativeOracle":
        return cls(triplet=triplet, q=q, phi_q=phi_root(triplet, q))


def quadratic_bstar_closed_form(oracle: SpectrallyNegativeOracle, problem: ProblemSpec) -> float:
    """Exact optimal barrier -q C / 2 - 1 / Phi(q) for the quadratic cost."""
    if problem.cost.descriptor[0] != "quadratic":
        raise ValueError("closed form only holds for the quadratic cost")
    if abs(problem.q - oracle.q) > 1e-12:
        raise ValueError("oracle and problem disagree on q")
    return -problem.q * problem.C / 2.0 - 1.0 / oracle.phi_q


def pure_drift_value(problem: ProblemSpec, d: float, b: float, x: float) -> float:
    """v_b(x) = x^2/q + 2xd/q^2 + 2d^2/q^3 for deterministic drift d >= 0, x >= b.

    With nonnegative drift started at or above the barrier the path never
    reflects, so the value is the plain discounted running cost.
    """
    if problem.cost.descriptor[0] != "quadratic":
        raise ValueError("pure-drift value oracle only holds for the quadratic cost")
    if d <= 0:
        raise ValueError("need strictly positive drift (d = 0 is a degenerate model)")
    if x < b:
        raise ValueError("oracle needs x >= b so the path never reflects")
    q = problem.q
    return x**2 / q + 2.0 * x * d / q**2 + 2.0 * d**2 / q**3
