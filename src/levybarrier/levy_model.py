"""Levy process specifications with finite-activity jumps.

A process is described by a drift coefficient, a Gaussian coefficient and a
finite-activity jump part (Poisson arrival rate times a jump-size law).  The
compensation of small jumps is resolved once at construction into an
effective linear drift ``d``, so simulation code composes increments as

    X_{t+dt} - X_t = d*dt + sigma*sqrt(dt)*Z + (jumps landing in the cell).

Supported jump-size families, one ``JumpSpec`` subclass each (``JUMP_FAMILIES``
maps a kind to its class): two-sided exponential mixture (``kou``),
``gaussian``, ``uniform`` on an interval, and a discrete ``atoms`` list.
Infinite-activity measures are rejected by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from statistics import NormalDist
from typing import ClassVar

import numpy as np

from .errors import InvalidModel

__all__ = [
    "JUMP_FAMILIES",
    "JumpSpec",
    "LevyTriplet",
    "exp_moment_check",
    "driftless_compound_poisson",
]


@dataclass(frozen=True)
class JumpSpec:
    """Finite-activity jump component: Poisson rate plus a jump-size law.

    This class is the law of "no jumps" (``rate = 0``); each jump-size family
    is a subclass that holds only its own parameters, checks and formulas and
    its one sampler: the transform of ``uniforms_per_size`` arrays of uniforms
    in (0, 1] to as many sizes (``from_uniforms``), which the grid (through
    ``sample``) and the clock skeleton both use.  Jump sizes are supported on
    R \\ {0}: a size of exactly 0 has probability 2**-53 and is kept, as it
    leaves the law as it is, and atom values must be nonzero.
    """

    rate: float
    kind: ClassVar[str] = "none"
    uniforms_per_size: ClassVar[int] = 0
    support_negative: ClassVar[bool] = True  # every jump is <= 0 (vacuously true without jumps)
    is_symmetric: ClassVar[bool] = True

    def __post_init__(self):
        if self.rate < 0 or not math.isfinite(self.rate):
            raise InvalidModel(f"jump rate must be finite and >= 0, got {self.rate}")
        if type(self) is JumpSpec and self.rate != 0:
            raise InvalidModel("rate > 0 requires a jump-size law")
        if type(self) is not JumpSpec and self.rate == 0:
            raise InvalidModel("jump-size law given but rate is 0; use JumpSpec.none()")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def none() -> "JumpSpec":
        return JumpSpec(rate=0.0)

    @staticmethod
    def kou_mixture(rate, p_up, eta_up, eta_down) -> "JumpSpec":
        return _Kou(rate, p_up, eta_up, eta_down)

    @staticmethod
    def gaussian_sizes(rate, mean, std) -> "JumpSpec":
        return _Gaussian(rate, mean, std)

    @staticmethod
    def uniform_sizes(rate, lo, hi) -> "JumpSpec":
        return _Uniform(rate, lo, hi)

    @staticmethod
    def atom_sizes(rate, values, probs) -> "JumpSpec":
        return _Atoms(rate, values, probs)

    @classmethod
    def param_kinds(cls) -> dict:
        """The family's parameters, in constructor order after ``rate``, each with the kind of
        its field: ``float``, or ``list`` for a ``tuple[float, ...]`` of atoms."""
        return {f.name: {"float": float, "tuple[float, ...]": list}[f.type] for f in fields(cls)[1:]}

    # -- law summaries (the no-jump law; families override) -----------------

    def mgf(self, lam):
        """E[exp(lam*J)] at a real or complex lam (at i*lam: the characteristic function);
        +inf where the exponential moment diverges."""
        return 1.0

    def truncated_mean(self) -> float:
        """E[J * 1_{|J| < 1}], used to resolve the compensation into drift."""
        return 0.0

    def mean_abs_size(self) -> float:
        return 0.0

    def exp_tail_rate(self) -> float:
        """Supremum of the theta > 0 with E[exp(theta*|J|)] finite (inf for light tails)."""
        return math.inf

    def quadrature(self, tail_prob=1e-3, points_per_side=2000):
        """(z, mass, tail_mass) integrating the jump-size law: the trapezoid rule on its
        density (``pdf``) over each side of 0 up to ``displacement_quantiles(tail_prob)``."""
        lo, hi = self.displacement_quantiles(tail_prob)
        zs, masses = [], []
        for a, b in ((lo, 0.0), (0.0, hi)):
            if b - a <= 0:
                continue
            z = np.linspace(a, b, points_per_side + 1)
            pdf = self.pdf(z)
            w = np.full(z.shape, (b - a) / points_per_side)
            w[0] *= 0.5
            w[-1] *= 0.5
            zs.append(z)
            masses.append(pdf * w)
        z = np.concatenate(zs)
        mass = np.concatenate(masses)
        return z, mass, max(0.0, 1.0 - float(mass.sum()))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` jump sizes: ``from_uniforms`` of ``uniforms_per_size`` consecutive blocks of
        ``size`` uniforms u = 1 - U from ``rng``."""
        m = self.uniforms_per_size
        return self.from_uniforms((1.0 - rng.random(m * size)).reshape(m, size))

    def describe(self) -> dict:
        d = {"rate": self.rate, "kind": self.kind}
        for name, kind in self.param_kinds().items():
            v = getattr(self, name)
            d[name] = list(v) if kind is list else v
        return d


@dataclass(frozen=True)
class _Kou(JumpSpec):
    """Two-sided exponential mixture: up with probability p_up, sizes Exp(eta_up) / -Exp(eta_down)."""

    p_up: float
    eta_up: float
    eta_down: float
    kind = "kou"

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.p_up <= 1.0):
            raise InvalidModel("kou p_up must lie in [0, 1]")
        if self.eta_up <= 0 or self.eta_down <= 0:
            raise InvalidModel("kou exponential rates must be positive")

    def mgf(self, lam):
        if (self.p_up > 0 and lam.real >= self.eta_up) or (
            self.p_up < 1 and lam.real <= -self.eta_down
        ):
            return math.inf
        up = self.p_up * self.eta_up / (self.eta_up - lam) if self.p_up > 0 else 0.0
        dn = (1.0 - self.p_up) * self.eta_down / (self.eta_down + lam) if self.p_up < 1 else 0.0
        return up + dn

    def truncated_mean(self) -> float:
        # int_0^1 z*eta*exp(-eta z) dz = (1 - exp(-eta))/eta - exp(-eta)
        def part(eta):
            return (1.0 - math.exp(-eta)) / eta - math.exp(-eta)

        return self.p_up * part(self.eta_up) - (1.0 - self.p_up) * part(self.eta_down)

    def mean_abs_size(self) -> float:
        return self.p_up / self.eta_up + (1.0 - self.p_up) / self.eta_down

    def exp_tail_rate(self) -> float:
        return min(self.eta_up if self.p_up > 0 else math.inf, self.eta_down if self.p_up < 1 else math.inf)

    def pdf(self, z):
        z = np.asarray(z, dtype=float)
        up = np.where(z > 0, self.p_up * self.eta_up * np.exp(-self.eta_up * np.maximum(z, 0)), 0.0)
        dn = np.where(z < 0, (1 - self.p_up) * self.eta_down * np.exp(self.eta_down * np.minimum(z, 0)), 0.0)
        return up + dn

    def displacement_quantiles(self, tail_prob: float) -> tuple[float, float]:
        """(low, high) jump displacements covering all but tail_prob per side."""
        hi = math.log(self.p_up / tail_prob) / self.eta_up if self.p_up > tail_prob else 0.0
        p_dn = 1.0 - self.p_up
        lo = -math.log(p_dn / tail_prob) / self.eta_down if p_dn > tail_prob else 0.0
        return lo, hi

    @property
    def support_negative(self) -> bool:
        return self.p_up == 0.0

    @property
    def is_symmetric(self) -> bool:
        return self.p_up == 0.5 and self.eta_up == self.eta_down

    uniforms_per_size = 2

    def from_uniforms(self, u):
        """Up where the first uniform is <= p_up; the magnitude -log(u) / eta of the second."""
        side, mag = u
        return np.log(mag) / np.where(side <= self.p_up, -self.eta_up, self.eta_down)


@dataclass(frozen=True)
class _Gaussian(JumpSpec):
    mean: float
    std: float
    kind = "gaussian"
    support_negative = False

    def __post_init__(self):
        super().__post_init__()
        if not self.std > 0:
            raise InvalidModel("gaussian jumps need a mean and a positive std")

    def mgf(self, lam):
        return np.exp(lam * self.mean + 0.5 * (lam * self.std) ** 2)

    def truncated_mean(self) -> float:
        m, s = self.mean, self.std
        a, b = (-1.0 - m) / s, (1.0 - m) / s
        cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))  # full relative precision in the left tail
        return m * (cdf(b) - cdf(a)) + s * s * (self.pdf(-1.0) - self.pdf(1.0))

    def mean_abs_size(self) -> float:
        # E|J| = 2 s^2 pdf(0) + m (1 - 2 cdf(-m / s)), and 1 - 2 cdf(-x) = erf(x / sqrt 2)
        return 2.0 * self.std**2 * self.pdf(0.0) + self.mean * math.erf(self.mean / self.std / math.sqrt(2.0))

    def pdf(self, z):
        x = (np.asarray(z, dtype=float) - self.mean) / self.std
        return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi) / self.std

    def displacement_quantiles(self, tail_prob: float) -> tuple[float, float]:
        z = NormalDist().inv_cdf(1.0 - tail_prob)
        return min(0.0, self.mean - z * self.std), max(0.0, self.mean + z * self.std)

    @property
    def is_symmetric(self) -> bool:
        return self.mean == 0.0

    uniforms_per_size = 2

    def from_uniforms(self, u):
        """Box-Muller: a radius sqrt(-2 log u) from the first uniform, an angle 2 pi u from the second."""
        radius, angle = u
        return self.mean + self.std * (np.sqrt(-2.0 * np.log(radius)) * np.cos(2.0 * np.pi * angle))


@dataclass(frozen=True)
class _Uniform(JumpSpec):
    lo: float
    hi: float
    kind = "uniform"

    def __post_init__(self):
        super().__post_init__()
        if not (self.lo < self.hi):
            raise InvalidModel("uniform jump interval must have lo < hi")

    def mgf(self, lam):
        if lam == 0:
            return 1.0
        # factored at the end with the larger exponent: no cancellation near lam = 0, no 0 * inf far out
        end, other = (self.hi, self.lo) if lam.real > 0 else (self.lo, self.hi)
        w = lam * (other - end)
        return np.exp(lam * end) * np.expm1(w) / w

    def truncated_mean(self) -> float:
        left, right = (min(max(v, -1.0), 1.0) for v in (self.lo, self.hi))  # [lo, hi] within [-1, 1]
        return (right**2 - left**2) / (2.0 * (self.hi - self.lo))

    def mean_abs_size(self) -> float:
        # int_lo^hi |z| dz = [z |z| / 2]_lo^hi
        return (self.hi * abs(self.hi) - self.lo * abs(self.lo)) / (2.0 * (self.hi - self.lo))

    def pdf(self, z):
        z = np.asarray(z, dtype=float)
        return np.where((z >= self.lo) & (z <= self.hi), 1.0 / (self.hi - self.lo), 0.0)

    def displacement_quantiles(self, tail_prob: float) -> tuple[float, float]:
        return min(0.0, self.lo), max(0.0, self.hi)

    @property
    def support_negative(self) -> bool:
        return self.hi <= 0.0

    @property
    def is_symmetric(self) -> bool:
        return self.lo == -self.hi

    uniforms_per_size = 1

    def from_uniforms(self, u):
        """lo + (hi - lo) u, held to hi where it rounds above it (at u = 1)."""
        return np.minimum(self.lo + (self.hi - self.lo) * u[0], self.hi)


@dataclass(frozen=True)
class _Atoms(JumpSpec):
    """Discrete law: size values[k] with probability probs[k]."""

    values: tuple[float, ...]
    probs: tuple[float, ...]
    kind = "atoms"

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "probs", tuple(self.probs))
        super().__post_init__()
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.size == 0 or v.size != p.size:
            raise InvalidModel("atoms need matching nonempty values/probs")
        if np.any(v == 0.0):
            raise InvalidModel("atom values must be nonzero")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise InvalidModel("atom probabilities must be >= 0 and sum to 1")

    def mgf(self, lam):
        return np.sum(np.asarray(self.probs) * np.exp(lam * np.asarray(self.values)))

    def truncated_mean(self) -> float:
        v = np.asarray(self.values)
        return float(np.sum(np.asarray(self.probs) * v * (np.abs(v) < 1.0)))

    def mean_abs_size(self) -> float:
        return float(np.sum(np.asarray(self.probs) * np.abs(self.values)))

    def quadrature(self, tail_prob=1e-3, points_per_side=2000):
        """The atoms themselves: exact."""
        return np.asarray(self.values, dtype=float), np.asarray(self.probs, dtype=float), 0.0

    @property
    def support_negative(self) -> bool:
        return max(self.values) < 0.0

    @property
    def is_symmetric(self) -> bool:
        vals = sorted(zip(self.values, self.probs))
        mirrored = sorted((-v, p) for v, p in zip(self.values, self.probs))
        return vals == mirrored

    uniforms_per_size = 1

    def from_uniforms(self, u):
        """values[i] for u in (cdf[i-1], cdf[i]]: u = 1 is the last atom of positive mass."""
        cdf = np.cumsum(self.probs)
        return np.asarray(self.values, dtype=float)[(cdf / cdf[-1]).searchsorted(u[0], side="left")]


JUMP_FAMILIES = {family.kind: family for family in (_Kou, _Gaussian, _Uniform, _Atoms)}


@dataclass(frozen=True)
class LevyTriplet:
    """Drift, Gaussian coefficient and jump part of the driving process.

    ``gamma`` is the drift of the characteristic exponent under the
    truncation convention 1_{|z|<1}; the effective linear drift actually
    simulated is ``d = gamma - rate * E[J 1_{|J|<1}]``.  ``exp_moment_theta``
    is the theta declared by the model builder for the exponential-moment
    condition on the jump law; ``solve_barrier`` enforces it
    (``exp_moment_check``), it is never inferred.
    """

    gamma: float
    sigma: float
    jumps: JumpSpec = field(default_factory=JumpSpec.none)
    exp_moment_theta: float = 1.0

    def __post_init__(self):
        if self.sigma < 0 or not math.isfinite(self.sigma):
            raise InvalidModel(f"sigma must be finite and >= 0, got {self.sigma}")
        if not math.isfinite(self.gamma):
            raise InvalidModel("gamma must be finite")
        if self.exp_moment_theta <= 0:
            raise InvalidModel("exp_moment_theta must be positive")
        if self.sigma == 0.0 and self.jumps.rate == 0.0 and self.effective_drift == 0.0:
            raise InvalidModel("degenerate model: no diffusion, no jumps, no drift")

    @property
    def effective_drift(self) -> float:
        return self.gamma - self.jumps.rate * self.jumps.truncated_mean()

    def is_driftless_cp(self) -> bool:
        """Driftless compound Poisson: sigma = 0 and zero effective drift up to rounding."""
        scale = 1.0 + abs(self.gamma) + self.jumps.rate * (1.0 + self.jumps.mean_abs_size())
        return (
            self.sigma == 0.0
            and self.jumps.rate > 0.0
            and abs(self.effective_drift) <= 1e-14 * scale
        )

    @property
    def is_deterministic(self) -> bool:
        """Pure linear drift: every path coincides with d*t."""
        return self.sigma == 0.0 and self.jumps.rate == 0.0

    def with_drift_added(self, delta: float) -> "LevyTriplet":
        """The process X_t + delta*t (same Gaussian and jump parts)."""
        return replace(self, gamma=self.gamma + delta)

    def describe(self) -> dict:
        return {
            "gamma": self.gamma,
            "sigma": self.sigma,
            "theta_bar": self.exp_moment_theta,
            "jumps": self.jumps.describe(),
        }


def driftless_compound_poisson(jumps: JumpSpec, exp_moment_theta: float = 1.0) -> LevyTriplet:
    """Compound Poisson model with effective drift exactly zero."""
    if jumps.rate <= 0:
        raise InvalidModel("driftless compound Poisson needs a positive jump rate")
    gamma = jumps.rate * jumps.truncated_mean()
    return LevyTriplet(gamma=gamma, sigma=0.0, jumps=jumps, exp_moment_theta=exp_moment_theta)


def exp_moment_check(triplet: LevyTriplet) -> bool:
    """True iff E[exp(theta_bar * |J|)] is finite for the declared theta_bar."""
    return triplet.exp_moment_theta < triplet.jumps.exp_tail_rate()
