"""Levy process specifications with finite-activity jumps.

A process is described by a drift coefficient, a Gaussian coefficient and a
finite-activity jump part (Poisson arrival rate times a jump-size law).  The
compensation of small jumps is resolved once at construction into an
effective linear drift ``d``, so simulation code composes increments as

    X_{t+dt} - X_t = d*dt + sigma*sqrt(dt)*Z + (jumps landing in the cell).

Supported jump-size families: two-sided exponential mixture (``kou``),
``gaussian``, ``uniform`` on an interval, and a discrete ``atoms`` list.
Infinite-activity measures are rejected by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats

from .errors import InvalidModel

__all__ = [
    "JumpSpec",
    "LevyTriplet",
    "PathClass",
    "characteristic_exponent",
    "classify",
    "exp_moment_check",
    "driftless_compound_poisson",
]

_JUMP_KINDS = ("none", "kou", "gaussian", "uniform", "atoms")


@dataclass(frozen=True)
class JumpSpec:
    """Finite-activity jump component: Poisson rate plus a jump-size law.

    ``rate = 0`` encodes "no jumps"; the remaining fields are per-family
    parameters and stay ``None`` for families that do not use them.  Jump
    sizes are supported on R \\ {0}: samplers redraw the (probability-zero)
    exact zeros, and atom values must be nonzero.
    """

    rate: float
    kind: str = "none"
    p_up: float | None = None       # kou: probability of an upward jump
    eta_up: float | None = None     # kou: rate of the upward exponential
    eta_down: float | None = None   # kou: rate of the downward exponential
    mean: float | None = None       # gaussian
    std: float | None = None        # gaussian
    lo: float | None = None         # uniform
    hi: float | None = None         # uniform
    values: tuple[float, ...] | None = None  # atoms
    probs: tuple[float, ...] | None = None   # atoms

    def __post_init__(self):
        if self.rate < 0 or not math.isfinite(self.rate):
            raise InvalidModel(f"jump rate must be finite and >= 0, got {self.rate}")
        if self.kind not in _JUMP_KINDS:
            raise InvalidModel(f"unknown jump kind {self.kind!r}")
        if self.kind == "none":
            if self.rate != 0:
                raise InvalidModel("rate > 0 requires a jump-size law")
            return
        if self.rate == 0:
            raise InvalidModel("jump-size law given but rate is 0; use kind='none'")
        if self.kind == "kou":
            if None in (self.p_up, self.eta_up, self.eta_down):
                raise InvalidModel("kou needs p_up, eta_up and eta_down")
            if not (0.0 <= self.p_up <= 1.0):
                raise InvalidModel("kou p_up must lie in [0, 1]")
            if self.eta_up <= 0 or self.eta_down <= 0:
                raise InvalidModel("kou exponential rates must be positive")
        elif self.kind == "gaussian":
            if None in (self.mean, self.std) or self.std <= 0:
                raise InvalidModel("gaussian jumps need a mean and a positive std")
        elif self.kind == "uniform":
            if None in (self.lo, self.hi) or not (self.lo < self.hi):
                raise InvalidModel("uniform jump interval must have lo < hi")
        elif self.kind == "atoms":
            if self.values is None or self.probs is None:
                raise InvalidModel("atoms need matching nonempty values/probs")
            v = np.asarray(self.values, dtype=float)
            p = np.asarray(self.probs, dtype=float)
            if v.size == 0 or v.size != p.size:
                raise InvalidModel("atoms need matching nonempty values/probs")
            if np.any(v == 0.0):
                raise InvalidModel("atom values must be nonzero")
            if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
                raise InvalidModel("atom probabilities must be >= 0 and sum to 1")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def none() -> "JumpSpec":
        return JumpSpec(rate=0.0, kind="none")

    @staticmethod
    def kou_mixture(rate, p_up, eta_up, eta_down) -> "JumpSpec":
        return JumpSpec(rate=rate, kind="kou", p_up=p_up, eta_up=eta_up, eta_down=eta_down)

    @staticmethod
    def gaussian_sizes(rate, mean, std) -> "JumpSpec":
        return JumpSpec(rate=rate, kind="gaussian", mean=mean, std=std)

    @staticmethod
    def uniform_sizes(rate, lo, hi) -> "JumpSpec":
        return JumpSpec(rate=rate, kind="uniform", lo=lo, hi=hi)

    @staticmethod
    def atom_sizes(rate, values, probs) -> "JumpSpec":
        return JumpSpec(rate=rate, kind="atoms", values=tuple(values), probs=tuple(probs))

    # -- law summaries -----------------------------------------------------

    def char_fn(self, lam: float) -> complex:
        """E[exp(i*lam*J)] of the jump-size law (1.0 when rate == 0)."""
        if self.kind == "none":
            return 1.0 + 0.0j
        if self.kind == "kou":
            up = self.p_up * self.eta_up / (self.eta_up - 1j * lam)
            dn = (1.0 - self.p_up) * self.eta_down / (self.eta_down + 1j * lam)
            return up + dn
        if self.kind == "gaussian":
            return np.exp(1j * lam * self.mean - 0.5 * self.std**2 * lam**2)
        if self.kind == "uniform":
            if lam == 0:
                return 1.0 + 0.0j
            return (np.exp(1j * lam * self.hi) - np.exp(1j * lam * self.lo)) / (
                1j * lam * (self.hi - self.lo)
            )
        v = np.asarray(self.values)
        p = np.asarray(self.probs)
        return complex(np.sum(p * np.exp(1j * lam * v)))

    def truncated_mean(self) -> float:
        """E[J * 1_{|J| < 1}], used to resolve the compensation into drift."""
        if self.kind == "none":
            return 0.0
        if self.kind == "kou":
            # int_0^1 z*eta*exp(-eta z) dz = (1 - exp(-eta))/eta - exp(-eta)
            def part(eta):
                return (1.0 - math.exp(-eta)) / eta - math.exp(-eta)

            return self.p_up * part(self.eta_up) - (1.0 - self.p_up) * part(self.eta_down)
        if self.kind == "gaussian":
            m, s = self.mean, self.std
            a, b = (-1.0 - m) / s, (1.0 - m) / s
            return m * (stats.norm.cdf(b) - stats.norm.cdf(a)) + s * (
                stats.norm.pdf(a) - stats.norm.pdf(b)
            )
        if self.kind == "uniform":
            left = max(self.lo, -1.0)
            right = min(self.hi, 1.0)
            if left >= right:
                return 0.0
            return (right**2 - left**2) / (2.0 * (self.hi - self.lo))
        v = np.asarray(self.values)
        p = np.asarray(self.probs)
        return float(np.sum(p * v * (np.abs(v) < 1.0)))

    def mean_abs_size(self) -> float:
        if self.kind == "none":
            return 0.0
        if self.kind == "kou":
            return self.p_up / self.eta_up + (1.0 - self.p_up) / self.eta_down
        if self.kind == "gaussian":
            m, s = self.mean, self.std
            return s * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * (m / s) ** 2) + m * (
                1.0 - 2.0 * stats.norm.cdf(-m / s)
            )
        if self.kind == "uniform":
            lo, hi = self.lo, self.hi
            if lo >= 0:
                return 0.5 * (lo + hi)
            if hi <= 0:
                return -0.5 * (lo + hi)
            return (hi**2 + lo**2) / (2.0 * (hi - lo))
        return float(np.sum(np.asarray(self.probs) * np.abs(self.values)))

    def mgf(self, lam: float) -> float:
        """E[exp(lam*J)]; +inf where the exponential moment diverges."""
        if self.kind == "none":
            return 1.0
        if self.kind == "kou":
            if (self.p_up > 0 and lam >= self.eta_up) or (
                self.p_up < 1 and lam <= -self.eta_down
            ):
                return math.inf
            up = self.p_up * self.eta_up / (self.eta_up - lam) if self.p_up > 0 else 0.0
            dn = (
                (1.0 - self.p_up) * self.eta_down / (self.eta_down + lam)
                if self.p_up < 1
                else 0.0
            )
            return up + dn
        if self.kind == "gaussian":
            return math.exp(lam * self.mean + 0.5 * (lam * self.std) ** 2)
        if self.kind == "uniform":
            if lam == 0:
                return 1.0
            return (math.exp(lam * self.hi) - math.exp(lam * self.lo)) / (
                lam * (self.hi - self.lo)
            )
        return float(np.sum(np.asarray(self.probs) * np.exp(lam * np.asarray(self.values))))

    def exp_tail_rate(self) -> float:
        """Supremum of the theta > 0 with E[exp(theta*|J|)] finite (inf for light tails)."""
        if self.kind in ("none", "gaussian", "uniform", "atoms"):
            return math.inf
        bounds = []
        if self.p_up > 0:
            bounds.append(self.eta_up)
        if self.p_up < 1:
            bounds.append(self.eta_down)
        return min(bounds)

    def pdf(self, z):
        """Jump-size density (None for atoms)."""
        z = np.asarray(z, dtype=float)
        if self.kind == "kou":
            up = np.where(z > 0, self.p_up * self.eta_up * np.exp(-self.eta_up * np.maximum(z, 0)), 0.0)
            dn = np.where(z < 0, (1 - self.p_up) * self.eta_down * np.exp(self.eta_down * np.minimum(z, 0)), 0.0)
            return up + dn
        if self.kind == "gaussian":
            return stats.norm.pdf(z, loc=self.mean, scale=self.std)
        if self.kind == "uniform":
            return np.where((z >= self.lo) & (z <= self.hi), 1.0 / (self.hi - self.lo), 0.0)
        return None

    def displacement_quantiles(self, tail_prob: float) -> tuple[float, float]:
        """(low, high) jump displacements covering all but tail_prob per side."""
        if self.kind == "none":
            return 0.0, 0.0
        if self.kind == "kou":
            hi = (
                math.log(self.p_up / tail_prob) / self.eta_up
                if self.p_up > tail_prob
                else 0.0
            )
            p_dn = 1.0 - self.p_up
            lo = (
                -math.log(p_dn / tail_prob) / self.eta_down if p_dn > tail_prob else 0.0
            )
            return lo, hi
        if self.kind == "gaussian":
            z = stats.norm.ppf(1.0 - tail_prob)
            return min(0.0, self.mean - z * self.std), max(0.0, self.mean + z * self.std)
        if self.kind == "uniform":
            return min(0.0, self.lo), max(0.0, self.hi)
        return min(0.0, min(self.values)), max(0.0, max(self.values))

    @property
    def support_negative(self) -> bool:
        """True when every jump is <= 0 (vacuously true without jumps)."""
        if self.kind == "none":
            return True
        if self.kind == "kou":
            return self.p_up == 0.0
        if self.kind == "gaussian":
            return False
        if self.kind == "uniform":
            return self.hi <= 0.0
        return max(self.values) < 0.0

    @property
    def support_positive(self) -> bool:
        if self.kind == "none":
            return True
        if self.kind == "kou":
            return self.p_up == 1.0
        if self.kind == "gaussian":
            return False
        if self.kind == "uniform":
            return self.lo >= 0.0
        return min(self.values) > 0.0

    @property
    def is_symmetric(self) -> bool:
        if self.kind == "none":
            return True
        if self.kind == "kou":
            return self.p_up == 0.5 and self.eta_up == self.eta_down
        if self.kind == "gaussian":
            return self.mean == 0.0
        if self.kind == "uniform":
            return self.lo == -self.hi
        vals = sorted(zip(self.values, self.probs))
        mirrored = sorted((-v, p) for v, p in zip(self.values, self.probs))
        return vals == mirrored

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw jump sizes; exact zeros are redrawn so the law lives off 0."""
        if size == 0:
            return np.empty(0)
        if self.kind == "kou":
            up = rng.random(size) < self.p_up
            mags = np.where(
                up,
                rng.exponential(1.0 / self.eta_up, size),
                rng.exponential(1.0 / self.eta_down, size),
            )
            out = np.where(up, mags, -mags)
        elif self.kind == "gaussian":
            out = rng.normal(self.mean, self.std, size)
        elif self.kind == "uniform":
            out = rng.uniform(self.lo, self.hi, size)
        else:
            out = rng.choice(np.asarray(self.values), size=size, p=np.asarray(self.probs))
        while np.any(out == 0.0):
            idx = np.flatnonzero(out == 0.0)
            out[idx] = self.sample(rng, idx.size)
        return out

    def describe(self) -> dict:
        d = {"rate": self.rate, "kind": self.kind}
        for name in ("p_up", "eta_up", "eta_down", "mean", "std", "lo", "hi", "values", "probs"):
            v = getattr(self, name)
            if v is not None:
                d[name] = list(v) if isinstance(v, tuple) else v
        return d


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
        """Driftless compound Poisson: classified, not forbidden."""
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


@dataclass(frozen=True)
class PathClass:
    """Pure, deterministic path-regularity flags for a model."""

    bounded_variation: bool
    spectrally_negative: bool
    spectrally_positive: bool
    driftless_compound_poisson: bool
    negative_of_subordinator: bool


def characteristic_exponent(triplet: LevyTriplet, lam: float) -> complex:
    """Exponent Psi with E[exp(i*lam*X_t)] = exp(-t*Psi(lam)).

    Psi(lam) = -i*gamma*lam + sigma^2 lam^2 / 2
               + rate * E[1 - exp(i*lam*J) + i*lam*J*1_{|J|<1}],
    with the jump expectation in closed form per family.
    """
    jumps = triplet.jumps
    val = -1j * triplet.gamma * lam + 0.5 * triplet.sigma**2 * lam**2
    if jumps.rate > 0:
        val += jumps.rate * (1.0 - jumps.char_fn(lam) + 1j * lam * jumps.truncated_mean())
    return complex(val)


def classify(triplet: LevyTriplet) -> PathClass:
    """Path-regularity flags; finite activity makes BV equivalent to sigma=0."""
    bv = triplet.sigma == 0.0
    neg_support = triplet.jumps.support_negative
    return PathClass(
        bounded_variation=bv,
        spectrally_negative=neg_support,
        spectrally_positive=triplet.jumps.support_positive,
        driftless_compound_poisson=triplet.is_driftless_cp(),
        negative_of_subordinator=bv and triplet.effective_drift <= 0.0 and neg_support,
    )


def exp_moment_check(triplet: LevyTriplet) -> bool:
    """True iff E[exp(theta_bar * |J|)] is finite for the declared theta_bar."""
    return triplet.exp_moment_theta < triplet.jumps.exp_tail_rate()
