"""Scalar noise distributions.

Each model exposes the density, its first derivative, i.i.d. matrix
sampling from an explicit seed, and its location-family Fisher
information, in closed form or as a Gaussian expectation.  The score
map ``-p'(x) / (p(x) + eps)`` is the building block of the entrywise
denoiser; with ``eps = 0`` and Gaussian noise of variance v it is
x / v, the identity only at unit variance.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "NoiseModel",
    "Gaussian",
    "GaussianMixture",
]

_MEANS_BLOCK = 1 << 15  # entries per block of the mixture's means


def _phi(x, var=1.0):
    return np.exp(-np.square(x) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


class NoiseModel(ABC):
    """Common interface for scalar noise distributions.

    Two models are equal, and hash alike, when they are of one kind with
    equal parameters.
    """

    def __eq__(self, other):
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self):
        return hash((type(self), *vars(self).values()))

    @abstractmethod
    def density(self, x):
        """p(x); accepts scalars or arrays."""

    @abstractmethod
    def density_deriv(self, x):
        """p'(x); accepts scalars or arrays."""

    @abstractmethod
    def sample(self, m: int, n: int, seed: int) -> np.ndarray:
        """m x n matrix of i.i.d. draws, deterministic in `seed`."""

    @abstractmethod
    def variance(self) -> float:
        """Var of a single draw."""

    @abstractmethod
    def fisher_info(self) -> float:
        """Location-family Fisher information ``int (p')^2 / p``."""

    def score(self, x, eps: float = 0.0):
        """Regularized score ``-p'(x) / (p(x) + eps)``.

        With ``eps > 0`` the result is bounded by ``max|p'| / eps``.  With
        ``eps = 0`` the density must be strictly positive where evaluated;
        points where both p and p' underflow to zero return 0.
        """
        if eps < 0:
            raise ValueError("eps must be >= 0")
        x = np.asarray(x, dtype=np.float64)
        p = self.density(x)
        pd = self.density_deriv(x)
        den = p + eps
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(den > 0.0, -pd / np.where(den > 0.0, den, 1.0), 0.0)
        return float(out) if out.ndim == 0 else out


class Gaussian(NoiseModel):
    """Centered normal distribution with the given variance."""

    def __init__(self, variance: float = 1.0):
        if not (0 < variance < math.inf):
            raise ValueError("variance must be positive and finite")
        self.var = float(variance)
        self.sd = math.sqrt(self.var)

    def __repr__(self):
        return f"Gaussian(variance={self.var})"

    def density(self, x):
        return _phi(np.asarray(x, dtype=np.float64), self.var)

    def density_deriv(self, x):
        x = np.asarray(x, dtype=np.float64)
        return -x / self.var * _phi(x, self.var)

    def sample(self, m: int, n: int, seed: int) -> np.ndarray:
        if m < 1 or n < 1:
            raise ValueError("m and n must be >= 1")
        z = np.random.default_rng(seed).standard_normal((m, n))
        z *= self.sd
        return z

    def variance(self) -> float:
        return self.var

    def fisher_info(self) -> float:
        return 1.0 / self.var


class GaussianMixture(NoiseModel):
    """Even two-component mixture of N(-mu, 1) and N(+mu, 1)."""

    def __init__(self, mu: float = 2.0):
        if not (0 <= mu < math.inf):
            raise ValueError("mu must be >= 0 and finite")
        self.mu = float(mu)

    def __repr__(self):
        return f"GaussianMixture(mu={self.mu})"

    def density(self, x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * (_phi(x - self.mu) + _phi(x + self.mu))

    def density_deriv(self, x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * (-(x - self.mu) * _phi(x - self.mu)
                      - (x + self.mu) * _phi(x + self.mu))

    def sample(self, m: int, n: int, seed: int) -> np.ndarray:
        # Consumption order is pinned for reproducibility: one array of
        # fair component coins, then one array of unit normals.
        if m < 1 or n < 1:
            raise ValueError("m and n must be >= 1")
        rng = np.random.default_rng(seed)
        # int32 coins are the int64 draw's values, and leave the generator
        # in the same state
        coins = rng.integers(0, 2, size=(m, n), dtype=np.int32)
        z = rng.standard_normal((m, n))
        # a coin picks -mu or mu, the same bits as mu * (2 coin - 1); added
        # block by block, so no m x n array of means is formed
        table = np.array([-self.mu, self.mu])
        flat, picks = z.reshape(-1), coins.reshape(-1)
        for start in range(0, flat.size, _MEANS_BLOCK):
            block = slice(start, start + _MEANS_BLOCK)
            flat[block] += table[picks[block]]
        return z

    def variance(self) -> float:
        return 1.0 + self.mu * self.mu

    def fisher_info(self) -> float:
        # The score x - mu tanh(mu x) is odd, so I is its second moment under
        # N(mu, 1) alone; z + mu (1 - tanh(.)) keeps z exact at large mu, and
        # the trapezoid rule gets this Gaussian expectation to rounding.
        z = np.linspace(-12.0, 12.0, 1001)
        score = z + self.mu * (1.0 - np.tanh(self.mu * (z + self.mu)))
        return float(np.trapezoid(score * score * _phi(z), z))
