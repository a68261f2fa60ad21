"""Scalar noise distributions.

Each model exposes the density, its first derivative, i.i.d. matrix
sampling from an explicit seed, and the location-family Fisher
information computed by adaptive quadrature.  The score map
``-p'(x) / (p(x) + eps)`` is the building block of the entrywise
denoiser; with ``eps = 0`` and Gaussian noise it is exactly the
identity.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "NoiseModel",
    "Gaussian",
    "GaussianMixture",
    "adaptive_simpson",
]

def _phi(x, var=1.0):
    return np.exp(-np.square(x) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-9,
                     max_depth: int = 48, initial_panels: int = 16) -> float:
    """Adaptive Simpson quadrature of a scalar function.

    Standard interval halving with the |S2 - S1|/15 error estimate.  The
    range starts pre-split into `initial_panels` equal panels so that an
    integrand vanishing at the endpoints and midpoint (a symmetric bump
    pair, say) cannot fool the first error estimate into stopping early.
    Raises ``RuntimeError`` if the recursion cannot reach the requested
    absolute tolerance.
    """
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        x1 = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + x1)
        xr = 0.5 * (x1 + x2)
        fl = float(f(xl))
        fr = float(f(xr))
        left = simpson(x0, x1, f0, fl, f1)
        right = simpson(x1, x2, f1, fr, f2)
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        if depth >= max_depth:
            raise RuntimeError("adaptive quadrature did not converge "
                               f"(interval [{x0}, {x2}], error {err:.3e})")
        return (recurse(x0, x1, f0, fl, f1, left, tol / 2.0, depth + 1)
                + recurse(x1, x2, f1, fr, f2, right, tol / 2.0, depth + 1))

    a, b = float(a), float(b)
    if not b > a:
        raise ValueError("need b > a")
    edges = [a + (b - a) * i / initial_panels for i in range(initial_panels + 1)]
    total = 0.0
    for x0, x2 in zip(edges, edges[1:]):
        x1 = 0.5 * (x0 + x2)
        f0, f1, f2 = float(f(x0)), float(f(x1)), float(f(x2))
        whole = simpson(x0, x2, f0, f1, f2)
        total += recurse(x0, x2, f0, f1, f2, whole, tol / initial_panels, 0)
    return total


class NoiseModel(ABC):
    """Common interface for scalar noise distributions."""

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
    def integration_window(self) -> tuple[float, float]:
        """Interval outside which density tails are negligible (< 1e-8 mass)."""

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

    def fisher_info(self, tol: float = 1e-6) -> float:
        """Location-family Fisher information ``int (p')^2 / p`` by quadrature."""
        a, b = self.integration_window()

        def integrand(x):
            p = self.density(x)
            pd = self.density_deriv(x)
            if p <= 0.0:
                if pd == 0.0:
                    return 0.0
                raise ValueError("density must be strictly positive on the "
                                 "integration range")
            return pd * pd / p

        return adaptive_simpson(integrand, a, b, tol=tol / 4.0)


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
        rng = np.random.default_rng(seed)
        return self.sd * rng.standard_normal((m, n))

    def variance(self) -> float:
        return self.var

    def integration_window(self):
        return (-12.0 * self.sd, 12.0 * self.sd)


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
        coins = rng.integers(0, 2, size=(m, n))
        z = rng.standard_normal((m, n))
        return z + self.mu * (2.0 * coins - 1.0)

    def variance(self) -> float:
        return 1.0 + self.mu * self.mu

    def integration_window(self):
        return (-(self.mu + 12.0), self.mu + 12.0)
