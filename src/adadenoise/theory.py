"""Closed-form asymptotic predictions for overlays and test oracles.

All limit functions return 0 below their detection threshold (rather
than NaN), which keeps curves plottable and matches the vanishing-
overlap behavior of the sub-threshold regime.

`t` is the effective noise precision: the Fisher information for the
adaptive pipeline, the reciprocal noise variance for plain PCA.
"""

from __future__ import annotations

import math

from .shrinkage import _check_gamma, _root_gamma, bulk_edge

__all__ = [
    "overlap_limit",
    "error_limit",
    "minimax_limits",
]


def overlap_limit(sigma: float, t: float, gamma: float = 1.0) -> float:
    """Limit of the smallest singular value of the left-factor product.

    Zero when sigma^2 * t <= 1 (no recovery); above the threshold

        sqrt((1 - t^-2 sigma^-4) / (1 + min(g^1/2, g^-1/2) t^-1 sigma^-2)),

    increasing to 1 as sigma grows.  Symmetric in gamma <-> 1/gamma.
    """
    if not (sigma > 0 and t > 0):
        raise ValueError("sigma and t must be positive")
    root_gamma = _root_gamma(_check_gamma(gamma))
    snr = sigma * sigma * t
    if snr <= 1.0:
        return 0.0
    num = 1.0 - 1.0 / (snr * snr)
    den = 1.0 + 1.0 / (root_gamma * snr)
    return math.sqrt(num / den)


def error_limit(sigma1: float, t: float) -> float:
    """Scaled operator-norm error limit: min(sigma1, t^-1/2)."""
    if not (sigma1 >= 0 and t > 0):
        raise ValueError("need sigma1 >= 0 and t > 0")
    return min(sigma1, 1.0 / math.sqrt(t))


def minimax_limits(gamma: float, fisher_info: float) -> tuple[float, float]:
    """Scaled minimax error constants (rank-constrained, unconstrained).

    In units of (m n)^{1/4}: max(g^1/4, g^-1/4) / sqrt(I) for the
    rank-constrained class and (g^1/4 + g^-1/4) / sqrt(I) without the
    rank constraint.
    """
    gamma = _check_gamma(gamma)
    if not (fisher_info > 0):
        raise ValueError("fisher_info must be positive")
    root = math.sqrt(fisher_info)
    lo = max(gamma ** 0.25, gamma ** -0.25) / root
    return (lo, bulk_edge(gamma) / root)
