"""Spiked-model closed forms for singular value shrinkage and its limits.

In the spiked model with unit-variance noise, a planted scaled singular
value ``sigma >= 1`` is observed inflated to

    inflated_sv(sigma) = sqrt((sigma + g^-1/2 / sigma) (sigma + g^1/2 / sigma)),

where ``g`` is the row/column aspect ratio; below 1 the spike is lost in
the bulk whose edge sits at ``bulk_edge(g) = g^1/4 + g^-1/4``.  The
closed-form inverse undoes the inflation.  ``shrink_known_sd`` rescales
by the noise level first, so one rule serves both estimators: the
known-variance baseline at its noise sd, and the adaptive pipeline on
the rescaled score matrix X* at the noise sd i_hat^-1/2 implied by the
estimated Fisher information.

The same closed forms give the overlap and error limits, 0 (not NaN)
below their detection threshold, and the minimax constants; their `t`
is the effective noise precision: the Fisher information for the
adaptive pipeline, the reciprocal noise variance for plain PCA.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bulk_edge",
    "inflated_sv",
    "debiased_sv",
    "shrink_known_sd",
    "overlap_limit",
    "error_limit",
    "minimax_limits",
]


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError("aspect ratio must be positive and finite")
    return gamma


def _root_gamma(gamma: float) -> float:
    # gamma and 1/gamma must give bit-identical results, so canonicalize
    # to the representative >= 1 before taking the root.
    return math.sqrt(max(gamma, 1.0 / gamma))


def bulk_edge(gamma: float = 1.0) -> float:
    """Upper edge of the noise bulk in scaled units: g^1/4 + g^-1/4."""
    rg4 = math.sqrt(_root_gamma(_check_gamma(gamma)))
    return rg4 + 1.0 / rg4


def inflated_sv(sigma, gamma: float = 1.0):
    """Observed scaled singular value produced by a planted value `sigma`.

    Constant at the bulk edge for sigma < 1, strictly increasing above.
    Symmetric in gamma <-> 1/gamma.  Accepts scalars or arrays; a
    negative or NaN sigma is a domain error.
    """
    gamma = _check_gamma(gamma)
    sigma = np.asarray(sigma, dtype=np.float64)
    if not np.all(sigma >= 0):      # NaN fails this too
        raise ValueError("sigma must be >= 0")
    rg = _root_gamma(gamma)
    s = np.maximum(sigma, 1.0)
    with np.errstate(over="ignore"):  # s^2 overflows past s ~ 1.3e154,
        above = np.sqrt((s + 1.0 / (rg * s)) * (s + rg / s))
    above = np.where(np.isfinite(above), above, s)  # where the map is s
    out = np.where(sigma >= 1.0, above, bulk_edge(gamma))
    return float(out) if out.ndim == 0 else out


def debiased_sv(y, gamma: float = 1.0):
    """Inverse of :func:`inflated_sv` on [bulk_edge, inf).

    Closed form: with c = g^1/2 + g^-1/2 the inverse is
    sqrt((y^2 - c + sqrt((y^2 - c)^2 - 4)) / 2).  It is evaluated through
    d = y^2 - edge^2 = (y - edge)(y + edge), which keeps full precision
    at the boundary where the textbook radicand cancels to rounding
    noise.  Inputs within 1e-12 below the edge are clamped up; anything
    lower, and NaN, is a domain error.
    """
    gamma = _check_gamma(gamma)
    edge = bulk_edge(gamma)
    y_arr = np.asarray(y, dtype=np.float64)
    if not np.all(y_arr >= edge - 1e-12):      # NaN fails this too
        raise ValueError(f"debiased_sv requires y >= bulk edge {edge:.12g}")
    y_arr = np.maximum(y_arr, edge)
    with np.errstate(over="ignore"):  # y^4 overflows past y ~ 1.16e77,
        d = (y_arr - edge) * (y_arr + edge)  # = y^2 - c - 2, 0 at the edge
        out = np.sqrt(0.5 * (d + 2.0 + np.sqrt(d * (d + 4.0))))
    out = np.where(np.isfinite(out), out, y_arr)  # where the inverse is y
    return float(out) if out.ndim == 0 else out


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
    # through the representative >= 1, as in bulk_edge, so that gamma and
    # 1/gamma give the same bits
    return (math.sqrt(_root_gamma(gamma)) / root, bulk_edge(gamma) / root)


def shrink_threshold(noise_sd: float, delta: float,
                     gamma: float = 1.0) -> float:
    """The threshold of :func:`shrink_known_sd`,
    ``(1 + delta) * bulk_edge(gamma) * noise_sd``: a scaled singular
    value at or above it survives.  `noise_sd` must be positive and
    finite, `delta` finite and non-negative."""
    if not (0 < noise_sd < math.inf):
        raise ValueError("noise_sd must be positive and finite")
    gamma = _check_gamma(gamma)
    if not (0 <= delta < math.inf):
        raise ValueError("delta must be >= 0 and finite")
    return (1.0 + delta) * bulk_edge(gamma) * noise_sd


def shrink_known_sd(sigma0, noise_sd: float, delta: float,
                    gamma: float = 1.0) -> tuple[np.ndarray, int]:
    """Threshold-and-debias rule for a spectrum at noise level `noise_sd`.

    `sigma0` holds descending scaled singular values.  Values below the
    threshold ``(1 + delta) * bulk_edge * noise_sd`` (`shrink_threshold`)
    map to exactly zero; survivors map to
    ``noise_sd * debiased_sv(value / noise_sd)``.  Returns the shrunk
    values (descending, zeros trailing) and the count of survivors.

    This is the one rule for both estimators: the PCA baseline passes
    the spectrum of Y with its known noise sd, the adaptive pipeline the
    spectrum of the rescaled score matrix X* with noise sd
    ``i_hat^-1/2``.  `delta` must be finite and non-negative.
    """
    threshold = shrink_threshold(noise_sd, delta, gamma)
    sigma0 = np.asarray(sigma0, dtype=np.float64)
    if sigma0.ndim != 1:
        raise ValueError("sigma0 must be a 1-D array of singular values")
    if np.any(sigma0 < 0) or np.any(np.diff(sigma0) > 0):
        raise ValueError("sigma0 must be non-negative and descending")
    keep = sigma0 >= threshold
    shrunk = np.zeros_like(sigma0)
    if keep.any():
        shrunk[keep] = noise_sd * debiased_sv(sigma0[keep] / noise_sd, gamma)
    return shrunk, int(keep.sum())
