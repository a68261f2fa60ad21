"""The full denoising pipeline.

Given a single noisy matrix Y the pipeline

1. centers the entries by the grand mean, c = Y - mean(Y), and uses them
   as surrogate noise samples,
2. builds kernel estimates of the noise density and its derivative (two
   independent bandwidths, h = 1.2 (mn)^{-1/5} and h' = (mn)^{-1/7},
   fixed by the shape: `bandwidths`) on one grid, from one binning
   pass, and tabulates the regularized score map psi = -p'/(p + EPS) on
   that grid,
3. looks psi up at the centered entries and measures two moments of it
   on the grid, in O(GRID_NODES) each, from the binning of step 2:
   the signal gain a = mean psi'(c), less the slope each entry's own
   kernel adds, and the noise variance b = mean psi(c)^2 + EPS.
   The Fisher-information estimate is i_hat = a^2/b (floored at EPS),
   and the looked-up array is scaled in place to the rescaled score
   matrix X* = (a/b) psi(c) / i_hat, which is psi(c) / a unless the
   floor binds; X* is a spiked matrix with noise level i_hat^{-1/2},
4. decomposes X* in (m n)^{1/4}-scaled units through the eigenvalues of
   its Gram matrix on the short side, and threshold-shrinks that
   spectrum at noise level i_hat^{-1/2} with the same rule the PCA
   baseline applies to Y at its known noise level, to produce the final
   low-rank estimate.  One call (`linalg.gram_svd`) computes only what
   the rule reads: k_hat is a Sturm count of the values at or above the
   threshold, and values and vectors are formed only for the factors
   anything reads: the k_hat kept ones, and at least `factors` leading
   ones (`DenoiseResult`).  The full spectrum `sigma0` and the m x n
   estimate `x_hat` are each formed on their first read.

The score map is looked up once, at one point set (the centered
entries), with an O(1) uniform-grid index, into the centered copy of Y
itself; the gain and the variance come from the map tabulated on the
grid (O(GRID_NODES)), so the whole thing stays O(m n), with one sort of
the m n entries (Y's) and one m x n scored array, plus one
min(m, n)-sized Gram decomposition (`linalg.gram_svd`: one tridiagonal
reduction, a count, the top few values and vectors; its docstring gives
the accuracy of the squared spectrum).  Besides its input, a call holds
at most two m x n arrays at a time: the sorted entries, which become X*
in place, with one block of binning fractions or lookups, then X* and
the copy `gram_svd` scales.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kde import DensityEstimate, gaussian_kernel, kde_binned, mean_entry
from .linalg import as_matrix, gram_svd
from .shrinkage import shrink_known_sd, shrink_threshold

__all__ = [
    "EPS",
    "DELTA",
    "DenoiseResult",
    "bandwidths",
    "denoise_entrywise",
    "denoise",
    "baseline_estimate",
]

# Constants of the method, not settings: EPS is the score regularizer
# (also a floor for the estimated Fisher information) and DELTA the
# relative threshold margin of the shrink step.
EPS = 1e-3
DELTA = 0.01


def bandwidths(m: int, n: int) -> tuple[float, float]:
    """(h, h_prime) for an m x n input: the rule of thumb
    h = 1.2 (mn)^{-1/5}, h' = (mn)^{-1/7}."""
    mn = m * n
    return 1.2 * mn ** -0.2, mn ** (-1.0 / 7.0)


@dataclass(frozen=True)
class DenoiseResult:
    """Everything the pipeline produces.

    `x_star` is the rescaled score matrix (a/b) psi(Y - y_bar) / i_hat,
    the rank-free estimate (see the module docstring), `x_hat` the
    rank-`k_hat` shrunk estimate, formed from the factors and
    `sigma_shrunk` on its first read (a Monte-Carlo trial never reads
    it, and so never forms it).  `sigma0` holds the min(m, n) singular
    values of the matrix that was decomposed, divided by (m n)^{1/4},
    descending: the spectrum the shrink rule thresholds, x_star's for
    the adaptive pipeline and the input's for the PCA baseline.  It is
    formed on its first read, from the diagonal and off-diagonal the
    result keeps of the decomposition, with the same values as if
    formed at once; in the package only the CLI and pickling read it.
    It agrees with the SVD's values to about eps * s_1^2 / s_j absolute
    (`linalg.gram_svd`); values past the numerical rank rho read 0.
    `sigma_shrunk` holds the thresholded-and-debiased singular values of
    x_hat on the same scale, min(m, n) of them, zero past k_hat.
    `u_hat` (m x k) and `v_hat` (n x k) hold the leading
    k = min(rho, max(k_hat, factors)) singular vectors, where rho is the
    numerical rank (min(m, n) on noisy input, 0 on an all-zero one) and
    `factors` the keyword of `denoise` and `baseline_estimate` (default
    3): the kept factors, and at least `factors` leading ones even when
    fewer values survive.  The short-side factor is orthonormal to
    rounding; the long-side one to about eps * (s_1 / s_j)^2 in column
    j.  The baseline never scores
    the entries, so its `x_star`, `i_hat` and `y_bar` are None.
    """

    u_hat: np.ndarray
    v_hat: np.ndarray
    _spectrum: Callable[[], np.ndarray] = field(repr=False, compare=False)
    _scale: float = field(repr=False, compare=False)
    sigma_shrunk: np.ndarray
    k_hat: int
    x_star: np.ndarray | None = None
    i_hat: float | None = None
    y_bar: float | None = None

    @cached_property
    def x_hat(self) -> np.ndarray:
        """The m x n rank-k_hat estimate, formed on first read."""
        k = self.k_hat
        return (self._scale * (self.u_hat[:, :k] * self.sigma_shrunk[:k])
                @ self.v_hat[:, :k].T)

    @cached_property
    def sigma0(self) -> np.ndarray:
        """All min(m, n) scaled singular values, taken on first read."""
        return self._spectrum() / self._scale

    def __getstate__(self):
        """Pickled with `sigma0`'s values in place of the function that
        takes them, which cannot be pickled."""
        return {**vars(self), "sigma0": self.sigma0, "_spectrum": None}


def _score_gain(est: DensityEstimate, psi: np.ndarray, n: int) -> float:
    """Signal gain of the score map: its mean slope over the `n` binned
    samples, less each sample's self-influence.

    Each entry's own kernel in the derivative estimate moves with the
    entry, so it adds slope K(0) / (N h'^3 (p + EPS)) to psi at that
    entry but no gain on the signal; that share is taken out.  The slope
    is tabulated on the grid and weighted by the linear-binning counts,
    which equals the mean of the interpolated slope at the samples at
    O(GRID_NODES) cost.
    """
    self_slope = float(gaussian_kernel(0.0)) / (n * est.h_prime ** 3)
    slope = (np.gradient(psi, est.spacing)
             - self_slope / (est.density + EPS))
    return float(est.counts @ slope) / n


def denoise_entrywise(y):
    """Score the entries of Y and estimate the noise Fisher information.

    Returns ``(x_star, i_hat, y_bar)``: the rescaled score matrix
    (a/b) psi(Y - y_bar) / i_hat, the estimated Fisher information
    i_hat = a^2/b floored at EPS, and the grand mean used to center the
    surrogate noise samples.  Here a is the mean slope (less each
    entry's self-influence) and b the mean square (plus EPS) of the
    score map psi over the centered entries, both taken on the KDE grid,
    so x_star = psi(c) / a unless the floor binds.  Raises ValueError
    when a is not positive and finite, rather than flip or zero the
    scored matrix.
    """
    y = as_matrix(y, "y")
    if min(y.shape) < 2:
        raise ValueError("denoising needs min(m, n) >= 2")
    # one sort serves the mean, the KDE and both moments of the score map:
    # centering keeps the order, so sort(Y) - y_bar is sort(Y - y_bar) bit
    # for bit.  `mean_entry` sums a vector as given and `kde_binned` checks
    # the order, once
    samples = np.sort(y, axis=None)
    y_bar = mean_entry(samples)
    samples -= y_bar
    est = kde_binned(samples, *bandwidths(*y.shape))

    psi = -est.deriv / (est.density + EPS)
    # psi is looked up into the centered entries themselves, formed in the
    # sorted copy's place; C order keeps the flat view `evaluate` writes
    # through, and X*'s layout, whatever Y's is
    scored = np.subtract(y, y_bar, out=samples.reshape(y.shape))
    del samples
    est.evaluate(scored, psi, out=scored)
    # both moments come from the grid, where the entries were binned in
    # sorted order: they depend only on the multiset of entries, never on
    # their layout
    variance = est.square_sum(psi) / scored.size + EPS
    gain = _score_gain(est, psi, scored.size)
    if not (math.isfinite(gain) and gain > 0):
        raise ValueError(f"score map gain {gain!r} is not positive and "
                         f"finite; the noise density estimate is unusable")
    # rescaled by a/b, the map's gain equals its variance, as the true
    # score's does, and both equal a^2/b; dividing by i_hat then makes the
    # scored array X* in place, so no second m x n matrix is formed
    i_hat = max(gain * gain / variance, EPS)
    scored *= gain / variance / i_hat
    return scored, i_hat, y_bar


def spectral_estimate(a: np.ndarray, noise_sd: float, delta: float,
                      factors: int, **scored) -> DenoiseResult:
    """The spectral step both estimators share.

    Decomposes `a` through its Gram matrix on the short side
    (`linalg.gram_svd`), shrinks the spectrum in (m n)^{1/4}-scaled
    units at noise level `noise_sd` and aspect ratio m/n, and rebuilds
    the rank-k_hat estimate from the shrunk values.  Only the values
    the rule reads are taken: k_hat is the Sturm count of values at or
    above the threshold tau, and the top K = max(k_hat, factors) values
    come from the solve that forms their vectors.  A value at tau
    itself survives, as in `shrink_known_sd`; a value within rounding of
    tau survives only where both the count and the rule, on its
    computed value, put it at or above tau.  Values past the numerical
    rank rho are 0, so k_hat <= rho, and factors are formed for
    min(rho, K) columns only.  The full spectrum is left to the
    result's `sigma0`, whose function holds O(min(m, n)) numbers.
    `scored` holds the result's `x_star`, `i_hat` and `y_bar`, passed
    through.  Any scale of `a` with a finite top singular value works.
    """
    if (isinstance(factors, bool)
            or not (isinstance(factors, (int, np.integer)) and factors >= 0)):
        raise ValueError(f"factors must be an int >= 0, got {factors!r}")
    m, n = a.shape
    scale = (m * n) ** 0.25
    tau = shrink_threshold(noise_sd, delta, m / n)
    above, s, u, v, values = gram_svd(a, tau * scale, factors)
    shrunk, kept = shrink_known_sd(s / scale, noise_sd, delta, m / n)
    k_hat = min(above, kept)
    sigma_shrunk = np.zeros(min(m, n))
    sigma_shrunk[:k_hat] = shrunk[:k_hat]
    return DenoiseResult(u_hat=u, v_hat=v, _spectrum=values, _scale=scale,
                         sigma_shrunk=sigma_shrunk, k_hat=k_hat, **scored)


def adaptive_spectral(x_star: np.ndarray, i_hat: float, y_bar: float,
                      factors: int) -> DenoiseResult:
    """The adaptive pipeline's spectral step, on what `denoise_entrywise`
    returns: X* is a spiked matrix with noise sd i_hat^-1/2."""
    return spectral_estimate(x_star, i_hat ** -0.5, DELTA, factors,
                             x_star=x_star, i_hat=i_hat, y_bar=y_bar)


def denoise(y, *, factors: int = 3) -> DenoiseResult:
    """Run the full adaptive pipeline on Y.

    `factors` is how many leading singular vectors to return at least
    (`DenoiseResult`).
    """
    return adaptive_spectral(*denoise_entrywise(y), factors)


def baseline_estimate(y, noise_sd: float, *,
                      factors: int = 3) -> DenoiseResult:
    """Known-variance PCA baseline: shrink the spectrum of Y itself.

    `factors` is as for `denoise`.
    """
    return spectral_estimate(as_matrix(y, "y"), noise_sd, DELTA, factors)
