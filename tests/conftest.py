"""Shared fixtures and test oracles.

The expensive n = 400 Monte-Carlo cells are computed once per session
and shared between the estimator tests and the acceptance suite.  The
exact kernel sums (`kde_exact`) and the spectral-map perturbation check
are references the tests compare the package against; the package
itself never calls them.
"""

import math
import os
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

import adadenoise
from adadenoise import ExperimentConfig, GaussianMixture, SignalSpec, run_trial
from adadenoise import estimator, linalg
from adadenoise.kde import (DensityEstimate, gaussian_kernel,
                            gaussian_kernel_deriv, kde_binned, mean_entry)
from adadenoise.linalg import as_matrix, op_norm

GRID_SIGMAS = (0.2, 0.4, 2.0, 3.0, 4.0)
GRID_TRIALS = 50
GRID_N = 400
BASE_SEED = 20181005


@dataclass(frozen=True)
class McGrid:
    cells: dict
    build_seconds: float

    def __getitem__(self, sigma1):
        return self.cells[sigma1]


@pytest.fixture(params=["lapack", "eigh"])
def backend(request, monkeypatch):
    """Runs a test on each `gram_svd` backend: numpy's bundled LAPACK,
    and the `np.linalg.eigh` fallback forced by hiding the former."""
    if request.param == "eigh":
        monkeypatch.setattr(linalg, "_lapack", lambda: None)
    elif linalg._lapack() is None:
        pytest.skip("numpy's LAPACK does not export the LAPACKE routines")
    return request.param


@pytest.fixture(scope="session")
def mc_grid():
    """50 trials at n = m = 400, rank 1, mixture noise, per sigma1 cell."""
    config = ExperimentConfig(ns=(GRID_N,), ranks=(1,), sigma1_grid=GRID_SIGMAS,
                              trials=GRID_TRIALS, base_seed=BASE_SEED,
                              output="unused.csv")
    model = GaussianMixture(2.0)
    t0 = time.perf_counter()
    cells = {}
    for spec in config.cells():
        records = [run_trial(spec, model, config.trial_seed(spec, t))
                   for t in range(config.trials)]
        cells[spec.sigmas[0]] = records
    return McGrid(cells=cells, build_seconds=time.perf_counter() - t0)


def cell_mean(records, attr, index=None):
    vals = [getattr(r, attr) for r in records]
    if index is not None:
        vals = [v[index] for v in vals]
    return float(np.mean(vals))


def fail_lapack(monkeypatch, routine):
    """Make the bundled LAPACK routine `routine` report a failure (info
    1) and leave the others as they are; skips where numpy's LAPACK does
    not export the routines `linalg.gram_svd` calls."""
    real = linalg._lapack()
    if real is None:
        pytest.skip("numpy's LAPACK does not export the LAPACKE routines")
    fake = SimpleNamespace(**vars(real))
    setattr(fake, routine, lambda *args: 1)
    monkeypatch.setattr(linalg, "_lapack", lambda: fake)


def traced_peak_arrays(call, shape) -> float:
    """Peak of the memory `call()` allocates while it runs, in float64
    arrays of `shape`, as `tracemalloc` counts it: deterministic, unlike
    a timing or the resident set.  One untraced call first takes imports
    and caches out of the count."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (8 * math.prod(shape))


def row_format_csv(a) -> bytes:
    """The matrix CSV bytes of one ``%.17g`` row format per row: the
    reference `csvio.write_matrix_csv` must reproduce."""
    a = np.asarray(a, dtype=np.float64)
    fmt = ",".join(["%.17g"] * a.shape[1]) + "\n"
    return "".join(fmt % tuple(row.tolist()) for row in a).encode("ascii")


def package_env():
    """Environment for a child ``python -m adadenoise.cli`` process.

    The absolute directory holding the package this process imported goes
    ahead of any inherited PYTHONPATH, so the child runs the same code
    whatever its working directory, and whether the package came from a
    relative ``PYTHONPATH=src`` or from ``pip install -e .``.
    """
    root = str(Path(adadenoise.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": root + (os.pathsep + inherited if inherited else "")}


class ScoreParts(NamedTuple):
    """The pieces `denoise_entrywise` computes and does not return: the
    centering mean, the density estimate, the score map psi tabulated on
    its grid, psi at the centered entries, and the map's signal gain a
    and noise variance b."""

    y_bar: float
    kde: DensityEstimate
    psi: np.ndarray
    raw: np.ndarray
    gain: float
    variance: float

    @property
    def factor(self) -> float:
        """The gain-to-variance ratio a/b."""
        return self.gain / self.variance


def score_parts(y) -> ScoreParts:
    """Rebuild the scoring step from the package's building blocks:
    `mean_entry`, `kde_binned` at the bandwidths for the shape of `y`,
    the regularizer `estimator.EPS`, and the estimator's `_score_gain`."""
    y = np.asarray(y, dtype=np.float64)
    y_bar = mean_entry(y)
    centered = y - y_bar
    est = kde_binned(centered, *estimator.bandwidths(*y.shape))
    psi = -est.deriv / (est.density + estimator.EPS)
    raw = est.evaluate(centered, psi)
    variance = (float(np.sort(np.square(raw), axis=None).sum() / raw.size)
                + estimator.EPS)
    gain = estimator._score_gain(est, psi, raw.size)
    return ScoreParts(y_bar, est, psi, raw, gain, variance)


_CHUNK = 512  # query rows per block of `kde_exact`


def _exact_sum(samples_sorted: np.ndarray, x: np.ndarray, h: float,
               deriv: bool) -> np.ndarray:
    n = samples_sorted.size
    out = np.empty(x.shape, dtype=np.float64)
    flat = x.ravel()
    res = out.ravel()
    scale = 1.0 / (n * h * h) if deriv else 1.0 / (n * h)
    for start in range(0, flat.size, _CHUNK):
        q = flat[start:start + _CHUNK]
        z = (q[:, None] - samples_sorted[None, :]) / h
        vals = gaussian_kernel_deriv(z) if deriv else gaussian_kernel(z)
        res[start:start + _CHUNK] = vals.sum(axis=1) * scale
    return out


def kde_exact(samples, x, h: float, deriv: bool = False):
    """Exact kernel sum at `x` (scalar or array), the reference the
    binned estimates are tested against.

    `samples` are the already-shifted data points.  Density mode returns
    (1/(N h)) sum K((x - s)/h); derivative mode returns
    (1/(N h^2)) sum K'((x - s)/h), the plug-in estimate of p'.

    Samples are summed in sorted order, so the result depends only on
    their multiset.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if not (h > 0):
        raise ValueError("bandwidth h must be positive")
    samples = np.sort(samples)
    x_arr = np.asarray(x, dtype=np.float64)
    out = _exact_sum(samples, np.atleast_1d(x_arr), h, deriv)
    return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)


@dataclass(frozen=True)
class PerturbationCheck:
    """Outcome of :func:`check_spectral_map_perturbation`.

    `status` is one of "holds", "fails", "hypothesis_not_met"; lhs/rhs are
    the two sides of the bound (NaN when the hypothesis is not met).
    """

    status: str
    lhs: float
    rhs: float


def check_spectral_map_perturbation(a, e, f, k: int, holder, window,
                                    gap: float) -> PerturbationCheck:
    """Numerically evaluate the rank-k spectral-map perturbation bound.

    For A and its perturbation A + E, apply the scalar map `f` to the top
    k singular values of each (keeping the corresponding factors) and
    compare

        lhs = || f(A_k) - f((A+E)_k) ||_op
        rhs = 4 k L ||E||^alpha + (2 / gap) f(sigma_k(A)) ||E||

    where `holder` = (L, alpha) are Holder constants of `f` on the
    `window` = (tau, zeta).  The bound is only claimed when

        zeta > sigma_1(A),
        sigma_k(A) > max(sigma_{k+1}(A), tau) + gap,
        gap > 2 ||E||_op;

    if any of these fail the check reports "hypothesis_not_met" instead
    of a spurious failure.  Diagnostic only: it never raises on a
    violated bound.
    """
    a = as_matrix(a, "a")
    e = as_matrix(e, "e")
    if a.shape != e.shape:
        raise ValueError("a and e must have the same shape")
    p = min(a.shape)
    if not (1 <= k <= p):
        raise ValueError(f"k must be in [1, {p}]")
    L, alpha = holder
    tau, zeta = window
    if L < 0 or not (0 < alpha <= 1):
        raise ValueError("need L >= 0 and alpha in (0, 1]")

    ua, sa, vta = np.linalg.svd(a, full_matrices=False)
    e_norm = op_norm(e)
    sk = sa[k] if k < p else 0.0
    hypothesis = (zeta > sa[0]
                  and sa[k - 1] > max(sk, tau) + gap
                  and gap > 2.0 * e_norm)
    if not hypothesis:
        return PerturbationCheck("hypothesis_not_met", math.nan, math.nan)

    ub, sb, vtb = np.linalg.svd(a + e, full_matrices=False)
    fa = np.array([f(s) for s in sa[:k]], dtype=np.float64)
    fb = np.array([f(s) for s in sb[:k]], dtype=np.float64)
    mapped_a = (ua[:, :k] * fa) @ vta[:k]
    mapped_b = (ub[:, :k] * fb) @ vtb[:k]
    lhs = op_norm(mapped_a - mapped_b)
    rhs = 4.0 * k * L * e_norm ** alpha + (2.0 / gap) * f(sa[k - 1]) * e_norm
    status = "holds" if lhs <= rhs + 1e-9 else "fails"
    return PerturbationCheck(status, float(lhs), float(rhs))
