"""Shared fixtures.

The expensive n = 400 Monte-Carlo cells are computed once per session
and shared between the estimator tests and the acceptance suite.
"""

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import adadenoise
from adadenoise import ExperimentConfig, GaussianMixture, SignalSpec, run_trial
from adadenoise import estimator
from adadenoise.kde import DensityEstimate, kde_binned, mean_entry

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
        params = config.params_for(spec.m, spec.n)
        records = [run_trial(spec, model, params, config.trial_seed(spec, t))
                   for t in range(config.trials)]
        cells[spec.sigmas[0]] = records
    return McGrid(cells=cells, build_seconds=time.perf_counter() - t0)


def cell_mean(records, attr, index=None):
    vals = [getattr(r, attr) for r in records]
    if index is not None:
        vals = [v[index] for v in vals]
    return float(np.mean(vals))


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


def score_parts(y, params) -> ScoreParts:
    """Rebuild the scoring step from the package's building blocks:
    `mean_entry`, `kde_binned` and the estimator's `_score_gain`."""
    y = np.asarray(y, dtype=np.float64)
    y_bar = mean_entry(y)
    centered = y - y_bar
    est = kde_binned(centered, params.h, params.h_prime)
    psi = -est.deriv / (est.density + params.eps)
    raw = est.evaluate(centered, psi)
    variance = (float(np.sort(np.square(raw), axis=None).sum() / raw.size)
                + params.eps)
    gain = estimator._score_gain(est, psi, params.eps, raw.size)
    return ScoreParts(y_bar, est, psi, raw, gain, variance)
