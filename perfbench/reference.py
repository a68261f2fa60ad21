"""Reference kernels that put the timing metrics on a fixed host speed.

The benchmark runs on a shared machine whose speed drifts by 10-35 %
over tens of seconds while nothing else runs in it: other tenants load
the host's cores, caches and memory.  That drift moved the median
latency of one workload by more than a quarter between runs of the same
code.  Every workload call is therefore followed by a short reference
kernel that uses numpy and Python only, never the package.  Its inputs
are fixed, so it does the same work in every run and at every commit of
the package.  A call's latency is scaled by the reference's nominal time
over the time the reference took right after that call:

    latency at nominal speed = wall latency * nominal / reference time

A change to the package moves the call and not the reference, so it
shows in full.  A host phase that slows both cancels.  Each workload's
reference mixes the kinds of work the workload does, because the drift
hits kinds of work differently: pure Python float formatting slowed by
up to 1.7x in slow phases, BLAS-bound SVDs by about 1.2x.  A reference
is made of parts:

- ``linalg``: a thin SVD of a fixed Gaussian matrix plus ``np.interp`` of
  fixed points on a 2048-node grid.  These are the dense SVD and the
  KDE lookups that dominate ``denoise()`` and a simulation trial.
- ``csv``: fixed doubles formatted with 17 significant digits and parsed
  back with ``float``, the work of the CLI's CSV I/O.

In 300 s probes on the 2-core machine the benchmark was written on, the
spread (IQR over median) of 20 s medians fell from 0.10-0.31 in wall
time to 0.02-0.04 with each workload's own reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
# Bound now, before the traced phase wraps numpy.linalg.svd: a reference
# run inside a workload call (mc_grid's progress callback) records no span.
from numpy.linalg import svd as _svd

_GRID = np.linspace(-5.0, 5.0, 2048)
_VALUES = np.exp(-_GRID ** 2)


def _part(kind: str, shape: tuple, rng):
    if kind == "linalg":   # shape = (SVD rows, SVD columns, interp points)
        m, n, points = shape
        a = rng.standard_normal((m, n))
        x = 2.0 * rng.standard_normal(points)

        def run():
            s = _svd(a, full_matrices=False)[1]
            return float(np.interp(x, _GRID, _VALUES).sum() + s[0])
    elif kind == "csv":    # shape = (rows, columns)
        b = rng.standard_normal(shape)

        def run():
            text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in b)
            return sum(float(t) for line in text.splitlines()
                       for t in line.split(","))
    else:
        raise ValueError(f"unknown reference part {kind!r}")
    return run


@dataclass(frozen=True)
class Reference:
    """One reference kernel and its nominal time.

    `parts` is a tuple of (kind, shape) run one after the other.
    `nominal_ms` is about the kernel's time on the machine the benchmark
    was written on when the host was fast; it only sets the scale of the
    reported times and never changes.
    """

    parts: tuple
    nominal_ms: float

    def kernel(self):
        rng = np.random.default_rng(20181008)
        runs = [_part(kind, shape, rng) for kind, shape in self.parts]
        return lambda: [run() for run in runs]


class Timer:
    """Times a reference kernel; each call returns its duration in s."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self._run = ref.kernel()
        self._run()  # first-call costs stay out of the samples

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0

    def scale(self, ref_s: float) -> float:
        """Factor that turns a wall time into one at nominal speed."""
        return 1e-3 * self.ref.nominal_ms / ref_s
