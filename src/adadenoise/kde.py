"""Kernel density estimation for the entrywise denoiser.

* ``kde_binned`` is the pipeline's estimator.  It linear-bins the
  samples once onto a uniform grid and convolves the bin counts with the
  kernel and with its derivative, each sampled at grid offsets, giving
  the density and density-derivative estimates tabulated on that one
  grid of ``GRID_NODES`` nodes.  ``DensityEstimate.evaluate``
  interpolates any table on the grid with an O(1) index per point.  Cost
  is O(samples + GRID_NODES * kernel width) instead of
  O(samples * queries), which is what makes denoising an 800 x 800
  matrix (queries at every entry) cheap.

It bins in a canonical order (the samples sorted), so its results
depend only on the multiset of samples, never on their layout.  Sorted,
the samples of each grid cell form one contiguous run, which starts
where the samples' clamped cell index changes: one pass, a block of
samples at a time, finds the runs and sums each with
``np.add.reduceat``.  The same pass keeps each cell's second moments of
the binning fractions, so the sum over the samples of an interpolated
table (``counts @ f``) and of its square
(``DensityEstimate.square_sum``) cost O(GRID_NODES), not a pass over
the samples.  The derivative estimator targets d/dx of the
density: its expectation is the kernel-smoothed p'.  The tests check
the binned tables against exact kernel sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DensityEstimate",
    "gaussian_kernel",
    "gaussian_kernel_deriv",
    "mean_entry",
    "kde_binned",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
_LOOKUP_BLOCK = 1 << 15  # points per block of a lookup or a binning pass
# Kernel cut-off and grid margin, in bandwidths: the Gaussian tail beyond
# it is below double precision noise.
TRUNCATION = 8.0
# Nodes of the KDE grid, a constant rather than a setting: spacing it at
# min(h, h')/8 instead missed the binned gain's tolerance, and at
# min(h, h')/24 it needed 104k nodes on t3 noise and was slower.
GRID_NODES = 4096


def gaussian_kernel(z):
    """K(z) = exp(-z^2/2) / sqrt(2 pi)."""
    z = np.asarray(z, dtype=np.float64)
    return np.exp(-0.5 * np.square(z)) / _SQRT2PI


def gaussian_kernel_deriv(z):
    """K'(z) = -z K(z)."""
    z = np.asarray(z, dtype=np.float64)
    return -z * np.exp(-0.5 * np.square(z)) / _SQRT2PI


def mean_entry(a) -> float:
    """Grand mean of all entries.

    The entries of a matrix are summed in sorted order, so the result
    depends only on the multiset of values: permuting the entries cannot
    perturb the last bit.  A 1-D input is summed in the order given, with
    no O(N) check that it is sorted: pass the sorted entries, as
    `denoise_entrywise` does, for the same bits.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        raise ValueError("empty input")
    return float((a if a.ndim == 1 else np.sort(a, axis=None)).sum() / a.size)


def _sorted(a: np.ndarray) -> np.ndarray:
    """`a` flattened in ascending order.  A 1-D array that is already in
    order is returned as it is, after one O(N) check instead of a sort;
    NaN fails the check and is sorted to the end."""
    if a.ndim == 1 and bool(np.all(a[:-1] <= a[1:])):
        return a
    return np.sort(a, axis=None)


@dataclass(frozen=True)
class DensityEstimate:
    """Density and density-derivative estimates on one uniform grid.

    Node i of the grid sits at ``lo + i * spacing``.  `density` is the
    estimate with bandwidth `h`, `deriv` the derivative estimate with
    bandwidth `h_prime`.  The grid carries a margin of ``TRUNCATION``
    times the larger bandwidth on both sides of the sample range, so it
    is never degenerate, even when all samples are equal, and clamping
    outside it only affects points where both estimates are zero to
    machine precision anyway.

    `counts` holds the linear-binning weights of the samples.  They are
    the interpolation weights at the samples, so for any table f on the
    grid, ``counts @ f`` equals the sum of ``evaluate(samples, f)`` in
    O(GRID_NODES).  `moments` holds, for each of the GRID_NODES - 1
    cells, the sums of (1 - t)^2, t (1 - t) and t^2 over the samples in
    it, where t is a sample's fraction of the way across its cell; they
    give the sum of ``evaluate(samples, f)**2`` the same way
    (`square_sum`).
    """

    lo: float
    spacing: float
    counts: np.ndarray
    moments: np.ndarray
    density: np.ndarray
    deriv: np.ndarray
    h: float
    h_prime: float

    @property
    def grid(self) -> np.ndarray:
        return self.lo + self.spacing * np.arange(self.counts.size)

    def evaluate(self, x, table, out=None):
        """Linear interpolation at `x` (scalar or array) of `table`, a
        function tabulated on the grid: one value per node, or ValueError.

        The cell index comes straight from the uniform spacing, O(1) per
        point.  Points outside the grid clamp to the end values, as in
        ``np.interp``, and a NaN point reads NaN.  The values go to `out`
        when given, a C-contiguous float64 array of x's shape, which may
        be `x` itself; it is returned.  The points are looked up a block
        of ``_LOOKUP_BLOCK`` at a time, through three block-sized buffers.
        """
        if np.shape(table) != self.counts.shape:
            raise ValueError("table must hold one value per grid node")
        table = np.asarray(table, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if out is None:
            out = np.empty(x.shape)
        elif not (out.shape == x.shape and out.dtype == np.float64
                  and out.flags.c_contiguous):
            raise ValueError("out must be a C-contiguous float64 array of "
                             "the points' shape")
        flat, dest = x.ravel(), out.reshape(-1)
        # three block buffers serve every block: the position, then the
        # fraction t; the cell, then the table values; the cell's index
        size = min(flat.size, _LOOKUP_BLOCK)
        pos, vals = np.empty((2, size))
        idx = np.empty(size, dtype=np.intp)
        for start in range(0, flat.size, _LOOKUP_BLOCK):
            stop = min(start + _LOOKUP_BLOCK, flat.size)
            k = stop - start
            frac, cell, i, d = pos[:k], vals[:k], idx[:k], dest[start:stop]
            np.subtract(flat[start:stop], self.lo, out=frac)
            frac /= self.spacing
            np.clip(np.floor(frac, out=cell), 0, table.size - 2, out=cell)
            np.subtract(frac, cell, out=frac)
            np.clip(frac, 0.0, 1.0, out=frac)
            with np.errstate(invalid="ignore"):  # a NaN point's cell
                i[:] = cell
            # (1 - t) f[i] + t f[i+1] gives the end values exactly at t = 0
            # and t = 1, so points off the grid clamp as in np.interp.  The
            # indices are in range ('clip' only spares `take` a copy), and
            # a NaN point reads NaN
            np.subtract(1.0, frac, out=d)
            d *= np.take(table, i, out=cell, mode="clip")
            i += 1
            d += np.multiply(np.take(table, i, out=cell, mode="clip"), frac,
                             out=cell)
        return float(dest[0]) if x.ndim == 0 else out

    def square_sum(self, table) -> float:
        """Sum of ``evaluate(samples, table)**2`` over the binned samples,
        in O(GRID_NODES): a sample at fraction t of cell i interpolates
        (1 - t) f[i] + t f[i+1], whose square is a quadratic form in the
        table with the cell's moments as coefficients."""
        left, right = table[:-1], table[1:]
        uu, tu, tt = self.moments
        return float(uu @ np.square(left) + 2.0 * (tu @ (left * right))
                     + tt @ np.square(right))


def kde_binned(samples, h: float, h_prime: float) -> DensityEstimate:
    """Build the density (bandwidth `h`) and derivative (bandwidth
    `h_prime`) estimates of the samples on one grid of ``GRID_NODES``
    nodes.

    Linear binning splits each sample's unit mass between the two nearest
    grid nodes, which keeps the binning error second order in the cell
    width.  The samples are binned in sorted order, each cell's run summed
    pairwise, so the tables depend only on their multiset; samples that
    come sorted are not sorted again.  Besides the sorted samples, the
    build holds no sample-sized array: it reads them once, a block of
    ``_LOOKUP_BLOCK`` at a time through one buffer, and only a run longer
    than a block gets an array, of at most twice its size.  Samples so
    large that the grid margin is lost to rounding are an error.
    """
    samples = _sorted(np.asarray(samples, dtype=np.float64))
    if samples.size == 0:
        raise ValueError("need at least one sample")
    # sorted: -inf comes first, +inf and nan last
    if not (np.isfinite(samples[0]) and np.isfinite(samples[-1])):
        raise ValueError("samples contain non-finite values")
    for name, value in (("h", h), ("h_prime", h_prime)):
        if not (0 < value < math.inf):
            raise ValueError(f"bandwidths must be positive and finite, "
                             f"got {name} = {value!r}")

    margin = TRUNCATION * max(h, h_prime)
    lo = float(samples[0]) - margin
    spacing = (float(samples[-1]) + margin - lo) / (GRID_NODES - 1)
    if not spacing > 0:
        raise ValueError("samples are too large for the bandwidths: the "
                         "grid margin is lost to rounding")

    # a block's runs start where its cells change.  Every block but the
    # last ends at its last run start, which the next block reads again,
    # and one that a single cell fills doubles instead.  Each run is one
    # segment of `np.add.reduceat`, summed pairwise as over the whole array
    n = samples.size
    buffer = np.empty((2, min(n, _LOOKUP_BLOCK)))
    cells, sums = [], []
    a, size = 0, _LOOKUP_BLOCK
    while a < n:
        stop = min(a + size, n)
        t, cell = (buffer[:, :stop - a] if stop - a <= buffer.shape[1]
                   else np.empty((2, stop - a)))
        np.subtract(samples[a:stop], lo, out=t)
        t /= spacing
        np.minimum(np.floor(t, out=cell), GRID_NODES - 2, out=cell)
        runs = np.append(0, np.flatnonzero(cell[1:] != cell[:-1]) + 1)
        if stop < n:
            if runs.size == 1:
                size *= 2
                continue
            stop, runs = a + runs[-1], runs[:-1]
        t, cell = t[:stop - a], cell[:stop - a]
        t -= cell
        sum_t = np.add.reduceat(t, runs)
        u = np.subtract(1.0, t, out=t)
        sum_u = np.add.reduceat(u, runs)
        u *= u
        sums.append((sum_t, sum_u, np.add.reduceat(u, runs)))
        cells.append(cell[runs])
        a, size = stop, _LOOKUP_BLOCK
    del buffer, t, cell, u
    occupied = np.concatenate(cells).astype(np.intp)
    sum_t, sum_u, sum_uu = map(np.concatenate, zip(*sums))
    counts = np.zeros(GRID_NODES)
    counts[occupied] = sum_u
    counts[occupied + 1] += sum_t
    # t (1 - t) = u - u^2 and t^2 = t - t (1 - t), per sample and so per run
    moments = np.zeros((3, GRID_NODES - 1))
    moments[0, occupied] = sum_uu
    moments[1, occupied] = sum_u - sum_uu
    moments[2, occupied] = sum_t - moments[1, occupied]

    density = _smooth(counts, spacing, h, gaussian_kernel, n * h)
    deriv = _smooth(counts, spacing, h_prime, gaussian_kernel_deriv,
                    n * h_prime * h_prime)
    return DensityEstimate(lo, spacing, counts, moments, density, deriv, h,
                           h_prime)


def _smooth(counts: np.ndarray, spacing: float, bandwidth: float, kernel,
            norm: float) -> np.ndarray:
    """Convolve the bin counts with `kernel` / `norm` at bandwidth
    `bandwidth`, sampled at grid offsets and cut off at ``TRUNCATION``
    bandwidths."""
    radius = int(math.ceil(TRUNCATION * bandwidth / spacing))
    offsets = (np.arange(2 * radius + 1) - radius) * spacing
    weights = kernel(offsets / bandwidth) / norm
    full = np.convolve(counts, weights, mode="full")
    return full[radius:radius + counts.size]
