import math
import time
import warnings

import numpy as np
import pytest

from adadenoise import (DensityEstimate, GaussianMixture, gaussian_kernel,
                        gaussian_kernel_deriv, kde, kde_binned, mean_entry)
from adadenoise.kde import _LOOKUP_BLOCK, GRID_NODES

from conftest import kde_exact, traced_peak_arrays

PHI0 = 0.3989422804014327


class TestKernel:
    def test_peak_value(self):
        assert gaussian_kernel(0.0) == pytest.approx(PHI0, abs=1e-16)

    def test_deriv_odd(self):
        assert gaussian_kernel_deriv(0.0) == 0.0
        z = np.linspace(-4, 4, 41)
        np.testing.assert_allclose(gaussian_kernel_deriv(z),
                                   -gaussian_kernel_deriv(-z), atol=1e-16)

    def test_unit_mass(self):
        z = np.linspace(-10, 10, 20001)
        mass = np.trapezoid(gaussian_kernel(z), z)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_deriv_is_kernel_slope(self):
        z = np.linspace(-3, 3, 25)
        step = 1e-6
        fd = (gaussian_kernel(z + step) - gaussian_kernel(z - step)) / (2 * step)
        np.testing.assert_allclose(gaussian_kernel_deriv(z), fd, atol=1e-9)


class TestMeanEntry:
    def test_constant(self):
        assert mean_entry(np.full((3, 5), 2.75)) == 2.75

    def test_small_example(self):
        assert mean_entry(np.array([[1.0, 2.0], [3.0, 4.0]])) == 2.5

    def test_fsum_oracle(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((40, 37)) * 1e3
        exact = math.fsum(a.ravel()) / a.size
        assert mean_entry(a) == pytest.approx(exact, abs=1e-12)

    def test_sorted_input_gives_the_same_bits(self):
        a = np.random.default_rng(22).standard_normal((40, 37)) * 1e3
        assert mean_entry(np.sort(a, axis=None)) == mean_entry(a)

    def test_vector_is_summed_as_given(self):
        """A matrix is summed in sorted order; a 1-D input in the order
        given, so only a sorted vector is sure to give the matrix's bits."""
        a = np.array([1e16, -1e16, 1.0])
        assert mean_entry(a) == 1.0 / 3.0
        assert mean_entry(a[None, :]) == 0.0
        assert mean_entry(np.sort(a)) == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            mean_entry([])


class TestKdeExact:
    def test_single_sample_peak(self):
        h = 0.7
        s = 1.3
        assert kde_exact([s], s, h) == pytest.approx(gaussian_kernel(0.0) / h,
                                                     rel=1e-14)

    def test_density_nonnegative(self):
        rng = np.random.default_rng(22)
        samples = rng.standard_normal(500)
        x = np.linspace(-6, 6, 201)
        assert np.all(kde_exact(samples, x, h=0.25) >= 0)

    def test_monte_carlo_matches_density(self):
        """1000 unit-normal samples, h = 0.3: estimate at 0 near phi(0)."""
        rng = np.random.default_rng(23)
        samples = rng.standard_normal(1000)
        assert abs(kde_exact(samples, 0.0, h=0.3) - PHI0) < 0.05

    def test_permutation_invariance_exact_equality(self):
        rng = np.random.default_rng(24)
        samples = rng.standard_normal(3000)
        perm = rng.permutation(samples)
        x = np.array([-1.2, 0.0, 0.4, 2.2])
        assert np.array_equal(kde_exact(samples, x, h=0.2),
                              kde_exact(perm, x, h=0.2))
        assert np.array_equal(kde_exact(samples, x, h=0.2, deriv=True),
                              kde_exact(perm, x, h=0.2, deriv=True))

    def test_deriv_tracks_density_slope(self):
        rng = np.random.default_rng(25)
        samples = rng.standard_normal(4000)
        h = 0.35
        step = 1e-6
        for x in (-0.8, 0.3, 1.1):
            slope = (kde_exact(samples, x + step, h)
                     - kde_exact(samples, x - step, h)) / (2 * step)
            assert kde_exact(samples, x, h, deriv=True) == pytest.approx(
                slope, rel=1e-4, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            kde_exact([], 0.0, h=0.5)
        with pytest.raises(ValueError):
            kde_exact([1.0], 0.0, h=0.0)


@pytest.fixture(scope="module")
def mixture_samples():
    return GaussianMixture(2.0).sample(100, 100, seed=26).ravel()


class TestKdeBinned:
    def test_matches_exact_at_grid_nodes(self, mixture_samples):
        """Both tables of one build against the exact sum at every grid
        node."""
        h, h_prime = 1.2 * 1e4 ** -0.2, 1e4 ** (-1 / 7)
        est = kde_binned(mixture_samples, h, h_prime)
        grid = est.grid
        for values, deriv, bw in ((est.density, False, h),
                                  (est.deriv, True, h_prime)):
            exact = kde_exact(mixture_samples, grid, bw, deriv=deriv)
            tol = max(1e-3, 1e-2 * np.max(np.abs(exact)))
            assert np.max(np.abs(values - exact)) < tol

    def test_constant_shift_equivariance(self, mixture_samples):
        h = 0.25
        x = np.array([-2.5, -0.1, 0.9, 3.3])
        base = kde_binned(mixture_samples, h, h)
        c = 7.25
        shifted = kde_binned(mixture_samples + c, h, h)
        for table in ("density", "deriv"):
            np.testing.assert_allclose(
                shifted.evaluate(x + c, getattr(shifted, table)),
                base.evaluate(x, getattr(base, table)), atol=1e-10)

    def test_density_integrates_to_one(self, mixture_samples):
        est = kde_binned(mixture_samples, 0.2, 0.2)
        mass = np.trapezoid(est.density, est.grid)
        assert mass == pytest.approx(1.0, abs=2e-2)

    def test_bin_refinement_converges(self, mixture_samples):
        """Between the nodes, the interpolated density matches the exact
        kernel sum."""
        h = 0.2
        x = np.linspace(-5.5, 5.5, 301)
        est = kde_binned(mixture_samples, h, h)
        peak = np.max(est.density)
        gap = est.evaluate(x, est.density) - kde_exact(mixture_samples, x, h)
        assert np.max(np.abs(gap)) < 1e-3 * peak

    def test_deriv_integrates_to_zero(self, mixture_samples):
        est = kde_binned(mixture_samples, 0.2, 0.2)
        assert abs(np.trapezoid(est.deriv, est.grid)) < 1e-2

    def test_clamps_outside_grid(self, mixture_samples):
        est = kde_binned(mixture_samples, 0.2, 0.2)
        grid = est.grid
        assert est.evaluate(grid[-1] + 50.0, est.density) == est.density[-1]
        assert est.evaluate(grid[0] - 50.0, est.density) == est.density[0]

    def test_lookup_matches_np_interp(self, mixture_samples):
        """The O(1) uniform-grid lookup is np.interp on the same table,
        clamping included, at points inside and beyond both grid ends."""
        est = kde_binned(mixture_samples, 0.2, 0.3)
        grid = est.grid
        rng = np.random.default_rng(28)
        x = np.concatenate([
            rng.uniform(grid[0] - 3.0, grid[-1] + 3.0, 5000),
            grid[::97], [grid[0], grid[-1], grid[0] - 1e-9, grid[-1] + 1e-9,
                         -1e6, 1e6]])
        table = -est.deriv / (est.density + 1e-3)
        np.testing.assert_allclose(est.evaluate(x, table),
                                   np.interp(x, grid, table), rtol=0,
                                   atol=1e-12)

    def test_lookup_into_out_keeps_the_bits(self, mixture_samples):
        """Values written to `out`, which may be the points themselves,
        are those of a fresh lookup, whatever the points' layout."""
        est = kde_binned(mixture_samples, 0.2, 0.3)
        table = -est.deriv / (est.density + 1e-3)
        x = np.asfortranarray(mixture_samples.reshape(100, 100)[:, :70])
        want = est.evaluate(x, table)
        out = np.empty(x.shape)
        assert est.evaluate(x, table, out=out) is out
        assert np.array_equal(out, want)
        inplace = np.ascontiguousarray(x)
        assert est.evaluate(inplace, table, out=inplace) is inplace
        assert np.array_equal(inplace, want)
        for bad in (np.empty(x.shape, order="F"), np.empty(x.size),
                    np.empty(x.shape, dtype=np.float32)):
            with pytest.raises(ValueError, match="out must be"):
                est.evaluate(x, table, out=bad)

    def test_lookup_takes_one_value_per_node(self, mixture_samples):
        """A table of any other length than the grid's is refused, not
        interpolated into wrong values."""
        est = kde_binned(mixture_samples, 0.2, 0.3)
        for table in (est.density[:100], np.arange(5.0),
                      np.append(est.density, 0.0),
                      est.density.reshape(2, -1)):
            with pytest.raises(ValueError, match="one value per grid node"):
                est.evaluate([0.0, 1.0], table)

    def test_lookup_takes_a_list_table(self, mixture_samples):
        est = kde_binned(mixture_samples, 0.2, 0.3)
        x = [-1.0, 0.0, 2.5]
        assert np.array_equal(est.evaluate(x, est.density.tolist()),
                              est.evaluate(x, est.density))

    def test_lookup_takes_an_integer_table(self, mixture_samples):
        est = kde_binned(mixture_samples, 0.2, 0.3)
        table = np.arange(GRID_NODES)
        x = est.lo + est.spacing * np.array([0.0, 10.25, 4000.5])
        np.testing.assert_allclose(est.evaluate(x, table),
                                   [0.0, 10.25, 4000.5], rtol=1e-9)

    def test_grid_is_uniform_and_increasing(self, mixture_samples):
        est = kde_binned(mixture_samples, 0.3, 0.3)
        assert isinstance(est, DensityEstimate)
        steps = np.diff(est.grid)
        assert np.all(steps > 0)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)
        assert est.grid.size == GRID_NODES == 4096
        assert np.all(np.isfinite(est.density))
        assert np.all(np.isfinite(est.deriv))
        assert np.all(est.density >= 0)

    def test_settings_validation(self, mixture_samples):
        with pytest.raises(ValueError):
            kde_binned(mixture_samples, -1.0, 0.5)
        with pytest.raises(ValueError):
            kde_binned(mixture_samples, 0.5, 0.0)
        with pytest.raises(ValueError):
            kde_binned([], 0.5, 0.5)
        for samples in ([0.0, math.nan], [math.nan, 0.0, 1.0],
                        [0.0, math.nan, 1.0]):
            with pytest.raises(ValueError, match="non-finite"):
                kde_binned(samples, 0.5, 0.5)
        with pytest.raises(ValueError, match="too large for the bandwidths"):
            kde_binned(np.full(10, 1e20), 0.2, 0.2)

    def test_sorted_input_gives_the_same_tables(self, mixture_samples):
        est = kde_binned(mixture_samples, 0.3, 0.4)
        ordered = kde_binned(np.sort(mixture_samples, axis=None), 0.3, 0.4)
        assert (ordered.lo, ordered.spacing) == (est.lo, est.spacing)
        for name in ("counts", "density", "deriv"):
            assert np.array_equal(getattr(ordered, name), getattr(est, name))


def cell_array_binning(samples, h, h_prime):
    """Counts and moments as `kde_binned` formed them from an array of
    cell indices, floor(t) clamped to the last cell, kept here as the
    bitwise reference for the run starts taken on t itself."""
    samples = np.sort(samples, axis=None)
    margin = 8.0 * max(h, h_prime)
    lo = float(samples[0]) - margin
    spacing = (float(samples[-1]) + margin - lo) / (GRID_NODES - 1)
    t = (samples - lo) / spacing
    cell = np.minimum(np.floor(t), GRID_NODES - 2)
    t -= cell
    starts = np.searchsorted(cell, np.arange(GRID_NODES - 1))
    occupied = np.flatnonzero(np.diff(starts, append=samples.size))
    starts = starts[occupied]
    sum_t = np.add.reduceat(t, starts)
    sum_u = np.add.reduceat(1.0 - t, starts)
    sum_uu = np.add.reduceat(np.square(1.0 - t), starts)
    counts = np.zeros(GRID_NODES)
    counts[occupied] = sum_u
    counts[occupied + 1] += sum_t
    moments = np.zeros((3, GRID_NODES - 1))
    moments[0, occupied] = sum_uu
    moments[1, occupied] = sum_u - sum_uu
    moments[2, occupied] = sum_t - moments[1, occupied]
    return counts, moments


def binning_reference(samples, est):
    """Linear-binning counts of `samples` on the grid of `est`, from two
    weighted `np.bincount`s over the sorted samples."""
    pos = (np.sort(samples) - est.lo) / est.spacing
    idx = np.minimum(pos.astype(np.int64), GRID_NODES - 2)
    frac = pos - idx
    return (np.bincount(idx, weights=1.0 - frac, minlength=GRID_NODES)
            + np.bincount(idx + 1, weights=frac, minlength=GRID_NODES))


class TestRunSumBinning:
    """Each occupied cell is summed as one run of the sorted samples."""

    CASES = {
        "mixture": (GaussianMixture(2.0).sample(100, 100, seed=26).ravel(),
                    0.2, 0.3),
        "wide_bandwidth": (GaussianMixture(2.0).sample(200, 100,
                                                       seed=29).ravel(),
                           2.0, 3.0),
        "all_equal": (np.full(50, 1.75), 0.2, 0.3),
        "two_samples": (np.array([0.5, -1.0]), 0.2, 0.3),
        # two tight clusters leave most cells between them empty
        "gaps": (np.concatenate([
            np.random.default_rng(30).normal(-40.0, 0.01, 300),
            np.random.default_rng(31).normal(40.0, 0.01, 300)]), 0.05, 0.05),
        # the margin is lost to rounding, so the largest sample sits on the
        # last node: the end of the last cell
        "last_cell": (np.array([-1e20, 0.0, 3.0, 1e20]), 1.0, 1.0),
        # a margin of 1 and a spacing of exactly 1: whole numbers sit on
        # nodes, at fraction 0 of the cell they start
        "on_nodes": (np.array([0.0, 1.0, 1.0, 2.5, 100.0, 4092.5, 4093.0]),
                     0.125, 0.125),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_counts_match_bincount(self, case):
        samples, h, h_prime = self.CASES[case]
        est = kde_binned(samples, h, h_prime)
        np.testing.assert_allclose(est.counts,
                                   binning_reference(samples, est),
                                   rtol=1e-13, atol=0)
        assert est.counts.sum() == pytest.approx(samples.size, rel=1e-13)

    @pytest.mark.parametrize("case", CASES)
    def test_moments_give_the_sum_of_squares(self, case):
        samples, h, h_prime = self.CASES[case]
        est = kde_binned(samples, h, h_prime)
        assert est.moments.shape == (3, GRID_NODES - 1)
        rng = np.random.default_rng(32)
        tables = [rng.standard_normal(GRID_NODES),
                  rng.uniform(0.5, 2.0, GRID_NODES),
                  -est.deriv / (est.density + 1e-3)]
        for table in tables:
            direct = math.fsum(np.square(est.evaluate(samples, table)))
            assert est.square_sum(table) == pytest.approx(direct, rel=1e-12)
        # the three moments of a cell add up to its sample count
        cell = np.floor((np.sort(samples) - est.lo) / est.spacing)
        runs = np.bincount(np.minimum(cell, GRID_NODES - 2).astype(np.intp),
                           minlength=GRID_NODES - 1)
        np.testing.assert_allclose(
            est.moments[0] + 2.0 * est.moments[1] + est.moments[2], runs,
            rtol=1e-13, atol=0)

    @pytest.mark.parametrize("case", CASES)
    def test_bits_match_the_cell_array_reference(self, case):
        samples, h, h_prime = self.CASES[case]
        est = kde_binned(samples, h, h_prime)
        counts, moments = cell_array_binning(samples, h, h_prime)
        assert np.array_equal(est.counts, counts)
        assert np.array_equal(est.moments, moments)

    def test_edge_cases_occupy_the_expected_cells(self):
        occupied = {case: np.flatnonzero(
                        kde_binned(*self.CASES[case]).moments.any(axis=0))
                    for case in ("all_equal", "two_samples", "gaps",
                                 "last_cell")}
        assert occupied["all_equal"].size == 1
        assert occupied["two_samples"].size == 2
        gaps = occupied["gaps"]
        assert gaps.size < 20 and np.max(np.diff(gaps)) > GRID_NODES // 2
        assert occupied["last_cell"][-1] == GRID_NODES - 2
        est = kde_binned(*self.CASES["last_cell"])
        # t = 1: the sample's whole mass goes to the last node
        assert est.counts[-1] == 1.0 and est.moments[2, -1] == 1.0
        est = kde_binned(*self.CASES["on_nodes"])
        assert est.spacing == 1.0
        # a sample on node i starts cell i: its whole mass goes to node i
        assert est.counts[1] == 1.0 and est.counts[2] == 2.0
        assert est.moments[0, 1] == 1.0 and est.counts[3] == 0.5

    @pytest.mark.parametrize("case", CASES)
    def test_permuted_input_gives_the_same_bits(self, case):
        samples, h, h_prime = self.CASES[case]
        est = kde_binned(samples, h, h_prime)
        perm = kde_binned(np.random.default_rng(33).permutation(samples), h,
                          h_prime)
        assert np.array_equal(perm.counts, est.counts)
        assert np.array_equal(perm.moments, est.moments)


def full_array_kde(samples, h, h_prime):
    """Counts, moments, density and derivative tables as `kde_binned`
    formed them from one array of binning fractions over all the sorted
    samples: the bitwise reference for its blocked build."""
    samples = np.sort(samples, axis=None)
    margin = 8.0 * max(h, h_prime)
    lo = float(samples[0]) - margin
    spacing = (float(samples[-1]) + margin - lo) / (GRID_NODES - 1)
    t = (samples - lo) / spacing
    starts = np.searchsorted(t, np.arange(GRID_NODES - 1))
    t -= np.minimum(np.floor(t), GRID_NODES - 2)
    occupied = np.flatnonzero(np.diff(starts, append=samples.size))
    starts = starts[occupied]
    sum_t = np.add.reduceat(t, starts)
    u = 1.0 - t
    sum_u = np.add.reduceat(u, starts)
    sum_uu = np.add.reduceat(u * u, starts)
    counts = np.zeros(GRID_NODES)
    counts[occupied] = sum_u
    counts[occupied + 1] += sum_t
    moments = np.zeros((3, GRID_NODES - 1))
    moments[0, occupied] = sum_uu
    moments[1, occupied] = sum_u - sum_uu
    moments[2, occupied] = sum_t - moments[1, occupied]
    n = samples.size
    density = kde._smooth(counts, spacing, h, gaussian_kernel, n * h)
    deriv = kde._smooth(counts, spacing, h_prime, gaussian_kernel_deriv,
                        n * h_prime * h_prime)
    return counts, moments, density, deriv


def full_array_lookup(est, x, table):
    """`DensityEstimate.evaluate` as one expression over all the points:
    the bitwise reference for its blocked lookup."""
    pos = (np.asarray(x, dtype=np.float64) - est.lo) / est.spacing
    cell = np.clip(np.floor(pos), 0, table.size - 2)
    frac = np.clip(pos - cell, 0.0, 1.0)
    idx = cell.astype(np.intp)
    return (1.0 - frac) * table[idx] + frac * table[idx + 1]


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestBlockedKernels:
    """`kde_binned` reads the sorted samples block by block, and
    `evaluate` looks points up through three block buffers; both give the
    bits of one pass over whole arrays."""

    RNG = np.random.default_rng(37)
    CASES = {
        # one cell holds more samples than a block, so its block is
        # widened, between runs that share blocks
        "long_run": (np.concatenate([RNG.uniform(0.0, 1e-6, 40_000),
                                     RNG.normal(0.0, 50.0, 2_000)]),
                     0.01, 0.02),
        "all_equal": (np.full(50_000, 1.75), 0.2, 0.3),
        "under_one_block": (RNG.normal(0.0, 1.0, 1_000), 0.3, 0.4),
        # runs straddle the edges of the blocks
        "many_blocks": (GaussianMixture(2.0).sample(400, 500,
                                                    seed=38).ravel(),
                        0.05, 0.08),
    }

    def test_cases_cover_the_block_paths(self):
        def longest_run(case):
            samples, h, h_prime = self.CASES[case]
            est = kde_binned(samples, h, h_prime)
            cell = np.floor((np.sort(samples) - est.lo) / est.spacing)
            return np.bincount(np.minimum(cell, GRID_NODES - 2)
                               .astype(np.intp)).max()

        assert longest_run("long_run") > _LOOKUP_BLOCK
        assert longest_run("all_equal") == 50_000 > _LOOKUP_BLOCK
        assert self.CASES["under_one_block"][0].size < _LOOKUP_BLOCK
        assert self.CASES["many_blocks"][0].size > 4 * _LOOKUP_BLOCK
        assert longest_run("many_blocks") < _LOOKUP_BLOCK

    @pytest.mark.parametrize("case", CASES)
    def test_tables_match_the_full_array_bits(self, case):
        samples, h, h_prime = self.CASES[case]
        est = kde_binned(samples, h, h_prime)
        want = full_array_kde(samples, h, h_prime)
        for name, table in zip(("counts", "moments", "density", "deriv"),
                               want):
            assert np.array_equal(bits(getattr(est, name)), bits(table)), name

    @pytest.mark.parametrize("case", CASES)
    def test_lookup_matches_the_full_array_bits(self, case):
        samples, h, h_prime = self.CASES[case]
        est = kde_binned(samples, h, h_prime)
        table = -est.deriv / (est.density + 1e-3)
        grid = est.grid
        # every sample, then points off the grid on both sides
        x = np.concatenate([samples, [grid[0] - 1.0, grid[-1] + 1.0, -1e300,
                                      1e300, grid[0], grid[-1]]])
        assert np.array_equal(bits(est.evaluate(x, table)),
                              bits(full_array_lookup(est, x, table)))
        assert (bits(est.evaluate(x[5], table))
                == bits(full_array_lookup(est, x[5], table)))

    def test_nan_point_reads_nan(self):
        """A NaN point reads NaN, with no warning from its cell index."""
        est = kde_binned(*self.CASES["under_one_block"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = est.evaluate([np.nan, 0.0], est.density)
        assert np.isnan(got[0]) and got[1] == est.evaluate(0.0, est.density)

    def test_build_holds_no_sample_sized_array(self):
        """Building on N = 640,000 sorted samples allocates under half of
        N doubles at a time: one block buffer and grid-sized tables, not
        the N binning fractions (1.11 N)."""
        samples = np.sort(np.random.default_rng(39).standard_normal(640_000))
        peak = traced_peak_arrays(lambda: kde_binned(samples, 0.01, 0.02),
                                  samples.shape)
        assert peak < 0.5

    def test_lookup_holds_three_blocks(self):
        """Looking N = 640,000 points up into themselves allocates three
        block buffers (0.154 N here), not block-sized temporaries for every
        step of the expression (0.36 N)."""
        samples = np.sort(np.random.default_rng(40).standard_normal(640_000))
        est = kde_binned(samples, 0.01, 0.02)
        points = samples.copy()
        peak = traced_peak_arrays(
            lambda: est.evaluate(points, est.density, out=points),
            samples.shape)
        assert peak < 0.2


def run_change_binning(samples, est):
    """Counts and moments of `samples` on the grid of `est` from one array
    of positions over all the sorted samples, whose runs start where the
    clamped cell changes: the bitwise reference for the blocks the build
    reads the samples in."""
    t = (np.sort(samples) - est.lo) / est.spacing
    cell = np.minimum(np.floor(t), GRID_NODES - 2)
    runs = np.flatnonzero(np.diff(cell, prepend=-1.0))
    occupied = cell[runs].astype(np.intp)
    t -= cell
    sum_t = np.add.reduceat(t, runs)
    sum_u = np.add.reduceat(1.0 - t, runs)
    sum_uu = np.add.reduceat((1.0 - t) * (1.0 - t), runs)
    counts = np.zeros(GRID_NODES)
    counts[occupied] = sum_u
    counts[occupied + 1] += sum_t
    moments = np.zeros((3, GRID_NODES - 1))
    moments[0, occupied] = sum_uu
    moments[1, occupied] = sum_u - sum_uu
    moments[2, occupied] = sum_t - moments[1, occupied]
    return counts, moments


class TestBlockBoundaries:
    """Blocks of the build end at their last run start, and a block one
    cell fills is widened; the sums are those of whole-array runs."""

    RNG = np.random.default_rng(41)
    # N around one block and past three, each seeded by its size
    CASES = {f"normal_{n}": (np.random.default_rng(n).standard_normal(n),
                             0.01, 0.02)
             for n in (_LOOKUP_BLOCK - 1, _LOOKUP_BLOCK, _LOOKUP_BLOCK + 1,
                       3 * _LOOKUP_BLOCK + 7)}
    CASES.update({
        "run_over_a_block": (np.concatenate([np.full(100_000, 0.3),
                                             RNG.standard_normal(20_000)]),
                             0.01, 0.02),
        "all_equal": (np.full(3 * _LOOKUP_BLOCK, -2.5), 0.2, 0.3),
        "two_valued": (np.repeat([-1.0, 1.0], 2 * _LOOKUP_BLOCK), 0.2, 0.3),
        "t3": (RNG.standard_t(3, 640_000), 0.08, 0.15),
    })

    def test_cases_cross_the_blocks(self):
        for case in ("run_over_a_block", "all_equal", "two_valued"):
            samples, h, h_prime = self.CASES[case]
            est = kde_binned(samples, h, h_prime)
            runs = (est.moments[0] + 2.0 * est.moments[1]
                    + est.moments[2])
            assert runs.max() > _LOOKUP_BLOCK, case

    @pytest.mark.parametrize("case", CASES)
    def test_counts_and_moments_match_whole_array_runs(self, case):
        samples, h, h_prime = self.CASES[case]
        est = kde_binned(samples, h, h_prime)
        counts, moments = run_change_binning(samples, est)
        assert np.array_equal(bits(est.counts), bits(counts))
        assert np.array_equal(bits(est.moments), bits(moments))


class TestComplexityContract:
    def test_800x800_under_two_seconds(self):
        """Build both tables and look the score map up at all entries."""
        y = GaussianMixture(2.0).sample(800, 800, seed=27)
        flat = y.ravel()
        mn = flat.size
        t0 = time.perf_counter()
        est = kde_binned(flat, 1.2 * mn ** -0.2, mn ** (-1 / 7))
        est.evaluate(flat, -est.deriv / (est.density + 1e-3))
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"KDE pass took {elapsed:.2f}s"
