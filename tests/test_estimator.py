import math
import pickle

import numpy as np
import pytest

from adadenoise import (Gaussian, GaussianMixture, SignalSpec,
                        baseline_estimate, debiased_sv, denoise,
                        denoise_entrywise, gaussian_kernel_deriv, kde_binned,
                        make_signal, op_norm, run_trial, shrink_known_sd,
                        subspace_overlap)
from adadenoise import estimator, kde, linalg, sim
from adadenoise.estimator import DELTA, EPS

from conftest import fail_lapack, kde_exact, score_parts, traced_peak_arrays


class TestDefaults:
    def test_bandwidth_rules(self):
        """The bandwidths follow the shape of the matrix scored:
        h = 1.2 (mn)^(-1/5) and h' = (mn)^(-1/7)."""
        assert EPS == 1e-3 and DELTA == 0.01
        for m, n in ((400, 400), (40, 700)):
            y = GaussianMixture(2.0).sample(m, n, seed=11)
            kde = score_parts(y).kde
            mn = m * n
            assert kde.h == pytest.approx(1.2 * mn ** -0.2, rel=1e-14)
            assert kde.h_prime == pytest.approx(mn ** (-1 / 7), rel=1e-14)

    def test_validation(self):
        """The estimators take the matrix and the number of factors, and
        the baseline its noise sd: eps, delta and the bandwidths are not
        settings."""
        y = GaussianMixture(2.0).sample(8, 6, seed=1)
        for bad in (dict(eps=1e-3), dict(delta=0.01), dict(h=0.3),
                    dict(params=None)):
            with pytest.raises(TypeError):
                denoise(y, **bad)
            with pytest.raises(TypeError):
                baseline_estimate(y, 1.0, **bad)
        with pytest.raises(TypeError):  # nothing more by position
            denoise(y, None)
        with pytest.raises(TypeError):
            baseline_estimate(y, 1.0, 0.01)
        with pytest.raises(ValueError):
            denoise(np.array([[1.0, 2.0, 3.0]]))  # 1 x n rejected


class TestDenoiseEntrywise:
    def test_constant_matrix_degenerate_path(self):
        """All-equal input: the grid's bandwidth margin keeps it
        non-degenerate."""
        y = np.full((8, 6), 4.2)
        x_star, i_hat, y_bar = denoise_entrywise(y)
        assert y_bar == 4.2
        assert np.all(np.isfinite(x_star))
        h_prime = estimator.bandwidths(8, 6)[1]
        bound = np.max(np.abs(gaussian_kernel_deriv(
            np.linspace(-5, 5, 2001)))) / h_prime ** 2 / EPS
        # x_star * i_hat = (a/b) psi(c), the scored matrix before the
        # division by i_hat
        assert np.max(np.abs(x_star * i_hat)) <= bound
        assert i_hat >= EPS

    def test_gaussian_noise_information_near_one(self):
        vals = [denoise_entrywise(Gaussian(1.0).sample(200, 200, seed=s))[1]
                for s in range(5)]
        assert 0.90 <= float(np.mean(vals)) <= 1.10

    def test_mixture_noise_information_tracks_truth(self):
        """The estimate lands near the mixture's information constant,
        clearly distinguishing it from unit-Gaussian noise."""
        vals = [denoise_entrywise(GaussianMixture(2.0).sample(400, 400,
                                                              seed=s))[1]
                for s in range(10)]
        mean = float(np.mean(vals))
        assert abs(mean - 0.7256) < 0.10
        assert mean < 0.80

    def test_score_bound(self):
        y = GaussianMixture(2.0).sample(60, 50, seed=3)
        x_star, i_hat, _ = denoise_entrywise(y)
        grid = np.linspace(-9, 9, 4001)
        est = score_parts(y).kde
        pd_max = np.max(np.abs(est.evaluate(grid, est.deriv)))
        assert np.max(np.abs(x_star * i_hat)) <= pd_max / EPS + 1e-12

    def test_shift_leaves_estimated_functions_unchanged(self):
        """Adding a constant shifts the grand mean and nothing else: the
        estimated density and derivative functions, the information
        estimate and the scored matrix are invariant."""
        rng = np.random.default_rng(40)
        y = rng.standard_normal((12, 10))
        c = 3.7
        x_a, i_a, y_bar_a = denoise_entrywise(y)
        x_b, i_b, y_bar_b = denoise_entrywise(y + c)
        assert y_bar_b == pytest.approx(y_bar_a + c, abs=1e-12)
        assert i_b == pytest.approx(i_a, abs=1e-10)
        a = score_parts(y).kde
        b = score_parts(y + c).kde
        grid = np.linspace(-4, 4, 101)
        for table in ("density", "deriv"):
            np.testing.assert_allclose(
                b.evaluate(grid, getattr(b, table)),
                a.evaluate(grid, getattr(a, table)), atol=1e-12)
        # the score map is applied to the centered entries, which the
        # shift leaves alone
        np.testing.assert_allclose(x_b, x_a, atol=1e-8)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_offset_leaves_estimate_unchanged(self, c):
        """A constant offset of Y changes neither the scored matrix nor
        the information estimate nor the selected rank."""
        spec = SignalSpec(m=200, n=200, r=1, sigmas=(3.0,))
        x, _, _ = make_signal(spec, seed=44)
        y = x + GaussianMixture(2.0).sample(200, 200, seed=45)
        res = denoise(y)
        res_c = denoise(y + c)
        np.testing.assert_allclose(res_c.x_star, res.x_star, rtol=0,
                                   atol=1e-8)
        assert res_c.i_hat == pytest.approx(res.i_hat, abs=1e-10)
        assert res_c.k_hat == res.k_hat == 1

    def test_one_grid_and_no_binary_search(self, monkeypatch):
        """Scoring builds one grid and never calls np.interp."""
        builds = []

        def counting_build(*args, **kwargs):
            builds.append(args)
            return kde_binned(*args, **kwargs)

        def no_interp(*args, **kwargs):
            raise AssertionError("np.interp called")

        monkeypatch.setattr(estimator, "kde_binned", counting_build)
        monkeypatch.setattr(np, "interp", no_interp)
        y = GaussianMixture(2.0).sample(30, 20, seed=6)
        denoise_entrywise(y)
        assert len(builds) == 1

    def test_one_sort_for_mean_and_kde(self, monkeypatch):
        """A denoise call sorts one m*n-sized array: Y, whose sorted
        entries serve the mean, the KDE and, through the binning moments,
        the variance of the scores."""
        sort = np.sort
        sizes = []

        def counting_sort(a, *args, **kwargs):
            sizes.append(np.size(a))
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        y = GaussianMixture(2.0).sample(30, 20, seed=6)
        denoise(y)
        assert sizes.count(y.size) == 1

    def test_one_order_check(self, monkeypatch):
        """The sorted entries are checked for order once, by `kde_binned`:
        `mean_entry` sums the vector it is given as it is."""
        check = kde._sorted
        sizes = []

        def counting_check(a):
            sizes.append(np.size(a))
            return check(a)

        monkeypatch.setattr(kde, "_sorted", counting_check)
        y = GaussianMixture(2.0).sample(30, 20, seed=6)
        denoise(y)
        assert sizes.count(y.size) == 1

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(41)
        y = rng.standard_normal((14, 9))
        rows = rng.permutation(14)
        cols = rng.permutation(9)
        res = denoise(y)
        res_p = denoise(y[rows][:, cols])
        assert res_p.i_hat == res.i_hat
        assert np.array_equal(res_p.x_star, res.x_star[rows][:, cols])

    def test_binned_gain_is_mean_interpolated_slope(self):
        """The O(bins) gain equals the mean over the centered entries of
        the interpolated slope of the tabulated score map, less the
        self-influence K(0) / (N h'^3 (p + eps)), and agrees with the same
        mean taken from exact kernel sums by central differences."""
        y = GaussianMixture(2.0).sample(60, 50, seed=3)
        eps = EPS
        h, h_prime = estimator.bandwidths(60, 50)
        scored = score_parts(y)
        grid = scored.kde.grid
        p = scored.kde.density
        psi = -scored.kde.deriv / (p + eps)
        self_slope = 1.0 / (math.sqrt(2.0 * math.pi) * y.size
                            * h_prime ** 3)
        slope = np.gradient(psi, grid) - self_slope / (p + eps)
        centered = (y - scored.y_bar).ravel()
        direct = np.mean(np.interp(centered, grid, slope))
        assert scored.gain == pytest.approx(direct, rel=1e-12)

        def exact_psi(x):
            return (-kde_exact(centered, x, h_prime, deriv=True)
                    / (kde_exact(centered, x, h) + eps))

        step = 1e-4 * min(h, h_prime)
        exact_slope = ((exact_psi(centered + step) - exact_psi(centered - step))
                       / (2.0 * step)
                       - self_slope / (kde_exact(centered, centered, h)
                                       + eps))
        assert np.mean(exact_slope) == pytest.approx(scored.gain, rel=1e-4)
        i_hat = denoise_entrywise(y)[1]
        assert i_hat == pytest.approx(scored.gain ** 2 / scored.variance,
                                      rel=1e-15)

    def test_gain_matches_signal_regression(self):
        """The estimated gain is the slope of the raw scored matrix on the
        planted signal.  Unit bandwidths on noise of standard deviation 5
        make each entry's own kernel dominate the local slope of the map;
        counted as gain, it would nearly double the estimate."""
        spec = SignalSpec(m=200, n=200, r=1, sigmas=(15.0,))
        x, _, _ = make_signal(spec, seed=500)
        y = x + Gaussian(25.0).sample(200, 200, seed=501)
        scored = score_parts(y)
        regression = float(np.sum(scored.raw * x) / np.sum(x * x))
        assert scored.gain == pytest.approx(regression, rel=0.20)

    @pytest.mark.parametrize("gain", [0.0, -0.5, math.nan, math.inf])
    def test_unusable_gain_raises(self, monkeypatch, gain):
        monkeypatch.setattr(estimator, "_score_gain", lambda *args: gain)
        y = GaussianMixture(2.0).sample(20, 20, seed=5)
        with pytest.raises(ValueError, match="gain"):
            denoise_entrywise(y)

    def test_fitted_score_map_near_identity_for_gaussian(self):
        """For unit-Gaussian noise the normalized fitted map approximates
        the identity on the bulk of the data."""
        y = Gaussian(1.0).sample(400, 400, seed=2)
        scored = score_parts(y)
        i_hat = denoise_entrywise(y)[1]
        t = np.linspace(-2.0, 2.0, 161)
        fitted = scored.factor * scored.kde.evaluate(t, scored.psi) / i_hat
        dev = np.abs(fitted - t)
        assert dev.mean() < 0.10
        assert dev.max() < 0.40
        slope = np.polyfit(t, fitted, 1)[0]
        assert 0.95 <= slope <= 1.15


class TestDenoiseFull:
    def test_star_is_rescaled_score_matrix(self):
        y = GaussianMixture(2.0).sample(40, 30, seed=4)
        res = denoise(y)
        x_star, i_hat, y_bar = denoise_entrywise(y)
        assert np.array_equal(res.x_star, x_star)
        assert (res.i_hat, res.y_bar) == (i_hat, y_bar)
        parts = score_parts(y)
        np.testing.assert_allclose(res.x_star,
                                   parts.factor * parts.raw / res.i_hat,
                                   rtol=1e-14)

    def test_floored_information_keeps_the_scaling(self):
        """Where a^2/b falls below eps, i_hat is floored at eps and X* is
        (a/b) psi(c) / eps, not psi(c) / a."""
        y = Gaussian(1000.0).sample(200, 200, seed=1)
        parts = score_parts(y)
        assert parts.gain ** 2 / parts.variance < EPS
        res = denoise(y)
        assert res.i_hat == EPS
        np.testing.assert_allclose(
            res.x_star, parts.factor * parts.raw / EPS, rtol=1e-14)
        unfloored = parts.raw / parts.gain
        assert np.max(np.abs(res.x_star - unfloored)) > 0.5 * np.max(
            np.abs(unfloored))

    def test_result_invariants(self):
        rng = np.random.default_rng(42)
        u = rng.standard_normal((80, 1))
        u /= np.linalg.norm(u)
        v = rng.standard_normal((60, 1))
        v /= np.linalg.norm(v)
        scale = (80 * 60) ** 0.25
        y = scale * 6.0 * (u @ v.T) + Gaussian(1.0).sample(80, 60, seed=5)
        res = denoise(y)
        assert res.i_hat >= EPS
        s_direct = np.linalg.svd(res.x_star, compute_uv=False) / scale
        np.testing.assert_allclose(res.sigma0, s_direct, atol=1e-12)
        assert np.all(np.diff(res.sigma0) <= 0)
        recon = scale * (res.u_hat[:, :res.k_hat]
                         * res.sigma_shrunk[:res.k_hat]) @ res.v_hat[:, :res.k_hat].T
        rel = np.linalg.norm(res.x_hat - recon) / max(np.linalg.norm(recon), 1)
        assert rel <= 1e-8
        assert np.linalg.matrix_rank(res.x_hat) == res.k_hat

    def test_pure_noise_keeps_nothing(self):
        for s in range(10):
            w = GaussianMixture(2.0).sample(200, 200, seed=1000 + s)
            assert denoise(w).k_hat == 0

    def test_planted_rank_detected(self, mc_grid):
        records = mc_grid[4.0]
        detected = sum(1 for r in records if r.k_hat == 1)
        assert detected >= 48, f"rank-1 detected in only {detected}/50 trials"


def _spectral_inputs():
    """Inputs for the spectral step: noisy planted signals of each
    aspect ratio, a noiseless rank-1 matrix and an all-zero one."""
    def planted(m, n, sigmas, seed):
        spec = SignalSpec(m=m, n=n, r=len(sigmas), sigmas=sigmas)
        return (make_signal(spec, seed)[0]
                + Gaussian(1.0).sample(m, n, seed=seed + 1))

    rng = np.random.default_rng(47)
    u, v = rng.standard_normal(50), rng.standard_normal(40)
    return {
        "square": planted(80, 80, (4.0, 3.0), 60),
        "wide": planted(60, 900, (4.0, 3.0), 62),
        "tall": planted(900, 60, (4.0, 3.0), 64),
        "two_rows": planted(2, 400, (6.0,), 66),
        "rank_one": (50 * 40) ** 0.25 * 3.0 * np.outer(
            u / np.linalg.norm(u), v / np.linalg.norm(v)),
        "zero": np.zeros((7, 5)),
    }


SPECTRAL_INPUTS = _spectral_inputs()


class TestSpectralStep:
    """The short-side Gram eigendecomposition against a dense SVD, on the
    backend `gram_svd` selects (numpy's bundled LAPACK where it
    resolves; `TestSpectralStepEigh` runs the same tests on the
    fallback)."""

    @staticmethod
    def decomposed(kind, y):
        """(result, the matrix its spectral step decomposed, noise sd)."""
        if kind == "baseline":
            return baseline_estimate(y, noise_sd=1.0), y, 1.0
        res = denoise(y)
        return res, res.x_star, res.i_hat ** -0.5

    # the adaptive pipeline decomposes X*; the score map of a noiseless
    # rank-1 matrix has values down to 1e-7 s_1, below the Gram step's
    # absolute accuracy eps * s_1^2 / s_j at 1e-12, so it gets only the
    # baseline, which decomposes the rank-1 input itself
    @pytest.mark.parametrize("name, kind", [
        (name, kind) for name in SPECTRAL_INPUTS
        for kind in ("baseline", "adaptive")
        if (name, kind) != ("rank_one", "adaptive")])
    def test_matches_dense_svd(self, name, kind):
        y = SPECTRAL_INPUTS[name]
        m, n = y.shape
        res, a, sd = self.decomposed(kind, y)
        scale = (m * n) ** 0.25
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        np.testing.assert_allclose(res.sigma0, s / scale, rtol=0, atol=1e-12)
        shrunk, k = shrink_known_sd(s / scale, sd, DELTA, m / n)
        assert res.k_hat == k
        x_hat = scale * (u[:, :k] * shrunk[:k]) @ vt[:k]
        np.testing.assert_allclose(res.x_hat, x_hat, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(x_hat).max()))

        rho = int(np.count_nonzero(res.sigma0))
        assert res.k_hat <= rho <= min(m, n)
        assert np.all(res.sigma0[:rho] > 0) and np.all(res.sigma0[rho:] == 0)
        lead = min(rho, max(res.k_hat, 3))
        assert res.u_hat.shape == (m, lead) and res.v_hat.shape == (n, lead)
        for factor in (res.u_hat, res.v_hat):
            assert np.all(np.isfinite(factor))
            assert np.linalg.norm(factor.T @ factor - np.eye(lead), 2) <= 1e-12
        assert np.all(np.isfinite(res.x_hat))

    @pytest.mark.parametrize("name, rho", [
        ("square", 80), ("wide", 60), ("tall", 60), ("two_rows", 2),
        ("rank_one", 1), ("zero", 0)])
    def test_numerical_rank(self, name, rho):
        """Noisy input keeps every value; a rank-deficient one keeps its
        rank and an all-zero one none, with k_hat = 0 and no NaN.  Factors
        are formed for min(rho, max(k_hat, factors)) columns."""
        y = SPECTRAL_INPUTS[name]
        for factors in (0, 1, 3, min(y.shape)):
            res = baseline_estimate(y, noise_sd=1.0, factors=factors)
            assert np.count_nonzero(res.sigma0) == rho
            cols = min(rho, max(res.k_hat, factors))
            assert res.u_hat.shape[1] == res.v_hat.shape[1] == cols
            if rho == 0:
                assert res.k_hat == 0
                assert not np.any(res.sigma0) and not np.any(res.x_hat)
            assert np.all(np.isfinite(res.u_hat))
            assert np.all(np.isfinite(res.v_hat))

    @pytest.mark.parametrize("shape", [(60, 90), (90, 60)])
    @pytest.mark.parametrize("factors", [1, 3])
    def test_pure_noise_factors_match_eigh(self, shape, factors):
        """With k_hat = 0 the `factors` leading columns are still the top
        singular vectors: equal to `eigh`'s of the short-side Gram matrix,
        and their image on the long side, up to sign."""
        y = Gaussian(1.0).sample(*shape, seed=70)
        res = baseline_estimate(y, noise_sd=1.0, factors=factors)
        assert res.k_hat == 0
        short = y if shape[0] <= shape[1] else y.T
        lam, w = np.linalg.eigh(short @ short.T)
        w = w[:, ::-1][:, :factors]
        long = short.T @ w / np.sqrt(lam[::-1][:factors])
        got_short, got_long = ((res.u_hat, res.v_hat) if shape[0] <= shape[1]
                               else (res.v_hat, res.u_hat))
        signs = np.sign(np.sum(got_short * w, axis=0))
        np.testing.assert_allclose(got_short * signs, w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_long * signs, long, rtol=0, atol=1e-12)

    def test_factors_must_be_a_count(self):
        y = SPECTRAL_INPUTS["square"]
        for bad in (-1, 2.5, None, True):
            with pytest.raises(ValueError, match="factors"):
                baseline_estimate(y, noise_sd=1.0, factors=bad)

    def test_top_value_above_the_largest_double_raises(self):
        """A top singular value above the largest double raises."""
        with pytest.raises(ValueError, match="exceeds the largest double"):
            baseline_estimate(np.full((30, 40), 1e307), noise_sd=1.0)

    def test_squares_that_overflow_keep_the_unit_scale_values(self):
        """Entries whose squares overflow a double are decomposed at unit
        scale: at 1e160 and noise sd 1 every value survives, debiased to
        itself (to rounding), with a finite estimate."""
        y = Gaussian(1.0).sample(30, 40, seed=72)
        unit = baseline_estimate(y, noise_sd=1e-160)
        res = baseline_estimate(1e160 * y, noise_sd=1.0)
        assert res.k_hat == unit.k_hat == 30
        np.testing.assert_allclose(res.sigma0, 1e160 * unit.sigma0,
                                   rtol=1e-13)
        np.testing.assert_allclose(res.sigma_shrunk, res.sigma0, rtol=1e-13)
        assert np.all(np.isfinite(res.x_hat))

    @staticmethod
    def rank_one_plus_noise():
        """60 x 80, rank 1 at sigma1 = 5, unit Gaussian noise."""
        spec = SignalSpec(m=60, n=80, r=1, sigmas=(5.0,))
        x, _, _ = make_signal(spec, seed=74)
        return x + Gaussian(1.0).sample(60, 80, seed=75)

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
    def test_gram_where_squares_underflow(self, scale):
        """Nonzero entries whose squares underflow a double are decomposed
        at unit scale: the unit-scale k_hat, and sigma0 and the estimate
        times the scale.  A lone entry is the one nonzero value."""
        y = self.rank_one_plus_noise()
        res = baseline_estimate(y, noise_sd=1.0)
        small = baseline_estimate(scale * y, noise_sd=scale)
        assert small.k_hat == res.k_hat == 1
        np.testing.assert_allclose(small.sigma0 / scale, res.sigma0,
                                   rtol=1e-13)
        np.testing.assert_allclose(small.x_hat / scale, res.x_hat, rtol=0,
                                   atol=1e-12 * np.abs(res.x_hat).max())
        lone = np.zeros((30, 40))
        lone[3, 5] = scale
        res = baseline_estimate(lone, noise_sd=1.0)
        assert res.k_hat == 0 and np.count_nonzero(res.sigma0) == 1
        assert res.sigma0[0] == pytest.approx(scale / 1200 ** 0.25,
                                              rel=1e-15)

    def test_squares_above_the_underflow_check_are_exact(self):
        """At scale 1e-150 the squares are normal numbers: the same k_hat
        and the same spectrum, to rounding, as at scale 1."""
        y = self.rank_one_plus_noise()
        res = baseline_estimate(y, noise_sd=1.0)
        small = baseline_estimate(1e-150 * y, noise_sd=1e-150)
        assert small.k_hat == res.k_hat == 1
        np.testing.assert_allclose(small.sigma0 / 1e-150, res.sigma0,
                                   rtol=1e-13)

    @pytest.mark.parametrize("c", [1.0, 2.0 ** 18, 1e6, 1e9])
    def test_large_scales_keep_the_unit_scale_count(self, c):
        """Handed this Gram matrix in the input's units, LAPACK's dstemr
        fails (info = 22) from c = 2^18 up; at unit scale every c gives
        the same k_hat."""
        a = np.random.default_rng(1).standard_normal((400, 400)) * 3 + 0.1
        assert baseline_estimate(c * a, noise_sd=c).k_hat == 231

    def test_tiny_noise_sd_gives_a_finite_estimate(self):
        """Values far above a tiny noise sd (y ~ 1e78 in noise units, past
        where y^4 overflows) are debiased to themselves, not to inf."""
        y = np.random.default_rng(0).standard_normal((60, 80)) + 5
        res = baseline_estimate(y, noise_sd=1e-76)
        assert res.k_hat == 60
        assert np.all(np.isfinite(res.sigma_shrunk))
        assert np.all(np.isfinite(res.x_hat))
        np.testing.assert_allclose(res.sigma_shrunk, res.sigma0, rtol=1e-13)


class TestSpectralStepEigh(TestSpectralStep):
    """`TestSpectralStep` on the `np.linalg.eigh` fallback, forced by
    hiding the resolved LAPACK routines."""

    @pytest.fixture(autouse=True)
    def fallback(self, monkeypatch):
        monkeypatch.setattr(linalg, "_lapack", lambda: None)


class TestLazySpectrum:
    """Only the values something reads are taken: with `dsterf`, which
    takes the full spectrum, made to fail, both estimators, `op_norm`
    and a whole trial still run, and only reading `sigma0` raises."""

    def test_full_spectrum_is_taken_on_first_read(self, monkeypatch):
        spec = SignalSpec(m=60, n=80, r=1, sigmas=(5.0,))
        x, _, _ = make_signal(spec, seed=74)
        y = x + GaussianMixture(2.0).sample(60, 80, seed=75)
        want = baseline_estimate(y, noise_sd=math.sqrt(5.0)).sigma0
        fail_lapack(monkeypatch, "dsterf")
        res = denoise(y)
        base = baseline_estimate(y, noise_sd=math.sqrt(5.0))
        assert res.k_hat == base.k_hat == 1
        assert op_norm(y - x) > 0
        record = run_trial(spec, GaussianMixture(2.0), seed=76)
        assert record.k_hat == 1
        for est in (res, base):
            with pytest.raises(np.linalg.LinAlgError, match="dsterf"):
                est.sigma0
        monkeypatch.undo()
        again = baseline_estimate(y, noise_sd=math.sqrt(5.0))
        assert again.sigma0 is again.sigma0  # taken once, then kept
        np.testing.assert_array_equal(again.sigma0, want)

    @pytest.mark.parametrize("read_first", [False, True],
                             ids=["sigma0-unread", "sigma0-read"])
    def test_result_pickles_bitwise(self, backend, read_first):
        """A result survives a pickle round trip, as from a process pool,
        with the same bits, whether or not `sigma0` was read first."""
        spec = SignalSpec(m=60, n=50, r=2, sigmas=(5.0, 4.0))
        x, _, _ = make_signal(spec, seed=80)
        y = x + GaussianMixture(2.0).sample(60, 50, seed=81)
        for res in (denoise(y), baseline_estimate(y, math.sqrt(5.0))):
            if read_first:
                res.sigma0
            back = pickle.loads(pickle.dumps(res))
            for name in ("x_hat", "sigma0", "u_hat", "v_hat", "x_star"):
                assert np.array_equal(getattr(back, name),
                                      getattr(res, name)), name

    def test_x_hat_is_formed_on_first_read(self):
        spec = SignalSpec(m=60, n=80, r=2, sigmas=(5.0, 4.0))
        x, _, _ = make_signal(spec, seed=77)
        y = x + GaussianMixture(2.0).sample(60, 80, seed=78)
        for res in (denoise(y), baseline_estimate(y, math.sqrt(5.0))):
            assert "x_hat" not in vars(res)
            k, scale = res.k_hat, (60 * 80) ** 0.25
            want = (scale * (res.u_hat[:, :k] * res.sigma_shrunk[:k])
                    @ res.v_hat[:, :k].T)
            assert res.x_hat is res.x_hat  # formed once, then kept
            assert np.array_equal(res.x_hat, want)

    def test_a_trial_never_forms_x_hat(self, monkeypatch):
        """A trial takes its errors from the factors, so neither
        estimate's m x n x_hat is ever formed."""
        results = []

        def keeping(estimate):
            def call(*args, **kwargs):
                results.append(estimate(*args, **kwargs))
                return results[-1]
            return call

        monkeypatch.setattr(sim, "adaptive_spectral",
                            keeping(sim.adaptive_spectral))
        monkeypatch.setattr(sim, "baseline_estimate",
                            keeping(baseline_estimate))
        run_trial(SignalSpec(m=60, n=80, r=1, sigmas=(5.0,)),
                  GaussianMixture(2.0), seed=79)
        assert len(results) == 2
        assert all("x_hat" not in vars(res) for res in results)


class TestAllocationBudget:
    """The peak memory of one call, counted in m x n arrays: a guard on
    the pipeline's temporaries that does not depend on timing."""

    def test_denoise_wide(self):
        y = GaussianMixture(2.0).sample(100, 6400, seed=80)
        # X* with the unit-scale copy the spectral step decomposes; before
        # it, the sorted entries (which become X*) with a block of binning
        # fractions or lookups
        assert traced_peak_arrays(lambda: denoise(y), y.shape) <= 2.6


class TestBaseline:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(43)
        u = rng.standard_normal((50, 1))
        u /= np.linalg.norm(u)
        v = rng.standard_normal((40, 1))
        v /= np.linalg.norm(v)
        scale = (50 * 40) ** 0.25
        sigma = 3.0
        y = scale * sigma * (u @ v.T)
        res = baseline_estimate(y, noise_sd=1.0)
        assert res.k_hat == 1
        assert res.sigma_shrunk[0] == pytest.approx(debiased_sv(sigma, 50 / 40),
                                                    abs=1e-9)
        assert subspace_overlap(res.u_hat[:, :1], u) == pytest.approx(1.0,
                                                                      abs=1e-9)

    def test_pure_noise_keeps_nothing(self):
        sd = math.sqrt(5.0)
        for s in range(10):
            w = GaussianMixture(2.0).sample(200, 200, seed=1000 + s)
            assert baseline_estimate(w, noise_sd=sd).k_hat == 0

    def test_matches_shrink_composition(self):
        y = GaussianMixture(2.0).sample(30, 30, seed=6)
        res = baseline_estimate(y, noise_sd=math.sqrt(5.0))
        scale = (30 * 30) ** 0.25
        sig0 = np.linalg.svd(y, compute_uv=False) / scale
        shrunk, k = shrink_known_sd(sig0, math.sqrt(5.0), DELTA, 1.0)
        assert k == res.k_hat
        np.testing.assert_allclose(res.sigma_shrunk, shrunk, atol=1e-12)

        # the adaptive pipeline applies the same rule to the spectrum of
        # X*, at noise sd i_hat^-1/2
        spec = SignalSpec(m=30, n=30, r=1, sigmas=(4.0,))
        y = make_signal(spec, seed=6)[0] + y
        res = denoise(y)
        assert res.k_hat == 1
        u, s, vt = np.linalg.svd(res.x_star, full_matrices=False)
        sig0 = s / scale
        shrunk, k = shrink_known_sd(sig0, res.i_hat ** -0.5, DELTA, 1.0)
        assert k == res.k_hat
        np.testing.assert_allclose(res.sigma0, sig0, atol=1e-12)
        np.testing.assert_allclose(res.sigma_shrunk, shrunk, atol=1e-12)
        x_hat = scale * (u[:, :k] * shrunk[:k]) @ vt[:k]
        np.testing.assert_allclose(res.x_hat, x_hat, atol=1e-12)


class TestOracleDenoise:
    """The oracle denoiser is the true density's score applied to Y entrywise."""

    def test_gaussian_is_identity(self):
        y = Gaussian(1.0).sample(20, 25, seed=8)
        np.testing.assert_allclose(Gaussian(1.0).score(y, eps=0.0), y,
                                   atol=1e-12)

    def test_large_eps_flattens(self):
        model = GaussianMixture(2.0)
        y = model.sample(20, 20, seed=9)
        grid = np.linspace(-20, 20, 4001)
        pd_max = np.max(np.abs(model.density_deriv(grid)))
        for eps in (10.0, 1e3):
            assert np.max(np.abs(model.score(y, eps))) <= pd_max / eps

    def test_matches_pointwise_score(self):
        model = GaussianMixture(2.0)
        y = model.sample(15, 10, seed=10)
        out = model.score(y, eps=1e-3)
        for idx in ((0, 0), (7, 3), (14, 9)):
            assert out[idx] == pytest.approx(model.score(y[idx], 1e-3),
                                             rel=1e-14)
