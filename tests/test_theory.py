"""The closed-form limits in `shrinkage`: overlap and error limits and
the minimax constants."""

import math
import random

import numpy as np
import pytest

from adadenoise import error_limit, minimax_limits, overlap_limit


class TestOverlapLimit:
    def test_zero_at_threshold(self):
        """sigma^2 t = 1 makes the numerator vanish."""
        assert overlap_limit(2.0, 0.25, 1.0) == 0.0
        assert overlap_limit(0.5, 4.0, 1.0) == 0.0

    def test_tends_to_one(self):
        assert overlap_limit(1e6, 1.0, 1.0) > 1.0 - 1e-6

    def test_direct_formula(self):
        sigma, t = 2.0, 0.7256
        snr = sigma * sigma * t
        expected = math.sqrt((1 - snr ** -2) / (1 + 1.0 / snr))
        assert overlap_limit(sigma, t, 1.0) == pytest.approx(expected,
                                                             rel=1e-14)

    def test_continuous_at_threshold(self):
        t = 0.5
        sigma_star = 1.0 / math.sqrt(t)
        assert overlap_limit(sigma_star, t) == 0.0
        assert overlap_limit(sigma_star * (1 + 1e-8), t) < 1e-3

    def test_monotone_above_threshold(self):
        vals = [overlap_limit(s, 0.7256, 1.0) for s in np.linspace(1.2, 9, 80)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_aspect_symmetry_exact(self):
        for gamma in (0.2, 0.5, 2.0, 7.3):
            for sigma in (1.4, 2.0, 3.7):
                assert overlap_limit(sigma, 1.0, gamma) == overlap_limit(
                    sigma, 1.0, 1.0 / gamma)

    def test_validation(self):
        with pytest.raises(ValueError):
            overlap_limit(0.0, 1.0)
        with pytest.raises(ValueError):
            overlap_limit(1.0, 0.0)
        for gamma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="aspect ratio"):
                overlap_limit(2.0, 1.0, gamma)


class TestErrorLimit:
    def test_zero_signal(self):
        assert error_limit(0.0, 1.0) == 0.0

    def test_saturates_at_precision_floor(self):
        assert error_limit(10.0, 0.7256) == pytest.approx(0.7256 ** -0.5,
                                                          rel=1e-14)
        assert 0.7256 ** -0.5 == pytest.approx(1.1739548, abs=1e-7)

    def test_linear_branch(self):
        assert error_limit(0.5, 1.0) == 0.5

    def test_validation(self):
        for sigma1, t in ((-1.0, 1.0), (math.nan, 1.0), (1.0, 0.0),
                          (1.0, math.nan)):
            with pytest.raises(ValueError):
                error_limit(sigma1, t)

    def test_kink_location(self):
        t = 0.7256
        kink = t ** -0.5
        for sigma in np.linspace(0.01, kink, 20):
            assert error_limit(sigma, t) == sigma
        for sigma in np.linspace(kink * (1 + 1e-12), 3 * kink, 20):
            assert error_limit(sigma, t) == kink


class TestMinimaxLimits:
    def test_square_unit_noise(self):
        assert minimax_limits(1.0, 1.0) == (1.0, 2.0)

    def test_square_mixture_precision(self):
        lo, hi = minimax_limits(1.0, 0.7256)
        root = 0.7256 ** -0.5
        assert lo == pytest.approx(root, rel=1e-14)
        assert hi == pytest.approx(2 * root, rel=1e-14)

    def test_rectangular_closed_form(self):
        lo, hi = minimax_limits(4.0, 1.0)
        assert lo == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert hi == pytest.approx(math.sqrt(2.0) + 1 / math.sqrt(2.0),
                                   rel=1e-14)

    def test_validation(self):
        for gamma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="aspect ratio"):
                minimax_limits(gamma, 1.0)
        with pytest.raises(ValueError, match="fisher_info"):
            minimax_limits(1.0, 0.0)

    def test_reciprocal_aspect_ratio_gives_the_same_bits(self):
        """Both constants go through the representative >= 1, as
        `bulk_edge` does, so gamma and 1/gamma agree to the last bit
        wherever 1/gamma is exactly invertible."""
        rng = random.Random(0)
        draws = [rng.uniform(0.01, 50.0) for _ in range(2000)]
        exact = [g for g in draws if 1.0 / (1.0 / g) == g]
        assert len(exact) > 1500
        for gamma in exact:
            assert minimax_limits(gamma, 1.0) == minimax_limits(1.0 / gamma,
                                                                1.0)

    def test_sandwich(self):
        for gamma in (0.3, 1.0, 2.5):
            for info in (0.2, 1.0, 4.0):
                lo, hi = minimax_limits(gamma, info)
                assert lo <= hi <= 2 * lo
