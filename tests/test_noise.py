import math

import numpy as np
import pytest

from adadenoise import Gaussian, GaussianMixture

PHI0 = 0.3989422804014327  # 1/sqrt(2 pi)


def trapezoid_integral(f, a, b, n=60001):
    """Fine trapezoid rule over [a, b]."""
    x = np.linspace(a, b, n)
    return float(np.trapezoid(f(x), x))


def window(model):
    """Plus and minus 12 standard deviations of one draw."""
    half = 12.0 * math.sqrt(model.variance())
    return -half, half


def fisher_by_trapezoid(model):
    """Fine trapezoid rule of (p')^2 / p in x, over `window(model)`; where
    p underflows to zero the integrand is taken as zero."""
    def integrand(x):
        p, pd = model.density(x), model.density_deriv(x)
        return np.divide(pd * pd, p, out=np.zeros_like(p), where=p > 0.0)

    return trapezoid_integral(integrand, *window(model), n=200001)


class TestDensity:
    def test_standard_gaussian_at_zero(self):
        assert Gaussian(1.0).density(0.0) == pytest.approx(PHI0, abs=1e-15)

    def test_mixture_at_zero(self):
        """Both components contribute phi(2) at the origin."""
        expected = PHI0 * math.exp(-2.0)
        assert GaussianMixture(2.0).density(0.0) == pytest.approx(expected,
                                                                  rel=1e-14)

    def test_degenerate_mixture_is_gaussian(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-6, 6, size=100)
        np.testing.assert_allclose(GaussianMixture(0.0).density(x),
                                   Gaussian(1.0).density(x), rtol=1e-14)

    def test_nonnegative_and_normalized(self):
        for model in (Gaussian(1.0), Gaussian(4.0), GaussianMixture(2.0)):
            a, b = window(model)
            x = np.linspace(a, b, 20001)
            assert np.all(model.density(x) >= 0)
            mass = trapezoid_integral(model.density, a, b)
            assert mass == pytest.approx(1.0, abs=1e-6)


class TestDensityDeriv:
    def test_gaussian_at_zero(self):
        assert Gaussian(1.0).density_deriv(0.0) == pytest.approx(0.0, abs=1e-16)

    def test_gaussian_at_one(self):
        expected = -PHI0 * math.exp(-0.5)  # -phi(1)
        assert Gaussian(1.0).density_deriv(1.0) == pytest.approx(expected,
                                                                 rel=1e-14)
        assert expected == pytest.approx(-0.24197072451914337, rel=1e-12)

    def test_mixture_matches_finite_difference(self):
        model = GaussianMixture(2.0)
        step = 1e-5
        for x in (-3.1, -0.5, 0.0, 0.7, 1.9, 2.4, 4.2):
            fd = (model.density(x + step) - model.density(x - step)) / (2 * step)
            assert model.density_deriv(x) == pytest.approx(fd, abs=1e-6)

    def test_fundamental_theorem(self):
        """Integral of p' over [-L, L] equals p(L) - p(-L)."""
        for model in (Gaussian(0.5), GaussianMixture(2.0)):
            a, b = window(model)
            integral = trapezoid_integral(model.density_deriv, a, b)
            assert integral == pytest.approx(model.density(b) - model.density(a),
                                             abs=1e-5)


class TestSampling:
    def test_gaussian_variance(self):
        w = Gaussian(1.0).sample(1000, 1000, seed=101)
        assert 0.99 <= w.var() <= 1.01

    def test_mixture_variance_is_five(self):
        w = GaussianMixture(2.0).sample(1000, 1000, seed=102)
        assert 4.95 <= w.var() <= 5.05

    def test_mean_within_four_standard_errors(self):
        for model in (Gaussian(1.0), GaussianMixture(2.0)):
            w = model.sample(1000, 1000, seed=103)
            se = math.sqrt(model.variance()) / 1000
            assert abs(w.mean()) <= 4 * se

    def test_seed_determinism(self):
        for model in (Gaussian(2.0), GaussianMixture(2.0)):
            a = model.sample(20, 30, seed=7)
            b = model.sample(20, 30, seed=7)
            assert np.array_equal(a, b)
            assert a.shape == (20, 30)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 2.0])
    def test_mixture_bits_match_the_coin_formula(self, mu):
        """The component means are added in place, with the same bits as
        z + mu (2 coin - 1) from the same stream, signed zeros included.
        The sampler's int32 coins are the default int64 draw's values and
        leave the generator in the same state, so the normals match too."""
        for shape in ((30, 40), (400, 400), (33, 17), (1, 1)):
            for seed in (0, 1, 7, 2018):
                rng = np.random.default_rng(seed)
                coins = rng.integers(0, 2, size=shape)
                z = rng.standard_normal(shape)
                want = z + mu * (2.0 * coins - 1.0)
                got = GaussianMixture(mu).sample(*shape, seed)
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64))

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            Gaussian(1.0).sample(0, 5, seed=1)
        with pytest.raises(ValueError, match="must be >= 1"):
            GaussianMixture(2.0).sample(0, 3, seed=1)

    @pytest.mark.parametrize("make, value", [
        (Gaussian, 0.0), (Gaussian, math.inf), (Gaussian, math.nan),
        (GaussianMixture, -1.0), (GaussianMixture, math.inf),
        (GaussianMixture, math.nan)])
    def test_invalid_parameter_rejected(self, make, value):
        with pytest.raises(ValueError):
            make(value)


class TestFisherInfo:
    def test_unit_gaussian(self):
        assert Gaussian(1.0).fisher_info() == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_variance_four(self):
        assert Gaussian(4.0).fisher_info() == pytest.approx(0.25, abs=1e-6)

    def test_mixture_value(self):
        """The mixture's value against the reported constant."""
        assert GaussianMixture(2.0).fisher_info() == pytest.approx(0.7256,
                                                                   abs=5e-4)

    def test_scaling_identity(self):
        for var in (0.25, 1.0, 5.0):
            assert Gaussian(var).fisher_info() * var == pytest.approx(1.0,
                                                                      abs=1e-5)

    def test_small_mu_limit(self):
        assert 0.999 <= GaussianMixture(1e-4).fisher_info() <= 1.001

    @pytest.mark.parametrize("var", [1e-6, 0.25, 1.0, 100.0, 1e6])
    def test_gaussian_is_reciprocal_variance(self, var):
        assert abs(Gaussian(var).fisher_info() * var - 1.0) <= 1e-15

    @pytest.mark.parametrize("mu", [0.0, 1e-4, 0.5, 2.0, 8.0, 1e3, 1e8])
    def test_mixture_between_cramer_rao_and_stam(self, mu):
        """1/Var <= I (Cramer-Rao) and, for unit Gaussian noise plus an
        independent shift, I <= 1 (Stam's inequality)."""
        info = GaussianMixture(mu).fisher_info()
        assert 1.0 / (1.0 + mu * mu) - 1e-12 <= info <= 1.0 + 1e-12

    @pytest.mark.parametrize("mu", [30.0, 1e3, 1e8])
    def test_separated_mixture_is_unit_gaussian(self, mu):
        """Components 60 sd and more apart: the score is that of the nearer
        N(+-mu, 1) but for an exponentially small term, so I is 1."""
        assert abs(GaussianMixture(mu).fisher_info() - 1.0) <= 1e-13

    @pytest.mark.parametrize("mu", [0.5, 2.0, 3.0, 8.0])
    def test_mixture_matches_fine_trapezoid(self, mu):
        model = GaussianMixture(mu)
        assert abs(model.fisher_info() - fisher_by_trapezoid(model)) <= 1e-12

    def test_cramer_rao_direction(self):
        """Fisher information dominates the reciprocal variance."""
        for model in (Gaussian(1.0), Gaussian(0.25), GaussianMixture(2.0),
                      GaussianMixture(0.7)):
            a, b = window(model)
            mean = trapezoid_integral(lambda x: x * model.density(x), a, b)
            second = trapezoid_integral(lambda x: x * x * model.density(x), a, b)
            var = second - mean ** 2
            assert model.fisher_info() >= 1.0 / var - 1e-6


class TestScore:
    def test_gaussian_score_is_identity(self):
        assert Gaussian(1.0).score(1.7) == pytest.approx(1.7, rel=1e-12)

    def test_zero_slope_gives_zero(self):
        assert GaussianMixture(2.0).score(0.0, eps=0.5) == pytest.approx(0.0,
                                                                         abs=1e-15)

    def test_mixture_matches_direct_formula(self):
        model = GaussianMixture(2.0)
        x, eps = 0.5, 1e-3
        expected = -model.density_deriv(x) / (model.density(x) + eps)
        assert model.score(x, eps) == pytest.approx(expected, rel=1e-14)

    def test_regularized_bound(self):
        model = GaussianMixture(2.0)
        eps = 1e-2
        x = np.linspace(-30, 30, 2001)
        pd_max = np.max(np.abs(model.density_deriv(x)))
        assert np.max(np.abs(model.score(x, eps))) <= pd_max / eps

    def test_vectorized(self):
        model = Gaussian(1.0)
        x = np.array([[0.5, -1.0], [2.0, 0.0]])
        np.testing.assert_allclose(model.score(x), x, rtol=1e-12)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            Gaussian(1.0).score(0.0, eps=-1e-3)


class TestEquality:
    def test_models_are_equal_by_kind_and_parameter(self):
        assert Gaussian(4) == Gaussian(4.0)
        assert GaussianMixture() == GaussianMixture(2.0)
        assert Gaussian(1.0) != Gaussian(2.0)
        assert GaussianMixture(1.0) != GaussianMixture(1.5)
        # one parameter value, two kinds
        assert Gaussian(1.0) != GaussianMixture(1.0)
        assert Gaussian(1.0) != 1.0

    def test_equal_models_hash_alike(self):
        assert hash(Gaussian(4)) == hash(Gaussian(4.0))
        assert hash(GaussianMixture(0.0)) == hash(GaussianMixture(-0.0))
        models = {Gaussian(1.0), Gaussian(1.0), GaussianMixture(1.0),
                  GaussianMixture(1.0)}
        assert models == {Gaussian(1.0), GaussianMixture(1.0)}
