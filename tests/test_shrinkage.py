import math

import numpy as np
import pytest

from adadenoise import (bulk_edge, debiased_sv, inflated_sv, op_norm,
                        shrink_known_sd)

from conftest import check_spectral_map_perturbation

GAMMAS = (0.25, 0.5, 1.0, 2.0, 4.0)


def bisect_inverse(y, gamma, lo=1.0, hi=None, iters=200):
    """Invert the forward map by bisection; independent of the closed form."""
    if hi is None:
        hi = max(2.0, y + 1.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if inflated_sv(mid, gamma) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def haar_frame(rng, dim, k):
    q, r = np.linalg.qr(rng.standard_normal((dim, k)))
    return q * np.sign(np.diag(r))


def composed(rng, m, n, spectrum):
    p = haar_frame(rng, m, min(m, n))
    q = haar_frame(rng, n, min(m, n))
    return (p * np.asarray(spectrum)) @ q.T


class TestForwardMap:
    def test_value_at_one(self):
        for gamma in GAMMAS:
            expected = gamma ** 0.25 + gamma ** -0.25
            assert inflated_sv(1.0, gamma) == pytest.approx(expected, rel=1e-14)
            assert bulk_edge(gamma) == pytest.approx(expected, rel=1e-14)

    def test_domain(self):
        for bad in (-1.0, math.nan, [2.0, math.nan]):
            with pytest.raises(ValueError, match="sigma must be >= 0"):
                inflated_sv(bad, 1.0)

    def test_square_case(self):
        """gamma = 1 reduces to sigma + 1/sigma."""
        assert inflated_sv(2.0, 1.0) == pytest.approx(2.5, rel=1e-14)

    def test_rectangular_direct_formula(self):
        sigma, gamma = 1.5, 4.0
        expected = math.sqrt((sigma + gamma ** -0.5 / sigma)
                             * (sigma + gamma ** 0.5 / sigma))
        assert inflated_sv(sigma, gamma) == pytest.approx(expected, rel=1e-14)

    def test_constant_below_one_and_continuous(self):
        for gamma in GAMMAS:
            edge = bulk_edge(gamma)
            assert inflated_sv(0.0, gamma) == edge
            assert inflated_sv(0.999, gamma) == edge
            assert inflated_sv(1.0 + 1e-12, gamma) == pytest.approx(edge,
                                                                    abs=1e-9)

    def test_strictly_increasing_above_one(self):
        s = np.linspace(1.0, 20.0, 400)
        for gamma in GAMMAS:
            vals = inflated_sv(s, gamma)
            assert np.all(np.diff(vals) > 0)

    def test_aspect_ratio_symmetry(self):
        s = np.linspace(0.0, 10.0, 50)
        for gamma in (0.2, 0.5, 2.0, 7.3):
            np.testing.assert_array_equal(inflated_sv(s, gamma),
                                          inflated_sv(s, 1.0 / gamma))

    def test_dominates_identity(self):
        s = np.linspace(1.0, 20.0, 100)
        for gamma in GAMMAS:
            assert np.all(inflated_sv(s, gamma) >= s)

    def test_finite_where_the_square_overflows(self):
        """Past s ~ 1.3e154 the product under the root overflows; the map
        is s there, to far below rounding.  Below, it is that expression
        bit for bit."""
        big = np.array([1e155, 1e160, 1e300, np.finfo(np.float64).max])
        s = np.geomspace(1.0, 1e154, 500)
        for gamma in GAMMAS:
            np.testing.assert_array_equal(inflated_sv(big, gamma), big)
            assert inflated_sv(1e160, gamma) == 1e160
            rg = math.sqrt(max(gamma, 1.0 / gamma))
            np.testing.assert_array_equal(
                inflated_sv(s, gamma),
                np.sqrt((s + 1.0 / (rg * s)) * (s + rg / s)))


class TestInverseMap:
    def test_boundary(self):
        for gamma in GAMMAS:
            assert debiased_sv(bulk_edge(gamma), gamma) == pytest.approx(
                1.0, abs=1e-9)

    def test_square_example(self):
        assert debiased_sv(2.5, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_bisection_oracle(self):
        rng = np.random.default_rng(31)
        for gamma in (0.5, 1.0, 4.0):
            edge = bulk_edge(gamma)
            for y in rng.uniform(edge, 20.0, size=40):
                assert debiased_sv(y, gamma) == pytest.approx(
                    bisect_inverse(y, gamma), abs=1e-8)

    def test_round_trips(self):
        for gamma in GAMMAS:
            for sigma in np.linspace(1.0, 20.0, 77):
                assert debiased_sv(inflated_sv(sigma, gamma),
                                   gamma) == pytest.approx(sigma, abs=1e-9)
            edge = bulk_edge(gamma)
            for y in np.linspace(edge, 40.0, 77):
                assert inflated_sv(debiased_sv(y, gamma),
                                   gamma) == pytest.approx(y, abs=1e-9)

    def test_below_identity(self):
        for gamma in GAMMAS:
            y = np.linspace(bulk_edge(gamma), 30.0, 60)
            assert np.all(debiased_sv(y, gamma) <= y)

    def test_domain(self):
        edge = bulk_edge(1.0)
        for bad in (edge - 1e-6, math.nan, [2.5, math.nan]):
            with pytest.raises(ValueError, match="bulk edge"):
                debiased_sv(bad, 1.0)
        # inputs a hair below the edge clamp up instead of failing
        assert debiased_sv(edge - 1e-13, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_result_at_least_one(self):
        for gamma in GAMMAS:
            y = np.linspace(bulk_edge(gamma), 25.0, 50)
            assert np.all(debiased_sv(y, gamma) >= 1.0)

    def test_finite_where_the_fourth_power_overflows(self):
        """Past y ~ 1.16e77 the closed form's y^4 overflows; the inverse
        is y there, to far below rounding.  Below, it is the closed form
        bit for bit."""
        big = np.array([1e78, 1e155, 1e160, np.finfo(np.float64).max])
        for gamma in GAMMAS:
            np.testing.assert_array_equal(debiased_sv(big, gamma), big)
            assert debiased_sv(1e160, gamma) == 1e160
            edge = bulk_edge(gamma)
            y = np.geomspace(edge, 1e77, 500)
            d = (y - edge) * (y + edge)
            np.testing.assert_array_equal(
                debiased_sv(y, gamma),
                np.sqrt(0.5 * (d + 2.0 + np.sqrt(d * (d + 4.0)))))


def adaptive(sigma0, fisher, delta=0.01, gamma=1.0):
    """The rule as the adaptive pipeline applies it: to the spectrum of
    X* = X0 / I, at noise sd I^-1/2."""
    return shrink_known_sd(np.asarray(sigma0) / fisher, fisher ** -0.5,
                           delta, gamma)


class TestShrinkAdaptive:
    def test_all_below_threshold(self):
        shrunk, k = adaptive(np.array([1.9, 1.2, 0.3]), fisher=1.0,
                             delta=0.01, gamma=1.0)
        assert k == 0
        assert np.array_equal(shrunk, np.zeros(3))

    def test_reduces_to_plain_debias(self):
        shrunk, k = adaptive(np.array([2.5]), fisher=1.0, delta=0.0)
        assert k == 1
        assert shrunk[0] == pytest.approx(2.0, abs=1e-9)

    def test_direct_formula_oracle(self):
        fisher = 0.7256
        root = math.sqrt(fisher)
        expected = bisect_inverse(3.0 / root, 1.0) / root
        shrunk, k = adaptive(np.array([3.0]), fisher, delta=0.01)
        assert k == 1
        assert shrunk[0] == pytest.approx(expected, abs=1e-8)

    def test_shape_and_order(self):
        sigma0 = np.array([4.0, 3.0, 2.5, 0.4, 0.1])
        shrunk, k = adaptive(sigma0, fisher=1.0, delta=0.01)
        assert k == 3
        assert np.all(shrunk[k:] == 0)
        assert np.all(np.diff(shrunk[:k]) <= 0)
        # monotone in each coordinate above the threshold
        bumped, _ = adaptive(sigma0 + np.array([0.3, 0, 0, 0, 0]),
                             fisher=1.0, delta=0.01)
        assert bumped[0] > shrunk[0]

    def test_contractive_bound(self):
        """Shrunk values stay below fisher^-1 times the input; when the
        precision is at least 1 they cannot exceed the input itself."""
        rng = np.random.default_rng(32)
        for fisher in (0.3, 0.7256, 1.0, 2.0):
            sigma0 = np.sort(rng.uniform(0.1, 9.0, size=12))[::-1]
            shrunk, _ = adaptive(sigma0, fisher, delta=0.01)
            assert np.all(shrunk <= sigma0 / fisher + 1e-12)
            if fisher >= 1.0:
                assert np.all(shrunk <= sigma0 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            shrink_known_sd(np.array([1.0, 2.0]), noise_sd=1.0, delta=0.01)
        with pytest.raises(ValueError, match="1-D"):
            shrink_known_sd(np.ones((2, 2)), noise_sd=1.0, delta=0.01)
        with pytest.raises(ValueError):
            shrink_known_sd(np.array([2.0, 1.0]), noise_sd=0.0, delta=0.01)
        for bad in (dict(noise_sd=math.inf), dict(noise_sd=math.nan),
                    dict(delta=math.nan), dict(delta=math.inf),
                    dict(delta=-0.5)):
            with pytest.raises(ValueError):
                shrink_known_sd(np.array([2.0, 1.0]),
                                **{"noise_sd": 1.0, "delta": 0.01, **bad})


class TestShrinkKnownSd:
    def test_threshold_boundary(self):
        sd, delta = 1.3, 0.01
        edge_value = (1 + delta) * bulk_edge(1.0) * sd
        shrunk, k = shrink_known_sd(np.array([edge_value - 1e-9]), sd, delta)
        assert k == 0 and shrunk[0] == 0.0
        shrunk, k = shrink_known_sd(np.array([edge_value + 1e-9]), sd, delta)
        assert k == 1 and shrunk[0] > 0

    def test_mixture_sd_oracle(self):
        sd = math.sqrt(5.0)
        expected = sd * bisect_inverse(5.0 / sd, 1.0)
        shrunk, k = shrink_known_sd(np.array([5.0]), sd, delta=0.01)
        assert k == 1
        assert shrunk[0] == pytest.approx(expected, abs=1e-8)


class TestPerturbationCheck:
    WINDOW = (1.2, 6.0)
    HOLDER = (1.0, 1.0)  # identity map is (1, 1)-Holder

    def test_zero_perturbation(self):
        rng = np.random.default_rng(33)
        a = composed(rng, 8, 6, [5.0, 4.0, 1.0, 0.8, 0.5, 0.3])
        res = check_spectral_map_perturbation(a, np.zeros_like(a), lambda s: s,
                                              k=2, holder=self.HOLDER,
                                              window=self.WINDOW, gap=1.0)
        assert res.status == "holds"
        assert res.lhs == pytest.approx(0.0, abs=1e-14)
        assert res.rhs == pytest.approx(0.0, abs=1e-14)

    def test_identity_map_random_instances(self):
        rng = np.random.default_rng(34)
        held = 0
        for _ in range(100):
            a = composed(rng, 8, 6, [5.0, 4.0, 1.0, 0.8, 0.5, 0.3])
            e = rng.standard_normal((8, 6))
            e *= 0.4 / op_norm(e)
            res = check_spectral_map_perturbation(a, e, lambda s: s, k=2,
                                                  holder=self.HOLDER,
                                                  window=self.WINDOW, gap=1.0)
            assert res.status in ("holds", "hypothesis_not_met")
            if res.status == "holds":
                assert res.lhs <= res.rhs + 1e-9
                held += 1
        assert held == 100  # spectrum built to satisfy the hypothesis

    def test_debias_map_with_its_holder_constants(self):
        """The threshold-debias spectral map is (4 i^-1 zeta^3/4, 1/4)-Holder
        above its threshold."""
        rng = np.random.default_rng(35)
        fisher = 0.7256
        root = math.sqrt(fisher)
        tau = root * bulk_edge(1.0)
        zeta = 6.0
        L = 4.0 / fisher * zeta ** 0.75

        def f(s):
            return debiased_sv(s / root, 1.0) / root if s >= tau else 0.0

        for _ in range(100):
            a = composed(rng, 9, 7, [5.0, 4.0, 1.0, 0.8, 0.5, 0.3, 0.2])
            e = rng.standard_normal((9, 7))
            e *= 0.45 / op_norm(e)
            res = check_spectral_map_perturbation(a, e, f, k=2,
                                                  holder=(L, 0.25),
                                                  window=(tau, zeta), gap=1.0)
            assert res.status == "holds"
            assert res.lhs <= res.rhs + 1e-9

    def test_hypothesis_not_met_reported(self):
        rng = np.random.default_rng(36)
        a = composed(rng, 8, 6, [5.0, 4.0, 1.0, 0.8, 0.5, 0.3])
        e = rng.standard_normal((8, 6))
        e *= 3.0 / op_norm(e)  # gap <= 2 ||E||
        res = check_spectral_map_perturbation(a, e, lambda s: s, k=2,
                                              holder=self.HOLDER,
                                              window=self.WINDOW, gap=1.0)
        assert res.status == "hypothesis_not_met"
        assert math.isnan(res.lhs) and math.isnan(res.rhs)

    def test_violated_bound_reports_fails(self):
        """A map whose claimed constants are a lie trips the check."""
        rng = np.random.default_rng(37)
        a = composed(rng, 8, 6, [5.0, 4.0, 1.0, 0.8, 0.5, 0.3])
        e = rng.standard_normal((8, 6))
        e *= 0.4 / op_norm(e)
        sk = np.linalg.svd(a, compute_uv=False)[1]
        res = check_spectral_map_perturbation(
            a, e, lambda s: 50.0 * (s - sk), k=2, holder=(1e-9, 1.0),
            window=self.WINDOW, gap=1.0)
        assert res.status == "fails"
