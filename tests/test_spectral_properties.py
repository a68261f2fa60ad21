"""Property tests of the spectral step on both `gram_svd` backends.

The step reads three things off one decomposition: the count of values
at or above the threshold tau (k_hat), the top values (shrunk), and the
full spectrum (`sigma0`, taken on first read).  They must agree with
the one shrink rule applied to the full spectrum.  `gram_svd` solves at
unit scale, so scaling the input by a power of two scales every value
by it, bit for bit.  The step is called directly
(`estimator.spectral_estimate`), so that the threshold margin delta,
a constant of both estimators, can vary.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from adadenoise import linalg, shrink_known_sd
from adadenoise.estimator import spectral_estimate
from adadenoise.shrinkage import shrink_threshold

PROPERTY = settings(max_examples=40, deadline=None, database=None,
                    derandomize=True)
BACKENDS = pytest.mark.parametrize("backend", ["lapack", "eigh"])


@contextmanager
def on_backend(name):
    """Numpy's bundled LAPACK, or the `np.linalg.eigh` fallback forced by
    hiding it."""
    with pytest.MonkeyPatch.context() as patch:
        if name == "eigh":
            patch.setattr(linalg, "_lapack", lambda: None)
        elif linalg._lapack() is None:
            pytest.skip("numpy's LAPACK does not export the LAPACKE routines")
        yield


def spiked(rng, m, n, sigmas):
    """Unit Gaussian noise plus a planted signal with scaled singular
    values `sigmas` and Haar-like factors."""
    u, _ = np.linalg.qr(rng.standard_normal((m, len(sigmas))))
    v, _ = np.linalg.qr(rng.standard_normal((n, len(sigmas))))
    signal = (m * n) ** 0.25 * (u * np.asarray(sigmas)) @ v.T
    return signal + rng.standard_normal((m, n))


def check_spectral_step(backend, a, noise_sd, delta, factors):
    """k_hat counts the values of `sigma0` at or above tau, `sigma_shrunk`
    is the rule applied to `sigma0`, and the factors cover
    min(rho, max(k_hat, factors)) columns.  Inputs with a value within
    1e-12 relative of tau, where either side is right, are skipped.
    Returns the result."""
    with on_backend(backend):
        res = spectral_estimate(a, noise_sd, delta, factors)
        sigma0 = res.sigma0
    m, n = a.shape
    tau = shrink_threshold(noise_sd, delta, m / n)
    assume(not np.any(np.abs(sigma0 - tau) <= 1e-12 * tau))
    assert res.k_hat == np.count_nonzero(sigma0 >= tau)
    shrunk, _ = shrink_known_sd(sigma0, noise_sd, delta, m / n)
    # survivors are debiased from the solve's own values, which agree with
    # sigma0 to eps * (s_1 / s_j)^2 relative, the accuracy of a squared
    # spectrum (`linalg.gram_svd`); debiasing y = sigma0 / noise_sd to x
    # magnifies a relative error by its condition number
    # y^2 / (x^2 - x^-2), which grows without bound at the bulk edge (x = 1)
    y, x = sigma0 / noise_sd, shrunk / noise_sd
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(x > 0, y * y / (x * x - 1 / (x * x)), 1.0)
    spread = np.divide(sigma0[:1], sigma0, out=np.ones_like(sigma0),
                       where=sigma0 > 0)
    rtol = np.maximum(cond, 1.0) * (1e-13 + np.finfo(float).eps * spread ** 2)
    assert np.all(np.abs(res.sigma_shrunk - shrunk) <= rtol * shrunk)
    cols = min(np.count_nonzero(sigma0), max(res.k_hat, factors))
    assert res.u_hat.shape == (m, cols) and res.v_hat.shape == (n, cols)
    return res


@st.composite
def planted(draw, shapes=st.tuples(st.integers(1, 40), st.integers(1, 40)),
            exponents=st.integers(-60, 60)):
    """A rank-r signal of random strengths plus unit Gaussian noise, at a
    random scale 10^j, with a noise sd near the noise's own."""
    m, n = draw(shapes)
    r = draw(st.integers(0, min(m, n, 5)))
    sigmas = draw(st.lists(st.floats(0.5, 8.0), min_size=r, max_size=r))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(exponents)
    return (scale * spiked(rng, m, n, sigmas),
            scale * draw(st.floats(0.3, 3.0)))


DELTAS = st.sampled_from([0.0, 0.01, 0.2])


@BACKENDS
@PROPERTY
@given(case=planted(), delta=DELTAS, factors=st.integers(0, 4))
def test_random_shapes_and_scales(backend, case, delta, factors):
    a, noise_sd = case
    check_spectral_step(backend, a, noise_sd, delta, factors)


@BACKENDS
@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), delta=DELTAS)
@example(seed=109479, delta=0.0)
@example(seed=109479, delta=0.01)
@example(seed=109479, delta=0.2)
def test_more_kept_than_factors(backend, seed, delta):
    """A strong rank-5 signal with factors = 3: all 5 survive, so
    k_hat > factors.  The top noise values of a 30 x 50 matrix can sit
    above the bulk edge and survive too, at delta = 0."""
    a = spiked(np.random.default_rng(seed), 30, 50,
               np.linspace(12.0, 8.0, 5))
    res = check_spectral_step(backend, a, 1.0, delta, 3)
    tau = shrink_threshold(1.0, delta, 30 / 50)
    assert res.k_hat == 5 + np.count_nonzero(res.sigma0[5:] >= tau)


@BACKENDS
@PROPERTY
@given(m=st.integers(2, 30), n=st.integers(2, 30), r=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1), tiny=st.floats(1e-12, 1e-6),
       factors=st.integers(0, 6))
@example(m=4, n=3, r=3, seed=0, tiny=1e-6, factors=0)
def test_rank_deficient_with_tiny_noise_sd(backend, m, n, r, seed, tiny,
                                           factors):
    """Every nonzero value survives a tiny noise sd; none past the
    numerical rank does, and no factor is formed past it."""
    r = min(r, m, n)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    check_spectral_step(backend, a, tiny, 0.01, factors)


@BACKENDS
@PROPERTY
@given(case=planted(st.one_of(
    st.just((1, 1)),
    st.integers(1, 60).flatmap(lambda n: st.sampled_from([(2, n), (n, 2)])))),
    factors=st.integers(0, 3))
def test_one_by_one_and_two_row_inputs(backend, case, factors):
    a, noise_sd = case
    check_spectral_step(backend, a, noise_sd, 0.01, factors)


@BACKENDS
@PROPERTY
@given(m=st.integers(1, 12), n=st.integers(1, 12),
       noise_sd=st.floats(1e-100, 1e100), factors=st.integers(0, 3))
def test_all_zero_input(backend, m, n, noise_sd, factors):
    check_spectral_step(backend, np.zeros((m, n)), noise_sd, 0.01, factors)


def stays_normal(x, k):
    """Every nonzero entry of `x` is a normal double after scaling by
    2^k."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    x = x[x != 0]
    if x.size == 0:
        return True
    low, high = np.frexp([x.min(), x.max()])[1] + k
    return low > -1021 and high <= 1024


def assert_scaled(got, want, k):
    """`got` is `want` times 2^k, bit for bit."""
    np.testing.assert_array_equal(got, np.ldexp(want, k), strict=True)


@BACKENDS
@PROPERTY
@given(case=planted(exponents=st.just(0)),
       k=st.one_of(st.sampled_from([-1000, -401, 401, 1000]),
                   st.integers(-1000, 1000)),
       delta=DELTAS, factors=st.integers(0, 4))
def test_power_of_two_scaling(backend, case, k, delta, factors):
    """Scaling the input and the noise sd by 2^k leaves the count, k_hat
    and every vector bitwise unchanged, and scales every value and the
    estimate by 2^k bitwise, wherever those stay normal."""
    a, noise_sd = case
    m, n = a.shape
    t = shrink_threshold(noise_sd, delta, m / n) * (m * n) ** 0.25
    with on_backend(backend):
        count, s, u, v, values = linalg.gram_svd(a, t, factors)
        res = spectral_estimate(a, noise_sd, delta, factors)
        unit = values(), res.sigma0, res.sigma_shrunk, res.x_hat
        assume(all(stays_normal(x, k) for x in (a, noise_sd, s) + unit))
        got = linalg.gram_svd(np.ldexp(a, k), np.ldexp(t, k), factors)
        scaled = spectral_estimate(np.ldexp(a, k), np.ldexp(noise_sd, k),
                                   delta, factors)
        assert got[0] == count
        np.testing.assert_array_equal(got[2], u, strict=True)
        np.testing.assert_array_equal(got[3], v, strict=True)
        assert_scaled(got[1], s, k)
        assert_scaled(got[4](), unit[0], k)
        assert scaled.k_hat == res.k_hat
        np.testing.assert_array_equal(scaled.u_hat, res.u_hat, strict=True)
        np.testing.assert_array_equal(scaled.v_hat, res.v_hat, strict=True)
        for x, want in zip((scaled.sigma0, scaled.sigma_shrunk,
                            scaled.x_hat), unit[1:]):
            assert_scaled(x, want, k)
