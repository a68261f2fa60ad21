"""Property tests of the spectral step on both `gram_svd` backends.

The step reads three things off one decomposition: the count of values
at or above the threshold tau (k_hat), the top values (shrunk), and the
full spectrum (`sigma0`, taken on first read).  They must agree with
the one shrink rule applied to the full spectrum.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from adadenoise import baseline_estimate, linalg, shrink_known_sd
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
        res = baseline_estimate(a, noise_sd, delta, factors=factors)
        sigma0 = res.sigma0
    m, n = a.shape
    tau = shrink_threshold(noise_sd, delta, m / n)
    assume(not np.any(np.abs(sigma0 - tau) <= 1e-12 * tau))
    assert res.k_hat == np.count_nonzero(sigma0 >= tau)
    shrunk, _ = shrink_known_sd(sigma0, noise_sd, delta, m / n)
    np.testing.assert_allclose(res.sigma_shrunk, shrunk, rtol=1e-13, atol=0)
    cols = min(np.count_nonzero(sigma0), max(res.k_hat, factors))
    assert res.u_hat.shape == (m, cols) and res.v_hat.shape == (n, cols)
    return res


@st.composite
def planted(draw, shapes=st.tuples(st.integers(1, 40), st.integers(1, 40))):
    """A rank-r signal of random strengths plus unit Gaussian noise, at a
    random scale, with a noise sd near the noise's own."""
    m, n = draw(shapes)
    r = draw(st.integers(0, min(m, n, 5)))
    sigmas = draw(st.lists(st.floats(0.5, 8.0), min_size=r, max_size=r))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-60, 60))
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
def test_more_kept_than_factors(backend, seed, delta):
    """A strong rank-5 signal with factors = 3: k_hat = 5 > factors."""
    a = spiked(np.random.default_rng(seed), 30, 50,
               np.linspace(12.0, 8.0, 5))
    assert check_spectral_step(backend, a, 1.0, delta, 3).k_hat == 5


@BACKENDS
@PROPERTY
@given(m=st.integers(2, 30), n=st.integers(2, 30), r=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1), tiny=st.floats(1e-12, 1e-6),
       factors=st.integers(0, 6))
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
