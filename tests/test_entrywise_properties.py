"""Property tests of the entrywise step, `denoise_entrywise`.

The step sorts the entries once and bins them in sorted order, so the
noise density estimate, the score map, its gain and i_hat depend only on
the multiset of entries and on m n, and each entry of X* only on the
entry of Y it scores.  So relabelling the entries relabels X* the same
way, bit for bit, and leaves i_hat and the grand mean unchanged; an
input whose score map gain is not positive is rejected either way, with
the same message.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from adadenoise import Gaussian, GaussianMixture
from adadenoise.estimator import denoise_entrywise

PROPERTY = settings(max_examples=30, deadline=None, database=None,
                    derandomize=True)


@st.composite
def observations(draw):
    """A rank-1 signal of random strength plus mixture or Gaussian noise,
    at shapes from 2 x 2 to 200 x 40 either way round."""
    m, n = draw(st.sampled_from([(2, 2), (5, 7), (14, 9), (40, 40),
                                 (2, 60), (200, 31), (31, 200)])
                | st.tuples(st.integers(2, 40), st.integers(2, 40)))
    noise = draw(st.sampled_from([GaussianMixture(2.0), GaussianMixture(0.5),
                                  Gaussian(1.0), Gaussian(4.0)]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(m)
    v = rng.standard_normal(n)
    sigma = draw(st.floats(0.0, 4.0))
    signal = sigma * (m * n) ** 0.25 * np.outer(u / np.linalg.norm(u),
                                                v / np.linalg.norm(v))
    return signal + noise.sample(m, n, seed)


def entrywise(y):
    """`denoise_entrywise(y)` and None, or None and the message of the
    ValueError it raises on a gain that is not positive."""
    try:
        return denoise_entrywise(y), None
    except ValueError as exc:
        return None, str(exc)


@PROPERTY
@given(y=observations(), seed=st.integers(0, 2 ** 32 - 1))
def test_any_permutation_of_the_entries(y, seed):
    """Any permutation of Y's entries, within its shape, permutes X* the
    same way and leaves i_hat and the grand mean unchanged."""
    order = np.random.default_rng(seed).permutation(y.size)
    want, error = entrywise(y)
    got, got_error = entrywise(y.reshape(-1)[order].reshape(y.shape))
    assert got_error == error
    if error is None:
        x_star, i_hat, y_bar = want
        assert got[1:] == (i_hat, y_bar)
        np.testing.assert_array_equal(
            got[0], x_star.reshape(-1)[order].reshape(y.shape), strict=True)


@PROPERTY
@given(y=observations())
def test_transpose(y):
    """Y^T gives X*^T, i_hat and the grand mean of Y, whether it is passed
    as a view or as a contiguous copy."""
    want, error = entrywise(y)
    for flipped in (y.T, np.ascontiguousarray(y.T)):
        got, got_error = entrywise(flipped)
        assert got_error == error
        if error is None:
            x_star, i_hat, y_bar = want
            assert got[1:] == (i_hat, y_bar)
            np.testing.assert_array_equal(got[0], x_star.T, strict=True)
