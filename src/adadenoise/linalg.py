"""Dense-matrix primitives shared by the rest of the package.

Matrices are plain 2-D float64 numpy arrays.  Every public entry point
rejects NaN/Inf so that garbage never propagates into the spectral
pipeline.

`gram_svd` takes the singular values of a matrix from the Gram matrix
on the short side, in one call: a count of the values above a bound,
the top few values with the singular vectors of the nonzero ones, and
a function that takes all values later; the spectral step and
`op_norm` both call it.  Its partial symmetric eigensolver reaches the
LAPACK that numpy's wheels bundle (an ILP64 OpenBLAS whose LAPACKE
symbols carry a ``scipy_`` prefix and a ``64_`` suffix) through
`ctypes`, so it needs no dependency beyond numpy and loads no new
library.  Where those symbols do not resolve (numpy built
on Accelerate or MKL, for example) it falls back to `np.linalg.eigh`.
"""

from __future__ import annotations

import ctypes
import functools
import math
from types import SimpleNamespace

import numpy as np

__all__ = [
    "op_norm",
    "subspace_overlap",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a finite 2-D float64 array."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


_COL_MAJOR = 102  # LAPACKE's LAPACK_COL_MAJOR


@functools.cache
def _numpy_linalg() -> ctypes.CDLL | None:
    """The handle of numpy's own linalg extension, whose symbol lookup
    also searches the libraries it links (the bundled OpenBLAS), or None
    where it cannot be opened.  Opened once, on first use."""
    try:
        from numpy.linalg import _umath_linalg
        return ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None


def set_blas_threads(count: int | None) -> int | None:
    """Set the thread count of the OpenBLAS that numpy's wheels bundle, for
    this process only, and return the count it had.

    Threaded BLAS sums in an order that depends on the thread count, so
    results differ in the last bits between counts.  None for `count`
    changes nothing; the return is None, and nothing is changed, where
    numpy's BLAS does not export the OpenBLAS thread controls.
    """
    lib = _numpy_linalg()
    try:
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except AttributeError:  # lib is None, or not this OpenBLAS
        return None
    get.restype = ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    old = get()
    if count is not None:
        put(count)
    return old


@functools.cache
def _lapack() -> SimpleNamespace | None:
    """The LAPACKE routines `gram_svd` calls, or None where numpy's
    LAPACK does not export them.  Resolved once, on first use."""
    lib = _numpy_linalg()
    try:
        fns = SimpleNamespace(**{
            name: getattr(lib, f"scipy_LAPACKE_{name}64_")
            for name in ("dsytrd", "dstebz", "dsterf", "dstemr", "dormtr")})
    except AttributeError:  # lib is None, or not this LAPACK
        return None
    i64, char, layout = ctypes.c_int64, ctypes.c_char, ctypes.c_int
    real = ctypes.c_double
    i64_ptr = ctypes.POINTER(i64)
    vec = np.ctypeslib.ndpointer(np.float64, ndim=1,
                                 flags="C_CONTIGUOUS,WRITEABLE")
    mat = np.ctypeslib.ndpointer(np.float64, ndim=2,
                                 flags="F_CONTIGUOUS,WRITEABLE")
    ivec = np.ctypeslib.ndpointer(np.int64, ndim=1,
                                  flags="C_CONTIGUOUS,WRITEABLE")
    fns.dsytrd.argtypes = [layout, char, i64, mat, i64, vec, vec, vec]
    fns.dstebz.argtypes = [char, char, i64, real, real, i64, i64, real, vec,
                           vec, i64_ptr, i64_ptr, vec, ivec, ivec]
    fns.dsterf.argtypes = [i64, vec, vec]
    fns.dstemr.argtypes = [layout, char, char, i64, vec, vec, real, real, i64,
                           i64, i64_ptr, vec, mat, i64, i64, ivec, i64_ptr]
    fns.dormtr.argtypes = [layout, char, char, char, i64, i64, mat, i64, vec,
                           mat, i64]
    for fn in vars(fns).values():
        fn.restype = i64
    return fns


def _check(info: int, routine: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed "
                                    f"(info = {info})")


def _tridiagonal_eigen(lapack: SimpleNamespace, g: np.ndarray, t: float,
                       k: int):
    """Partial eigendecomposition of `g` through LAPACK.  `dsytrd`
    reduces `g` to tridiagonal form T in place; `dstebz` counts T's
    eigenvalues >= t (a Sturm count, no values formed); `dstemr` (MRRR)
    takes the top K = min(n, max(count, k)) eigenvalues and eigenvectors
    of T, and `dormtr` maps the vectors back.  Returns
    ``(count, lam, w, values)``: the K values descending, their vectors
    in that order, and ``values()``, which takes all eigenvalues
    (`dsterf`), descending, from T's diagonal and off-diagonal only,
    never `g`."""
    n = g.shape[0]
    a = g.T  # g is symmetric: its transpose is the column-major view
    d = np.empty(n)
    e = np.zeros(n)  # n - 1 off-diagonals; dstemr's workspace last
    tau = np.empty(max(n - 1, 1))
    _check(lapack.dsytrd(_COL_MAJOR, b"L", n, a, n, d, e, tau), "dsytrd")
    found, blocks = ctypes.c_int64(0), ctypes.c_int64(0)
    # range "V" counts the half-open (vl, vu]: vl one step below t keeps t
    # itself.  An infinite tolerance stops the bisection at the first
    # Sturm counts, which is all that is read.
    _check(lapack.dstebz(
        b"V", b"B", n, np.nextafter(t, -np.inf), np.inf, 0, 0, np.inf, d, e,
        ctypes.byref(found), ctypes.byref(blocks), np.empty(n),
        np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)), "dstebz")
    count = found.value
    k = min(n, max(count, k))
    z = np.empty((n, k), order="F")
    lam = np.empty(n)
    if k > 0:
        found, tryrac = ctypes.c_int64(0), ctypes.c_int64(0)
        # dstemr overwrites d and e; range "I" takes eigenvalues n-k+1..n
        # of the ascending order
        _check(lapack.dstemr(
            _COL_MAJOR, b"V", b"I", n, d.copy(), e.copy(), 0.0, 0.0,
            n - k + 1, n, ctypes.byref(found), lam, z, n, k,
            np.empty(2 * k, dtype=np.int64), ctypes.byref(tryrac)), "dstemr")
        if found.value != k:
            raise np.linalg.LinAlgError(f"LAPACK dstemr found {found.value} "
                                        f"of {k} eigenvectors")
        _check(lapack.dormtr(_COL_MAJOR, b"L", b"L", b"N", n, k, a, n, tau,
                             z, n), "dormtr")

    def values() -> np.ndarray:
        lam = d.copy()
        _check(lapack.dsterf(n, lam, e.copy()), "dsterf")
        return lam[::-1]

    return count, lam[:k][::-1], z[:, ::-1], values


def _dense_eigen(g: np.ndarray, t: float, k: int):
    """The same ``(count, lam, w, values)`` as `_tridiagonal_eigen`, all
    read off one `np.linalg.eigh`."""
    lam, w = np.linalg.eigh(g)
    lam, w = lam[::-1], w[:, ::-1]
    count = int(np.count_nonzero(lam >= t))
    k = min(lam.size, max(count, k))
    return count, lam[:k], w[:, :k], lambda: lam


def gram_svd(a: np.ndarray, t: float, k: int):
    """Singular values and vectors of a validated matrix through its
    Gram matrix on the short side, only as many as asked for.

    Returns ``(count, s, u, v, values)``:

    - ``count`` is the number of singular values >= t, by a Sturm count
      on the Gram matrix's tridiagonal form against t^2, with no values
      computed.  A value within rounding of t may fall on either side,
      as it may when a computed value is compared with t; t = inf counts
      0;
    - ``s`` holds the K = min(m, n, max(count, k)) leading singular
      values, descending, from the one partial solve that forms their
      vectors;
    - ``u`` (m x j) and ``v`` (n x j) are the leading singular vectors of
      the j = count_nonzero(s) nonzero values;
    - ``values()`` returns all min(m, n) values, descending.  It holds
      only the tridiagonal form's diagonal and off-diagonal, not the
      matrix, so it can be kept and called later.

    Values whose squares fall below the numerical-rank cut-off
    s_1^2 * max(m, n) * eps read 0, in `s` with s_1 from its own values.
    The short-side factor is the top j eigenvectors of the Gram matrix;
    the long-side one is the matrix applied to them, divided by s_j.
    Uses numpy's bundled LAPACK (one tridiagonal reduction) when its
    symbols resolve, and `np.linalg.eigh`, which forms everything at
    once, otherwise.  Either way a failed decomposition raises
    `np.linalg.LinAlgError`: from this call, or for the full spectrum
    from ``values()``.

    The solve runs at unit scale: with 2^e the power of two `np.frexp`
    reads off the largest |entry|, the Gram matrix is formed from a 2^-e
    copy of the short side, the count is taken against t * 2^-e and the
    values are scaled back by 2^e.  These scalings are exact on normal
    numbers, so no scale over- or underflows a square; a top singular
    value above the largest double is a ValueError.  Squaring costs
    accuracy far below the top: each eigenvalue carries an absolute
    error of about eps * s_1^2, so s_j agrees with the SVD's to about
    eps * s_1^2 / s_j, and column j of the long-side factor is
    orthonormal to the others to about eps * (s_1 / s_j)^2.
    """
    m, n = a.shape
    e = int(np.frexp(max(a.max(), -a.min()))[1])
    # in the short-side view's layout (F-ordered for a tall C-ordered `a`):
    # the Gram product's BLAS path, and so its last bits, follow the layout
    short = np.ldexp(a if m <= n else a.T, -e)
    gram = np.matmul(short, short.T)
    # t at unit scale, or inf past the largest double: no value reaches it
    t = math.ldexp(t, -e) if math.frexp(t)[1] - e <= 1024 else math.inf
    lapack = _lapack()
    count, lam, w, values = (
        _dense_eigen(gram, t * t, k) if lapack is None
        else _tridiagonal_eigen(lapack, gram, t * t, k))

    def roots(lam: np.ndarray) -> np.ndarray:
        s = np.zeros_like(lam)
        if lam.size:
            # 0 when lam[0] <= 0: an all-zero input has no factors
            tol = max(lam[0], 0.0) * max(m, n) * np.finfo(np.float64).eps
            rank = int(np.count_nonzero(lam > tol))
            s[:rank] = np.sqrt(lam[:rank])
        return s

    def unscale(s: np.ndarray) -> np.ndarray:
        """Unit-scale values `s` in the input's units: times 2**e, exact."""
        if s.size and np.frexp(s[0])[1] + e > 1024:
            raise ValueError("top singular value exceeds the largest double")
        return np.ldexp(s, e)

    s = roots(lam)
    w = w[:, :np.count_nonzero(s)]
    long = short.T @ w
    long /= s[:w.shape[1]]
    u, v = (w, long) if m <= n else (long, w)
    return count, unscale(s), u, v, lambda: unscale(roots(values()))


def op_norm(a) -> float:
    """Operator (spectral) norm: the top singular value of `gram_svd`, at
    unit scale; ValueError when it exceeds the largest double."""
    return float(gram_svd(as_matrix(a), math.inf, 1)[1][0])


def subspace_overlap(a, b) -> float:
    """Smallest singular value of ``a.T @ b`` for orthonormal column blocks.

    This measures the worst-case cosine of principal angles between the two
    column spans; it is invariant to column sign flips and to replacing
    either block by a rotated basis of the same span.

    Both arguments must have orthonormal columns (checked to 1e-8) and the
    same number of columns.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column-count mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"row-count mismatch: {a.shape[0]} vs {b.shape[0]}")
    for name, m in (("a", a), ("b", b)):
        gram = m.T @ m
        resid = np.linalg.norm(gram - np.eye(m.shape[1]), 2)
        if resid > 1e-8:
            raise ValueError(f"{name} does not have orthonormal columns "
                             f"(residual {resid:.3e})")
    s = np.linalg.svd(a.T @ b, compute_uv=False)
    return float(s[-1])
