"""Dense-matrix primitives shared by the rest of the package.

Matrices are plain 2-D float64 numpy arrays.  Every public entry point
rejects NaN/Inf so that garbage never propagates into the spectral
pipeline.

`gram_eigen` is the spectral step's partial symmetric eigensolver.  It
reaches the LAPACK that numpy's wheels bundle (an ILP64 OpenBLAS whose
LAPACKE symbols carry a ``scipy_`` prefix and a ``64_`` suffix) through
`ctypes`, so it needs no dependency beyond numpy and loads no new
library.  Where those symbols do not resolve (numpy built on Accelerate
or MKL, for example) it falls back to `np.linalg.eigh`.
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
    "read_matrix_csv",
    "write_matrix_csv",
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
    """The LAPACKE routines `gram_eigen` calls, or None where numpy's
    LAPACK does not export them.  Resolved once, on first use."""
    lib = _numpy_linalg()
    try:
        fns = SimpleNamespace(**{
            name: getattr(lib, f"scipy_LAPACKE_{name}64_")
            for name in ("dsytrd", "dsterf", "dstemr", "dormtr")})
    except AttributeError:  # lib is None, or not this LAPACK
        return None
    i64, char, layout = ctypes.c_int64, ctypes.c_char, ctypes.c_int
    i64_ptr = ctypes.POINTER(i64)
    vec = np.ctypeslib.ndpointer(np.float64, ndim=1,
                                 flags="C_CONTIGUOUS,WRITEABLE")
    mat = np.ctypeslib.ndpointer(np.float64, ndim=2,
                                 flags="F_CONTIGUOUS,WRITEABLE")
    ivec = np.ctypeslib.ndpointer(np.int64, ndim=1,
                                  flags="C_CONTIGUOUS,WRITEABLE")
    fns.dsytrd.argtypes = [layout, char, i64, mat, i64, vec, vec, vec]
    fns.dsterf.argtypes = [i64, vec, vec]
    fns.dstemr.argtypes = [layout, char, char, i64, vec, vec, ctypes.c_double,
                           ctypes.c_double, i64, i64, i64_ptr, vec, mat, i64,
                           i64, ivec, i64_ptr]
    fns.dormtr.argtypes = [layout, char, char, char, i64, i64, mat, i64, vec,
                           mat, i64]
    for fn in vars(fns).values():
        fn.restype = i64
    return fns


def _check(info: int, routine: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed "
                                    f"(info = {info})")


class _GramEigen:
    """What `gram_eigen` returns: `values` and ``vectors(k)``."""

    values: np.ndarray

    def vectors(self, k: int) -> np.ndarray:
        n = self.values.size
        if not 0 <= k <= n:
            raise ValueError(f"asked for {k} of {n} eigenvectors")
        return self._top(k)

    def _top(self, k: int) -> np.ndarray:
        raise NotImplementedError


class _Tridiagonal(_GramEigen):
    """`gram_eigen` through LAPACK.  `dsytrd` reduces the matrix to
    tridiagonal form in place, `dsterf` takes all its eigenvalues, and on
    request `dstemr` (MRRR) takes the top k eigenvectors of the
    tridiagonal matrix and `dormtr` maps them back."""

    def __init__(self, lapack: SimpleNamespace, g: np.ndarray):
        n = g.shape[0]
        self._lapack = lapack
        self._a = g.T  # g is symmetric: its transpose is the column-major view
        self._d = np.empty(n)
        self._e = np.zeros(n)  # n - 1 off-diagonals; dstemr's workspace last
        self._tau = np.empty(max(n - 1, 1))
        _check(lapack.dsytrd(_COL_MAJOR, b"L", n, self._a, n, self._d,
                             self._e, self._tau), "dsytrd")
        lam = self._d.copy()
        _check(lapack.dsterf(n, lam, self._e.copy()), "dsterf")
        self.values = lam[::-1]

    def _top(self, k: int) -> np.ndarray:
        n = self._d.size
        z = np.empty((n, k), order="F")
        if k == 0:
            return z
        found, tryrac = ctypes.c_int64(0), ctypes.c_int64(0)
        # dstemr overwrites d and e; range "I" takes eigenvalues n-k+1..n
        # of the ascending order
        _check(self._lapack.dstemr(
            _COL_MAJOR, b"V", b"I", n, self._d.copy(), self._e.copy(), 0.0,
            0.0, n - k + 1, n, ctypes.byref(found), np.empty(n), z, n, k,
            np.empty(2 * k, dtype=np.int64), ctypes.byref(tryrac)), "dstemr")
        if found.value != k:
            raise np.linalg.LinAlgError(f"LAPACK dstemr found {found.value} "
                                        f"of {k} eigenvectors")
        _check(self._lapack.dormtr(_COL_MAJOR, b"L", b"L", b"N", n, k,
                                   self._a, n, self._tau, z, n), "dormtr")
        return z[:, ::-1]


class _Dense(_GramEigen):
    """`gram_eigen` through `np.linalg.eigh`: every vector is formed and
    `vectors` slices."""

    def __init__(self, g: np.ndarray):
        lam, self._w = np.linalg.eigh(g)
        self.values = lam[::-1]

    def _top(self, k: int) -> np.ndarray:
        return self._w[:, ::-1][:, :k]


def gram_eigen(g: np.ndarray):
    """Eigendecomposition of a symmetric matrix, values first, vectors on
    request.

    Returns an object whose `values` holds all n eigenvalues in
    descending order and whose ``vectors(k)`` returns the n x k matrix of
    the top k orthonormal eigenvectors, in the same order.  `g` must be a
    C-contiguous, writable, symmetric n x n float64 array (one triangle
    is read), and it is overwritten: the caller hands it over.  Uses
    numpy's bundled LAPACK (one tridiagonal reduction; the values by
    `dsterf`, only the k asked-for vectors by `dstemr`) when its symbols
    resolve, and `np.linalg.eigh` otherwise.  Either way a failed
    decomposition raises `np.linalg.LinAlgError`.
    """
    if not (g.ndim == 2 and g.shape[0] == g.shape[1] and g.size
            and g.dtype == np.float64 and g.flags.c_contiguous
            and g.flags.writeable):
        raise ValueError("gram_eigen needs a writable, C-contiguous, "
                         "non-empty square float64 matrix")
    lapack = _lapack()
    return _Dense(g) if lapack is None else _Tridiagonal(lapack, g)


def op_norm(a) -> float:
    """Operator (spectral) norm: the largest singular value, taken as the
    root of the top eigenvalue of the Gram matrix on the short side."""
    a = as_matrix(a)
    short = a if a.shape[0] <= a.shape[1] else a.T
    return math.sqrt(max(float(np.linalg.eigvalsh(short @ short.T)[-1]), 0.0))


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


def write_matrix_csv(a, path) -> None:
    """Write a matrix as headerless CSV rows, 17 significant digits."""
    a = as_matrix(a)
    # one printf-style format per row converts every number at C level;
    # "%.17g" is the same conversion as format(x, ".17g").  Rows are
    # converted one at a time, so no second copy of the matrix is held.
    fmt = ",".join(["%.17g"] * a.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        for row in a:
            fh.write(fmt % tuple(row.tolist()))


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix_csv`."""
    rows = []
    width = None
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = list(map(float, line.split(",")))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed row: "
                                     f"{exc}") from None
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise ValueError(f"{path}:{lineno}: ragged row "
                                     f"({len(row)} fields, expected {width})")
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a text file: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return as_matrix(np.array(rows, dtype=np.float64), str(path))
