"""Dense-matrix primitives shared by the rest of the package.

Matrices are plain 2-D float64 numpy arrays.  Every public entry point
rejects NaN/Inf so that garbage never propagates into the spectral
pipeline.

`gram_svd` takes the singular values of a matrix from the Gram matrix
on the short side, each part on request: a count of the values above a
bound, the top few values with their singular vectors, or all values;
the spectral step and `op_norm` both call it.  Its partial symmetric
eigensolver reaches the LAPACK that numpy's wheels bundle (an ILP64
OpenBLAS whose LAPACKE symbols carry a ``scipy_`` prefix and a ``64_``
suffix) through `ctypes`, so it needs no dependency beyond numpy and
loads no new library.  Where those symbols do not resolve (numpy built
on Accelerate or MKL, for example) it falls back to `np.linalg.eigh`.
"""

from __future__ import annotations

import ctypes
import functools
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


def _tridiagonal_eigen(lapack: SimpleNamespace, g: np.ndarray):
    """Eigendecomposition of `g` through LAPACK, each part on request.
    `dsytrd` reduces `g` to tridiagonal form T in place, once; then
    ``count(t)`` is a Sturm count of T's eigenvalues >= t (`dstebz`),
    ``top(k)`` has `dstemr` (MRRR) take T's top k eigenvalues and
    eigenvectors, with ``vectors(j)`` mapping the leading j of them back
    through `dormtr`, and ``values()`` takes all eigenvalues (`dsterf`).
    `values` holds only T's diagonal and off-diagonal, never `g`.
    Returns ``(count, top, values)``; values come in descending order."""
    n = g.shape[0]
    a = g.T  # g is symmetric: its transpose is the column-major view
    d = np.empty(n)
    e = np.zeros(n)  # n - 1 off-diagonals; dstemr's workspace last
    tau = np.empty(max(n - 1, 1))
    _check(lapack.dsytrd(_COL_MAJOR, b"L", n, a, n, d, e, tau), "dsytrd")

    def count(t: float) -> int:
        found, blocks = ctypes.c_int64(0), ctypes.c_int64(0)
        # range "V" counts the half-open (vl, vu]: vl one step below t
        # keeps t itself.  An infinite tolerance stops the bisection at
        # the first Sturm counts, which is all that is read.
        _check(lapack.dstebz(
            b"V", b"B", n, np.nextafter(t, -np.inf), np.inf, 0, 0, np.inf,
            d, e, ctypes.byref(found), ctypes.byref(blocks), np.empty(n),
            np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)),
            "dstebz")
        return found.value

    def top(k: int):
        z = np.empty((n, k), order="F")
        lam = np.empty(n)
        if k > 0:
            found, tryrac = ctypes.c_int64(0), ctypes.c_int64(0)
            # dstemr overwrites d and e; range "I" takes eigenvalues
            # n-k+1..n of the ascending order
            _check(lapack.dstemr(
                _COL_MAJOR, b"V", b"I", n, d.copy(), e.copy(), 0.0, 0.0,
                n - k + 1, n, ctypes.byref(found), lam, z, n, k,
                np.empty(2 * k, dtype=np.int64), ctypes.byref(tryrac)),
                "dstemr")
            if found.value != k:
                raise np.linalg.LinAlgError(f"LAPACK dstemr found "
                                            f"{found.value} of {k} "
                                            f"eigenvectors")

        def vectors(j: int) -> np.ndarray:
            w = z[:, k - j:].copy(order="F")  # the top j, still ascending
            if j > 0:
                _check(lapack.dormtr(_COL_MAJOR, b"L", b"L", b"N", n, j, a,
                                     n, tau, w, n), "dormtr")
            return w[:, ::-1]

        return lam[:k][::-1], vectors

    def values() -> np.ndarray:
        lam = d.copy()
        _check(lapack.dsterf(n, lam, e.copy()), "dsterf")
        return lam[::-1]

    return count, top, values


def _dense_eigen(g: np.ndarray):
    """Eigendecomposition of `g` through `np.linalg.eigh`, all of it at
    once: the same ``(count, top, values)`` as `_tridiagonal_eigen`, each
    reading or slicing the one result."""
    lam, w = np.linalg.eigh(g)
    lam, w = lam[::-1], w[:, ::-1]
    return (lambda t: int(np.count_nonzero(lam >= t)),
            lambda k: (lam[:k], lambda j: w[:, :j]),
            lambda: lam)


def gram_svd(a: np.ndarray):
    """Singular values of a validated matrix through its Gram matrix on
    the short side, each part taken only when asked for.

    Returns ``(count, top, values)``:

    - ``count(t)`` is the number of singular values >= t, by a Sturm
      count on the Gram matrix's tridiagonal form against t^2, with no
      values computed.  A value within rounding of t may fall on either
      side, as it may when a computed value is compared with t;
    - ``top(k)``, for 0 <= k <= min(m, n), returns ``(s, factors)``: the
      k leading singular values, descending, and ``factors(j)``, which
      for 0 <= j <= count_nonzero(s) returns the leading m x j and n x j
      singular vectors.  One partial solve gives the values and the
      vectors; only the j asked-for ones are mapped back;
    - ``values()`` returns all min(m, n) values, descending.  It holds
      only the tridiagonal form's diagonal and off-diagonal, not the
      matrix, so it can be kept and called later.

    Values whose squares fall below the numerical-rank cut-off
    s_1^2 * max(m, n) * eps read 0, in `top` with s_1 from its own
    values.  The short-side factor is the top j eigenvectors of the Gram
    matrix; the long-side one is the matrix applied to them, divided by
    s_j.  Uses numpy's bundled LAPACK (one tridiagonal reduction) when
    its symbols resolve, and `np.linalg.eigh`, which forms everything
    at once, otherwise.  Either way a failed decomposition raises
    `np.linalg.LinAlgError`, from the call that needed it.

    Squaring the matrix squares its spectrum.  Each eigenvalue carries
    an absolute error of about eps * s_1^2, so s_j agrees with the SVD's
    to about eps * s_1^2 / s_j absolute: to the last digits near the top,
    less closely far below it.  Entries so large that their squares
    overflow are a ValueError, and so are nonzero entries so small that
    they underflow: the rule is that the Gram matrix's largest diagonal
    entry (the largest sum of squares along the long side) is below
    max(m, n) times the smallest normal double, which holds whenever
    every square is subnormal or zero.  An all-zero matrix is not an
    error; its rank is 0.  Column j of the long-side factor is
    orthonormal to the others to about eps * (s_1 / s_j)^2.
    """
    m, n = a.shape
    short = a if m <= n else a.T
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        gram = short @ short.T
    # finite entries can overflow or underflow when squared, and no
    # eigensolver says so
    if not np.isfinite(gram).all():
        raise ValueError("matrix entries are too large to square: the "
                         "Gram matrix overflows")
    if (gram.diagonal().max() < max(m, n) * np.finfo(np.float64).tiny
            and np.any(short)):
        raise ValueError("matrix entries are too small to square: the "
                         "Gram matrix underflows")
    lapack = _lapack()
    count_eig, top_eig, values_eig = (
        _dense_eigen(gram) if lapack is None
        else _tridiagonal_eigen(lapack, gram))

    def roots(lam: np.ndarray) -> np.ndarray:
        s = np.zeros_like(lam)
        if lam.size:
            # 0 when lam[0] <= 0: an all-zero input has no factors
            tol = max(lam[0], 0.0) * max(m, n) * np.finfo(np.float64).eps
            rank = int(np.count_nonzero(lam > tol))
            s[:rank] = np.sqrt(lam[:rank])
        return s

    def count(t: float) -> int:
        return count_eig(t * t)

    def top(k: int):
        if not 0 <= k <= min(m, n):
            raise ValueError(f"asked for the top {k} of {min(m, n)} "
                             f"singular values")
        lam, vectors = top_eig(k)
        s = roots(lam)
        rank = int(np.count_nonzero(s))

        def factors(j: int) -> tuple[np.ndarray, np.ndarray]:
            if not 0 <= j <= rank:
                raise ValueError(f"asked for {j} singular vectors of a "
                                 f"rank-{rank} matrix")
            w = vectors(j)
            long = short.T @ w
            long /= s[:j]
            return (w, long) if m <= n else (long, w)

        return s, factors

    def values() -> np.ndarray:
        return roots(values_eig())

    return count, top, values


def op_norm(a) -> float:
    """Operator (spectral) norm: the largest singular value, taken as the
    root of the top eigenvalue of the Gram matrix on the short side
    (`gram_svd`, whose over- and underflow errors it raises)."""
    _, top, _ = gram_svd(as_matrix(a))
    s, _ = top(1)
    return float(s[0])


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
