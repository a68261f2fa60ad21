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

`write_matrix_csv` writes the bytes of ``"%.17g" % x`` for each entry,
most of them through an exact numpy kernel instead of one conversion per
number.
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
    short = np.ldexp(a if m <= n else a.T, -e)
    gram = short @ short.T
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


# Matrix CSV is written through a numpy kernel that gives the bytes of
# "%.17g" % x for every x whose 17-digit decimal exponent E lies in
# [-6, 15], where 10**(16 - E) is an exact double.  Blocks of at most
# _CSV_BLOCK entries bound its temporaries.
_CSV_BLOCK = 1 << 15
_U64 = np.uint64
_BYTES = 0x0101010101010101      # 0x01 in each byte of a word


def _split(a):
    """Veltkamp's split of doubles into a_hi + a_lo, 26 bits each."""
    hi = a * 134217729.0        # 2**27 + 1
    hi -= hi - a
    return hi, a - hi


# Each entry's text sits in a slot of four little-endian words, padded
# with NUL bytes that the writer drops.  Word 0 holds the sign in byte 0
# and, for -4 <= E <= -1, the "0.0..." prefix; words 1-3 hold the 17
# digits with the point inserted after the first P of them, then
# "e-05"/"e-06" in bytes 3-6 of word 3 and the separator in its byte 7.
@functools.cache
def _csv_tables() -> SimpleNamespace:
    """The kernel's constant tables, built on first use so that importing
    the package allocates nothing for them."""
    pow10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles
    pow10_hi, pow10_lo = _split(pow10)
    by_exponent = range(-6, 16)         # indexed by E + 6
    prefix = [("0." + "0" * (-e - 1)).rjust(7, "\0") if -4 <= e < 0 else ""
              for e in by_exponent]
    suffix = [f"\0\0\0e-0{-e}" if e < -4 else "" for e in by_exponent]
    return SimpleNamespace(
        pow10=pow10, pow10_hi=pow10_hi, pow10_lo=pow10_lo,
        low_bytes=np.array([(1 << 8 * b) - 1 for b in range(9)], np.uint64),
        word_start=np.array([[0], [8], [16]]),
        prefix=np.array([int.from_bytes(p.encode(), "little") << 8
                         for p in prefix], np.uint64),
        suffix=np.array([int.from_bytes(p.encode(), "little")
                         for p in suffix], np.uint64),
        # an entry the kernel does not take holds the conversion the
        # writer fills in
        fallback=np.array([int.from_bytes(b"%.17g", "little"), 0, 0, 0],
                          np.uint64))


def _scaled(a, e):
    """a * 10**(16 - e) as p + err exactly: Dekker's two-product (Numer.
    Math. 18, 1971), exact for these operands since nothing over- or
    underflows."""
    t = _csv_tables()
    k = 16 - e
    s_hi, s_lo = t.pow10_hi[k], t.pow10_lo[k]
    a_hi, a_lo = _split(a)
    p = a * t.pow10[k]
    err = a_hi * s_hi
    err -= p
    err += a_hi * s_lo
    err += a_lo * s_hi
    err += a_lo * s_lo
    return p, err


def _misscaled(p, err, e):
    """Where the exact p + err is below 10**16 or at least 10**17, and
    where that puts the exponent e outside [-6, 15]."""
    low = (p < 1e16) | ((p == 1e16) & (err < 0))
    high = (p > 1e17) | ((p == 1e17) & (err >= 0))
    return low, high, (low & (e == -6)) | (high & (e == 15))


def _decimal17(a):
    """17 significant digits of each a in [1e-7, 1e16): ``(d, e, ok)``
    with 10**16 <= d < 10**17 the integer of the digits, e the decimal
    exponent %.17g prints, and ok False where e is outside [-6, 15].

    e starts at floor(log10(a)) and moves until the exact product
    a * 10**(16 - e) lies in [10**16, 10**17); the exponent is judged on
    that product, before rounding.  Its rounded part p is then an even
    integer >= 2**53, so p + rint(err) rounds the product half to even,
    as printf does.  A product that rounds up to 10**17 carries into e.
    """
    e = np.log10(a)
    np.floor(e, out=e)
    e = np.clip(e, -6, 15).astype(np.int64)
    p, err = _scaled(a, e)
    low, high, stuck = _misscaled(p, err, e)
    ok = ~stuck
    todo = np.flatnonzero((low | high) & ok)
    step = np.where(high[todo], 1, -1)
    while todo.size:
        e[todo] += step
        p[todo], err[todo] = pt, et = _scaled(a[todo], e[todo])
        low, high, stuck = _misscaled(pt, et, e[todo])
        ok[todo[stuck]] = False
        move = (low | high) & ~stuck
        todo, step = todo[move], np.where(high[move], 1, -1)
    d = p.astype(np.int64)
    d += np.rint(err).astype(np.int64)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    return d, e, ok


def _digits8(v) -> None:
    """In place: each v < 10**8 becomes its 8 decimal digits, one per
    byte as values 0-9, the leading digit in the lowest byte.  Each step
    halves the lanes of the word with a multiply-shift division that is
    exact for the lane's range."""
    q = v // _U64(10000)
    v -= q * _U64(10000)
    v <<= _U64(32)
    v |= q
    q = v * _U64(10486)              # v // 100 in each 32-bit lane
    q >>= _U64(20)
    q &= _U64(0x0000007F0000007F)
    v -= q * _U64(100)
    v <<= _U64(16)
    v |= q
    q = v * _U64(103)                # v // 10 in each 16-bit lane
    q >>= _U64(10)
    q &= _U64(0x000F000F000F000F)
    v -= q * _U64(10)
    v <<= _U64(8)
    v |= q


def _format17(x: np.ndarray):
    """Format a 1-D block of finite doubles as ``(slots, fallback)``.

    ``slots`` is an (n, 4) array of little-endian words whose bytes, with
    NUL removed, give ``"%.17g" % x[i]`` for each entry not flagged in
    ``fallback`` (separators left out).  A flagged entry -- nonzero with
    E outside [-6, 15], which includes every |x| < 1e-6 and >= 1e16 --
    holds ``%.17g`` itself.
    """
    # temporaries are dropped once spent and updated in place: at this
    # size, touching fresh pages costs about as much as the arithmetic
    t = _csv_tables()
    a = np.abs(x)
    ok = (a >= 1e-7) & (a < 1e16)
    zero = a == 0
    a[~ok] = 1.0
    d, e, in_window = _decimal17(a)
    del a
    ok &= in_window
    blank = ~ok | zero          # written as 0 with E = 0: zeros print "0"
    ok |= zero
    d[blank] = 0
    e[blank] = 0
    d = d.view(np.uint64)
    digits = np.empty((3, x.size), np.uint64)     # 8 + 8 + 1 digits
    np.floor_divide(d, _U64(10 ** 9), out=digits[0])
    np.floor_divide(d, _U64(10), out=digits[1])
    digits[1] %= _U64(10 ** 8)
    np.remainder(d, _U64(10), out=digits[2])
    del d
    _digits8(digits[:2])
    # keep each digit up to the last nonzero one: a byte is nonzero iff
    # adding 0x7F sets its top bit; then smear that bit to lower bytes
    keep = digits + _U64(0x7F * _BYTES)
    keep &= _U64(0x80 * _BYTES)
    for shift in (8, 16, 32):
        keep |= keep >> _U64(shift)
    keep >>= _U64(7)
    keep *= _U64(0xFF)
    keep[1][keep[2] != 0] = _U64(2 ** 64 - 1)
    keep[0][keep[1] != 0] = _U64(2 ** 64 - 1)
    # fixed notation has E + 1 integer digits, exponent notation one; the
    # integer digits are all kept and the rest move up a byte for the point
    point = np.where(e < -4, 1, np.maximum(e + 1, 0))
    low = t.low_bytes[np.clip(point - t.word_start, 0, 8)]
    keep |= low
    digits += _U64(ord("0") * _BYTES)
    digits &= keep
    del keep
    frac = ~low
    frac &= digits
    digits &= low
    del low
    digits[1:] |= frac[1:] << _U64(8)
    digits[1:] |= frac[:-1] >> _U64(56)
    digits[0] |= frac[0] << _U64(8)
    dot = (frac[0] | frac[1] | frac[2]) != 0
    del frac
    dot &= point > 0            # for E < 0 the point is in the prefix
    dot = dot * (_U64(ord(".")) << (_U64(8) * (point & 7).astype(np.uint64)))
    digits[point >> 3, np.arange(x.size)] |= dot
    slots = np.empty((x.size, 4), "<u8")
    slots[:, 0] = np.signbit(x) * _U64(ord("-"))
    slots[:, 0] |= t.prefix[e + 6]
    slots[:, 1:] = digits.T
    slots[:, 3] |= t.suffix[e + 6]
    fallback = ~ok
    slots[fallback] = t.fallback
    return slots, fallback


def write_matrix_csv(a, path) -> None:
    """Write a matrix as headerless CSV rows, each entry as ``"%.17g" % x``:
    up to 17 significant digits (``%g`` strips trailing zeros), which
    read back to the same double.

    A numpy kernel (`_format17`) writes the bytes of ``%.17g`` for every
    entry whose decimal exponent E lies in [-6, 15]: there 10**(16 - E)
    is an exact double, Dekker's two-product gives x * 10**(16 - E)
    exactly, and rounding its error half to even rounds the product as
    printf does.  E is judged on that exact product, before rounding, so
    fl(1e-6) = 9.99...95e-07 has E = -7.  Fixed notation is used for
    E >= -4 and ``d.ddde-0X`` below, as ``%g`` does.  Any other nonzero
    entry (|x| < 1e-6, |x| >= 1e16, subnormals) goes through the
    ``%.17g`` conversion itself, one ``bytes %`` call per block.
    Entries are formatted in blocks of at most 2**15.
    """
    a = as_matrix(a)
    m, n = a.shape
    rows, cols = max(1, _CSV_BLOCK // n), min(n, _CSV_BLOCK)
    comma, newline = _U64(ord(",") << 56), _U64(ord("\n") << 56)
    with open(path, "wb") as fh:
        for r0 in range(0, m, rows):
            for c0 in range(0, n, cols):
                block = a[r0:r0 + rows, c0:c0 + cols]
                x = block.ravel()
                slots, fallback = _format17(x)
                sep = slots.reshape(block.shape + (4,))[:, :, 3]
                sep |= comma
                if c0 + block.shape[1] == n:
                    sep[:, -1] ^= comma ^ newline
                text = slots.tobytes().translate(None, b"\0")
                if fallback.any():
                    text %= tuple(x[fallback].tolist())
                fh.write(text)


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
