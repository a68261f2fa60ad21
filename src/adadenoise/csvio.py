"""Matrix CSV files, written and read bit for bit.

`write_matrix_csv` writes the bytes of ``"%.17g" % x`` for each entry,
most of them through an exact numpy kernel instead of one conversion per
number.  `read_matrix_csv` is its mirror: an exact numpy kernel reads
each token of the form ``-?D+(.D+)?(e[+-]DD)?`` whose digits give an
integer M < 10**17 and whose value is M / 10**j with 0 <= j <= 22,
which covers every token the writer's kernel writes; ``float()`` reads
each other token, and a file that is not a plain grid, or that leaves
more than a quarter of its tokens to ``float()``, goes through a line
loop that is also the source of every error.
"""

from __future__ import annotations

import functools
import io
import math
from types import SimpleNamespace

import numpy as np

from .linalg import as_matrix

__all__ = [
    "read_matrix_csv",
    "write_matrix_csv",
]


# The writer formats blocks of at most _CSV_BLOCK entries, which bounds
# its temporaries.
_CSV_BLOCK = 1 << 15
# The reader parses blocks of at most _CSV_READ_BLOCK tokens, each from
# a window of 24 bytes; _CSV_PAD zero bytes before the file keep the
# first windows inside the buffer.
_CSV_READ_BLOCK = 1 << 13
_CSV_PAD = 24
# A token the kernel leaves to float() costs about twice as much in the
# reader's loop as in the line loop, and one the kernel takes about a
# third, so a block that leaves more than 1/_CSV_FLOAT_SHARE of its
# tokens to float() hands the file to the line loop.
_CSV_FLOAT_SHARE = 4
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
        word_index=np.arange(4)[:, None],
        # column k: the lanes before lane k of a 24-byte window
        lanes_below=np.array([[(1 << 8 * min(max(k - i, 0), 8)) - 1
                               for k in range(25)] for i in (0, 8, 16)],
                             np.uint64),
        prefix=np.array([int.from_bytes(p.encode(), "little") << 8
                         for p in prefix], np.uint64),
        suffix=np.array([int.from_bytes(p.encode(), "little")
                         for p in suffix], np.uint64),
        # an entry the kernel does not take holds the conversion the
        # writer fills in
        fallback=np.array([int.from_bytes(b"%.17g", "little"), 0, 0, 0],
                          np.uint64))


def _times_pow10(a, k):
    """a * 10**k, 0 <= k <= 22, as p + err exactly: Dekker's two-product
    (Numer. Math. 18, 1971), exact for the operands of the writer and the
    reader since nothing over- or underflows."""
    t = _csv_tables()
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
    p, err = _times_pow10(a, 16 - e)
    low, high, stuck = _misscaled(p, err, e)
    ok = ~stuck
    todo = np.flatnonzero((low | high) & ok)
    step = np.where(high[todo], 1, -1)
    while todo.size:
        e[todo] += step
        p[todo], err[todo] = pt, et = _times_pow10(a[todo], 16 - e[todo])
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


def _value8(v) -> None:
    """In place: each word of 8 digit lanes, values 0-9 with the leading
    digit in the lowest byte, becomes their integer; the inverse of
    `_digits8`.  Each step joins adjacent lanes in a multiply-shift."""
    v *= _U64(10 << 8 | 1)           # 10 * lane i + lane i + 1
    v >>= _U64(8)
    v &= _U64(0x00FF00FF00FF00FF)
    v *= _U64(100 << 16 | 1)
    v >>= _U64(16)
    v &= _U64(0x0000FFFF0000FFFF)
    v *= _U64(10000 << 32 | 1)
    v >>= _U64(32)


def _misrounded(q, k, head, low):
    """Whether each double q >= 0 is not the nearest to the decimal
    v = (head + low) / 10**k: ``(off, unsure, toward)``.

    ``toward`` is q's neighbour on v's side and ``off`` marks a q that
    must step there.  The residual r = head + low - q * 10**k decides it
    (Clinger, PLDI 1990): q is nearest iff |r| is under half the gap to
    ``toward``, times 10**k.  q * 10**k = p + err exactly (the
    two-product) and head - p is exact (Sterbenz: p is within a few ulps
    of head + low, and low is under 10**8 or 0), so the computed r errs
    by under eps * (|err - low| + |r|).  ``unsure`` marks an |r| within
    2**-50 times that of the half gap: a tie, or too close to call.
    """
    t = _csv_tables()
    p, err = _times_pow10(q, k)
    r = head - p
    err -= low
    r -= err
    tol = np.abs(err)
    np.abs(r, out=err)
    tol += err
    tol *= 2.0 ** -50
    # one step in the bit pattern, up unless r < 0 (q >= 0 is finite)
    toward = np.signbit(r).astype(np.int64)
    toward *= -2
    toward += q.view(np.int64) + 1
    toward = toward.view(np.float64)
    half = toward - q
    np.abs(half, out=half)
    half *= t.pow10[k]
    half *= 0.5
    r = err                          # |r|
    off = r - tol > half
    unsure = r + tol > half
    unsure &= ~off
    return off, unsure, toward


def _window(words, offset):
    """The 24 bytes from each byte `offset` of the buffer that `words`
    views, as three little-endian words (rows).  Built from four aligned
    words each, which numpy gathers far faster than unaligned ones."""
    t = _csv_tables()
    shift = (offset & 7).astype(np.uint64)
    shift <<= _U64(3)
    w = np.take(words, (offset >> 3) + t.word_index)
    out = w[:3] >> shift
    w = w[1:]
    w <<= _U64(64) - shift           # a shift by 64 gives 0
    out |= w
    return out


def _parse17(padded, start, end):
    """Parse a block of tokens of the form ``-?D+(.D+)?(e[+-]DD)?`` as
    doubles: ``(x, ok)``, with x meaningless where ok is False.

    ``padded`` holds the file's bytes after _CSV_PAD zero bytes, in whole
    words with room for a fourth word after the last window; token k
    spans bytes [start[k], end[k]) of the file.  The kernel takes a
    token whose mantissa, point included, has at most 24 bytes, whose
    digits give an integer M < 10**17 and whose value is M / 10**j with
    0 <= j <= 22, so that M is exact in two doubles and 10**j in one.
    """
    t = _csv_tables()
    words = padded.view("<u8")
    top = _U64(0x80 * _BYTES)
    # the 24-byte window that ends at the token's mantissa, one row per
    # word: lane i is byte stop - 24 + i, and the mantissa lanes 24 - size
    # on.  "e" four bytes from the end starts an exponent, in a few tokens
    w = _window(words, end + (_CSV_PAD - 24))
    expo = np.flatnonzero((w[2] & _U64(0xFF << 32)) == _U64(ord("e") << 32))
    tail = w[2, expo]
    stop = end.copy()
    stop[expo] -= 4
    w[:, expo] = _window(words, stop[expo] + (_CSV_PAD - 24))
    neg = padded[start + _CSV_PAD] == ord("-")
    size = stop - start - neg               # mantissa bytes, point included
    ok = (size > 0) & (size <= 24)
    inside = np.take(t.lanes_below, 24 - size, axis=1, mode="clip")
    np.bitwise_not(inside, out=inside)
    inside &= top
    # bytes are ASCII, so adding below 0x80 to a lane never carries out
    digit = w + _U64(0x50 * _BYTES)         # top bit: lane >= "0"
    digit &= ~(w + _U64(0x46 * _BYTES))     # and lane <= "9"
    digit &= inside
    point = w ^ _U64(ord(".") * _BYTES)
    point += _U64(0x7F * _BYTES)            # top bit: lane != "."
    np.bitwise_not(point, out=point)
    point &= inside
    inside ^= digit
    ok &= (inside == point).all(axis=0)
    # the points folded into one word, word i's lanes i bits down: one
    # point at lane 8 i + k is bit 8 k + 7 - i, read off as the exponent
    # of the word as a double; at is the lane, negative without a point
    fold = point[1] >> _U64(1)
    fold |= point[0]
    fold |= point[2] >> _U64(2)
    ok &= np.bitwise_count(fold) <= 1
    bit = fold.astype(np.float64).view(np.int64) >> 52
    bit -= 1023
    at = 7 - (bit & 7)
    at <<= 3
    at += bit >> 3
    with_point = at >= 0
    ok &= ~with_point | ((at > 24 - size) & (at < 23))
    scale = 23 - at                         # digits after the point
    scale *= with_point
    if expo.size:
        sign, tens, ones = (
            tail.view(np.uint8).reshape(-1, 8)[:, 5:].astype(np.int64).T)
        tens -= ord("0")
        ones -= ord("0")
        ok[expo] &= ((sign == ord("+")) | (sign == ord("-"))) & (
            (tens >= 0) & (tens <= 9) & (ones >= 0) & (ones <= 9))
        scale[expo] += np.where(sign == ord("-"), 1, -1) * (10 * tens + ones)
    ok &= (scale >= 0) & (scale <= 22)
    scale[~ok] = 0
    # the digit lanes as values 0-9, the point's lane dropped by moving
    # the lanes before it up one
    digit >>= _U64(7)
    digit *= _U64(0xFF)
    w &= _U64(0x0F * _BYTES)
    w &= digit
    del digit, point, inside
    moved = np.take(t.lanes_below, at, axis=1, mode="clip")
    moved &= w
    w ^= moved
    w[1:] |= moved[:-1] >> _U64(56)
    moved <<= _U64(8)
    w |= moved
    del moved
    _value8(w)
    ok &= w[0] < _U64(10)                   # M < 10**17
    m = w[0] * _U64(10 ** 16)
    m += w[1] * _U64(10 ** 8)
    m += w[2]
    # M = head + low in doubles: M itself below 2**53, else its multiple
    # of 10**8 and its last 8 digits
    low = w[2] * (m >= _U64(2 ** 53))
    head = (m - low).astype(np.float64)
    low = low.astype(np.float64)
    q = m.astype(np.float64)
    q /= t.pow10[scale]                     # within two ulps of M / 10**j
    off, unsure, toward = _misrounded(q, scale, head, low)
    ok &= ~unsure
    todo = np.flatnonzero(off & ok)
    q[todo] = toward[todo]
    while todo.size:
        off, unsure, toward = _misrounded(q[todo], scale[todo], head[todo],
                                          low[todo])
        ok[todo[unsure]] = False
        todo = todo[off]
        q[todo] = toward[off]
    neg = neg.astype(np.uint64)
    neg <<= _U64(63)
    bits = q.view(np.uint64)
    bits |= neg                             # q >= 0: set the sign bit
    return q, ok


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


def _csv_grid(data: bytes):
    """The token ends of an ASCII file of newline-ended lines that each
    hold the same number of commas, as ``(rows, width, end)``, or None."""
    if not data.endswith(b"\n") or not data.isascii() or b"\r" in data:
        return None
    buf = np.frombuffer(data, np.uint8)
    # bytes up to "," take in the separators, few others in a matrix file
    end = np.flatnonzero(buf <= ord(","))
    byte = buf[end]
    newline = byte == ord("\n")
    sep = newline | (byte == ord(","))
    end, newline = end[sep], newline[sep]
    rows = int(np.count_nonzero(newline))
    width = end.size // rows
    if rows * width != end.size or not newline[width - 1::width].all():
        return None
    return rows, width, end


def _parse_csv(data: bytes):
    """The matrix in `data`, or None where only the line loop can tell.

    `_parse17` takes each token it can, in blocks of _CSV_READ_BLOCK; any
    other goes through ``float()`` on its own.  None where `data` is not
    a grid (`_csv_grid`), a token is one ``float()`` rejects or reads as
    non-finite, or a block leaves more than 1/_CSV_FLOAT_SHARE of its
    tokens to ``float()``: blank lines, carriage returns, non-ASCII bytes,
    unequal widths, malformed entries and files written in another format
    (``%.18e``, ``E`` exponents) are all left to the line loop.
    """
    # the first line alone first: a file in another format is handed on
    # before the grid pass over all of it
    line = data.find(b"\n") + 1
    if 0 < line < len(data) and _parse_csv(data[:line]) is None:
        return None
    grid = _csv_grid(data)
    if grid is None:
        return None
    rows, width, end = grid
    start = np.empty_like(end)
    start[0] = 0
    start[1:] = end[:-1] + 1
    # whole words, with room for the fourth word `_window` gathers past
    # the last window
    padded = np.zeros((_CSV_PAD + len(data)) // 8 * 8 + 16, np.uint8)
    padded[_CSV_PAD:_CSV_PAD + len(data)] = np.frombuffer(data, np.uint8)
    out = np.empty(end.size)
    for b in range(0, end.size, _CSV_READ_BLOCK):
        s, e = start[b:b + _CSV_READ_BLOCK], end[b:b + _CSV_READ_BLOCK]
        x, ok = _parse17(padded, s, e)
        rest = np.flatnonzero(~ok)
        if rest.size > x.size // _CSV_FLOAT_SHARE:
            return None
        for k in rest.tolist():
            try:
                x[k] = v = float(data[s[k]:e[k]])
            except ValueError:
                return None
            if not math.isfinite(v):
                return None
        out[b:b + x.size] = x
    return out.reshape(rows, width)


def _read_csv_lines(path, data: bytes) -> np.ndarray:
    """Read the bytes `data` of the matrix CSV `path` one line at a time,
    as UTF-8 text with universal newlines whatever the locale, less a
    leading byte-order mark, skipping blank lines: ``float()`` of each
    comma-separated token of the stripped line.  The reference
    `read_matrix_csv` agrees with bit for bit, and the source of its
    every error: a malformed or ragged row, a non-finite entry (the
    first, named with its line), a file that is not UTF-8 text or has no
    rows."""
    rows = []
    width = None
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                tokens = line.split(",")
                try:
                    row = list(map(float, tokens))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed row: "
                                     f"{exc}") from None
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise ValueError(f"{path}:{lineno}: ragged row "
                                     f"({len(row)} fields, expected {width})")
                # finite entries have a finite sum unless it overflows
                if (not math.isfinite(sum(row))
                        and not all(map(math.isfinite, row))):
                    token = next(t for t, x in zip(tokens, row)
                                 if not math.isfinite(x))
                    raise ValueError(f"{path}:{lineno}: non-finite entry "
                                     f"{token.strip()!r}")
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a text file: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return as_matrix(np.array(rows, dtype=np.float64), str(path))


def read_matrix_csv(path) -> np.ndarray:
    """Read a headerless CSV matrix, such as :func:`write_matrix_csv`
    writes, as ``float()`` of each token, bit for bit.

    The file is read as bytes once.  An ASCII file of newline-ended
    lines that hold the same number of commas is parsed by a numpy kernel
    (`_parse17`) in blocks of 2**13 tokens.  It takes each token of the
    form ``-?D+(.D+)?(e[+-]DD)?`` whose mantissa spans at most 24 bytes,
    whose digits give an integer M < 10**17 and whose value is
    v = M / 10**j with 0 <= j <= 22: every token the writer's kernel
    writes (decimal exponents -6 to 15).  There M (in two doubles) and
    10**j are exact, and q = fl(fl(M) / 10**j) lies within two ulps of v.
    q is the nearest double to v iff the residual M - q * 10**j is under
    half the gap to q's neighbour on v's side, times 10**j (Clinger,
    "How to Read Floating Point Numbers Accurately", PLDI 1990); the
    residual comes from Dekker's exact two-product with one rounding of
    known bound, and q steps by one ulp until the test holds.  Exact ties
    and residuals too close to call go through ``float()`` one by one,
    as do tokens outside the grammar or the window: more than 17
    significant digits, other exponents, ``+``, ``_``, whitespace,
    ``nan``.  A file that is not such a grid (blank lines, carriage
    returns, a byte-order mark, unequal widths), that holds a token
    ``float()`` rejects or reads as non-finite, or whose first line or
    any block leaves more than a quarter of its tokens to ``float()``
    (a file in another format, such as ``np.savetxt``'s ``%.18e``) is
    read by the line loop `_read_csv_lines`, which ignores a leading
    byte-order mark and raises every error this function raises.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    a = _parse_csv(data)
    return _read_csv_lines(path, data) if a is None else a
