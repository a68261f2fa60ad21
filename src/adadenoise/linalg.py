"""Dense-matrix primitives shared by the rest of the package.

Matrices are plain 2-D float64 numpy arrays.  Every public entry point
rejects NaN/Inf so that garbage never propagates into the spectral
pipeline.
"""

from __future__ import annotations

import math

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
