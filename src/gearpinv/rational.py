"""Exact dense linear algebra over Fraction entries.

Matrices are numpy object arrays whose entries are fractions.Fraction
values (always in lowest terms, which Fraction guarantees).  Reductions
run fraction-free on denominator-cleared integer rows, so intermediate
growth stays bounded by minor sizes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)


def rational(value) -> Fraction:
    """Coerce ints, strings like '3/5', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def rational_matrix(rows) -> np.ndarray:
    out = np.array([[rational(x) for x in row] for row in rows], dtype=object)
    if out.ndim != 2:
        raise ValueError("rows must form a rectangular matrix")
    return out


def rational_vector(values) -> np.ndarray:
    return np.array([rational(x) for x in values], dtype=object)


def rational_identity(order: int) -> np.ndarray:
    out = rational_zeros(order, order)
    for i in range(order):
        out[i, i] = ONE
    return out


def rational_zeros(rows: int, cols: int) -> np.ndarray:
    return np.full((rows, cols), ZERO, dtype=object)


def is_exact(matrix: np.ndarray) -> bool:
    """True when the dtype carries exact entries (object or integer)."""
    return matrix.dtype == object or np.issubdtype(matrix.dtype, np.integer)


def _integer_rows(matrix) -> list[list[int]]:
    # Clear denominators row by row; row scaling never moves pivots or rank.
    out = []
    for row in np.asarray(matrix, dtype=object):
        entries = [rational(x) for x in row]
        scale = lcm(*(e.denominator for e in entries))
        out.append([int(e * scale) for e in entries])
    return out


def _forward_eliminate(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free echelon pass in place.  Returns (pivot columns, sign).

    Two-step Bareiss updates keep every intermediate entry an exact minor
    of the input, so the divisions below are exact.  Pivot rows are picked
    by the widest numerator in the column, which in practice keeps the
    minors from ballooning on the structured matrices handled here.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivot_cols: list[int] = []
    sign = 1
    prev = 1
    rank = 0
    for col in range(n):
        best = -1
        width = -1
        for r in range(rank, m):
            e = rows[r][col]
            if e != 0 and abs(e).bit_length() > width:
                best, width = r, abs(e).bit_length()
        if best < 0:
            continue
        if best != rank:
            rows[rank], rows[best] = rows[best], rows[rank]
            sign = -sign
        piv_row = rows[rank]
        piv = piv_row[col]
        for r in range(rank + 1, m):
            row = rows[r]
            x = row[col]
            head = [0] * col
            rows[r] = head + [
                (piv * row[s] - x * piv_row[s]) // prev for s in range(col, n)
            ]
        prev = piv
        pivot_cols.append(col)
        rank += 1
        if rank == m:
            break
    return pivot_cols, sign


def rref(matrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    mat = np.asarray(matrix, dtype=object)
    m, n = mat.shape
    rows = _integer_rows(mat)
    pivot_cols, _ = _forward_eliminate(rows)
    rank = len(pivot_cols)
    reduced = [[ZERO] * n for _ in range(m)]
    for i in range(rank):
        piv = rows[i][pivot_cols[i]]
        reduced[i] = [Fraction(x, piv) for x in rows[i]]
    for i in reversed(range(rank)):
        base = reduced[i]
        c = pivot_cols[i]
        for j in range(i):
            f = reduced[j][c]
            if f:
                reduced[j] = [a - f * b for a, b in zip(reduced[j], base)]
    return np.array(reduced, dtype=object), pivot_cols


def det(matrix) -> Fraction:
    """Exact determinant by fraction-free elimination."""
    mat = np.asarray(matrix, dtype=object)
    m, n = mat.shape
    if m != n:
        raise ValueError("determinant needs a square matrix")
    scale = ONE
    rows = []
    for row in mat:
        entries = [rational(x) for x in row]
        s = lcm(*(e.denominator for e in entries))
        scale *= s
        rows.append([int(e * s) for e in entries])
    pivot_cols, sign = _forward_eliminate(rows)
    if len(pivot_cols) < n:
        return ZERO
    return Fraction(sign * rows[n - 1][n - 1], 1) / scale


def invert(matrix) -> np.ndarray:
    """Exact inverse; raises on singular input."""
    mat = np.asarray(matrix, dtype=object)
    m, n = mat.shape
    if m != n:
        raise ValueError("inverse needs a square matrix")
    augmented = np.hstack([mat, rational_identity(n)])
    reduced, pivot_cols = rref(augmented)
    if pivot_cols != list(range(n)):
        raise ValueError("matrix is singular")
    return reduced[:, n:]


def is_psd(matrix) -> bool:
    """Exact test of positive semidefiniteness for a symmetric matrix.

    The whole matrix is scaled by one positive common denominator (row
    by row scaling would break symmetry), then reduced by symmetric
    fraction-free elimination with diagonal pivots.  Each pivot is the
    largest remaining diagonal: a negative one means not PSD, and a zero
    one means PSD exactly when the remaining block is zero.  Every
    remaining entry is a minor of the input whose sign matches the
    Schur complement's, because all earlier pivots were positive.

    Raises
    ------
    ValueError
        If the matrix is not square and symmetric.
    """
    mat = np.asarray(matrix, dtype=object)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if (mat != mat.T).any():
        raise ValueError("matrix must be symmetric")
    entries = [[rational(x) for x in row] for row in mat]
    scale = lcm(*(e.denominator for row in entries for e in row))
    rows = [[int(e * scale) for e in row] for row in entries]
    remaining = list(range(len(rows)))
    prev = 1
    while remaining:
        k = max(remaining, key=lambda i: rows[i][i])
        piv = rows[k][k]
        if piv <= 0:
            return piv == 0 and not any(rows[i][j] for i in remaining for j in remaining)
        remaining.remove(k)
        pivot_row = rows[k]
        for i in remaining:
            row, x = rows[i], rows[i][k]
            for j in remaining:
                row[j] = (piv * row[j] - x * pivot_row[j]) // prev
        prev = piv
    return True
