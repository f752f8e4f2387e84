"""Exact dense linear algebra over rational matrices.

Public functions take and return numpy object arrays of
fractions.Fraction values.  Inside, an exact matrix is an integer
object array with one positive common denominator (``scaled`` and
``unscaled``): a product is an integer product (``dot``), and every
reduction is one fraction-free Gauss-Jordan pass (``_gauss_jordan``)
whose entries stay minors of the input.  Each Fraction is built once,
when a result leaves the integer form.  One elimination modulo a prime
(``_full_rank_mod_p``) can prove a square matrix nonsingular; it only
chooses a route and never decides an answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

ZERO = Fraction(0)


def rational(value) -> Fraction:
    """Coerce ints, strings like '3/5', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    # A numpy integer would stay the Fraction's fixed-width numerator.
    return Fraction(int(value) if isinstance(value, np.integer) else value)


def rational_matrix(rows) -> np.ndarray:
    out = np.array([[rational(x) for x in row] for row in rows], dtype=object)
    if out.ndim != 2:
        raise ValueError("rows must form a rectangular matrix")
    return out


def rational_identity(order: int) -> np.ndarray:
    return unscaled(np.eye(order, dtype=int), 1)


def rational_zeros(rows: int, cols: int) -> np.ndarray:
    return np.full((rows, cols), ZERO, dtype=object)


def is_exact(matrix: np.ndarray) -> bool:
    """True when the dtype carries exact entries (object or integer)."""
    return matrix.dtype == object or np.issubdtype(matrix.dtype, np.integer)


def scaled(matrix) -> tuple[np.ndarray, int]:
    """Split an exact matrix into integers over one positive common denominator."""
    mat = np.asarray(matrix)
    if np.issubdtype(mat.dtype, np.integer):
        # tolist turns every numpy integer into a Python int in one call.
        return np.array(mat.tolist(), dtype=object).reshape(mat.shape), 1
    mat = np.asarray(matrix, dtype=object)
    # Every other type, numpy integers included, goes through rational.
    entries = [x if type(x) in (int, Fraction) else rational(x) for x in mat.flat]
    den = lcm(*(e.denominator for e in entries))
    ints = [e.numerator * (den // e.denominator) for e in entries]
    return np.array(ints, dtype=object).reshape(mat.shape), den


def unscaled(ints, den: int) -> np.ndarray:
    """The Fraction matrix ``ints / den``, each entry built once in lowest terms."""
    ints = np.asarray(ints, dtype=object)
    entries = [Fraction(x, den) for x in ints.flat]
    return np.array(entries, dtype=object).reshape(ints.shape)


def dot(*factors) -> np.ndarray:
    """Exact product of rational matrices: one integer product, normalized once."""
    product, den = scaled(factors[0])
    for factor in factors[1:]:
        ints, scale = scaled(factor)
        product, den = product.dot(ints), den * scale
    return unscaled(product, den)


def _gauss_jordan(rows: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan pass in place.  Returns (pivot columns, sign, d).

    The two-step Bareiss update runs on every row but the pivot row,
    above it as well as below, so every entry stays an exact minor of
    the input and the divisions are exact.  At the end every pivot
    equals d, the last pivot (1 at rank zero), and the other entries of
    the pivot columns are zero: the reduced row echelon form is
    ``rows / d``, and for square input of full rank the determinant is
    ``sign * d``.  Pivot rows are picked by the widest numerator in the
    column, which in practice keeps the minors from ballooning on the
    structured matrices handled here.
    """
    pivot_cols: list[int] = []
    sign = 1
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivot_cols)
        if rank == len(rows):
            break
        best = max(range(rank, len(rows)), key=lambda r: abs(rows[r][col]).bit_length())
        if rows[best][col] == 0:
            continue
        if best != rank:
            rows[rank], rows[best] = rows[best], rows[rank]
            sign = -sign
        piv_row = rows[rank]
        piv = piv_row[col]
        for r, row in enumerate(rows):
            if r != rank:
                x = row[col]
                rows[r] = [(piv * a - x * b) // prev for a, b in zip(row, piv_row)]
        prev = piv
        pivot_cols.append(col)
    return pivot_cols, sign, prev


def rref(matrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    ints, _ = scaled(matrix)
    rows = ints.tolist()
    pivot_cols, _, d = _gauss_jordan(rows)
    return unscaled(np.array(rows, dtype=object).reshape(ints.shape), d), pivot_cols


def det(matrix) -> Fraction:
    """Exact determinant by fraction-free elimination."""
    ints, scale = scaled(matrix)
    m, n = ints.shape
    if m != n:
        raise ValueError("determinant needs a square matrix")
    pivot_cols, sign, d = _gauss_jordan(ints.tolist())
    return Fraction(sign * d, scale**n) if len(pivot_cols) == n else ZERO


def invert(matrix) -> np.ndarray:
    """Exact inverse; raises on singular input."""
    ints, scale = scaled(matrix)
    m, n = ints.shape
    if m != n:
        raise ValueError("inverse needs a square matrix")
    # With A = scale * matrix in integers, [A | I] reduces to [d I | d A^-1].
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(ints.tolist())]
    pivot_cols, _, d = _gauss_jordan(rows)
    if pivot_cols != list(range(n)):
        raise ValueError("matrix is singular")
    inverse = np.array([row[n:] for row in rows], dtype=object).reshape(n, n)
    return unscaled(inverse * scale, d)


# A prime below 2**31, so residues and their products fit in int64.
_PROBE_PRIME = 2**31 - 1


def _full_rank_mod_p(ints) -> bool:
    """True when the square integer matrix is nonsingular modulo ``_PROBE_PRIME``.

    True proves the determinant nonzero over the rationals; False proves
    nothing, as the prime may divide a nonzero determinant.
    """
    rows = np.asarray(ints % _PROBE_PRIME, dtype=np.int64)
    for col in range(len(rows)):
        nonzero = np.flatnonzero(rows[col:, col])
        if not len(nonzero):
            return False
        rows[[col, col + nonzero[0]]] = rows[[col + nonzero[0], col]]
        inverse = pow(int(rows[col, col]), -1, _PROBE_PRIME)
        pivot_row = rows[col, col:] * inverse % _PROBE_PRIME
        below = rows[col + 1 :, col:]
        below[:] = (below - np.outer(below[:, 0], pivot_row)) % _PROBE_PRIME
    return True


def is_psd(matrix) -> bool:
    """Exact test of positive semidefiniteness for a symmetric matrix.

    The whole matrix is scaled by one positive common denominator (row
    by row scaling would break symmetry), then reduced by symmetric
    fraction-free elimination with diagonal pivots (``_psd_rows``, which
    ``is_edm`` runs on its own integer Gram matrix).  Each pivot is the
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
    return _psd_rows(scaled(mat)[0].tolist())


def _psd_rows(rows: list[list[int]]) -> bool:
    """``is_psd`` of the integer rows of a positive multiple of a symmetric matrix, in place."""
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
