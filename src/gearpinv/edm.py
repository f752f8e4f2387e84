"""Euclidean distance matrix tests and the Gram-route pseudoinverse.

A hollow symmetric matrix D is a squared-distance matrix of points
exactly when the doubly centered Gram matrix ``-1/2 P D P`` is positive
semidefinite, with P the centering projector.  When additionally
``1' D+ 1 > 0``, the pseudoinverse of D splits into a Gram part and a
rank-one correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .eigen import jacobi_eigh
from .pinv import rational_pinv
from .rational import is_exact, is_psd, rational_identity


def centering_projector(m: int) -> np.ndarray:
    """Rational projector ``I - J/m`` onto the mean-zero subspace."""
    if m < 1:
        raise ValueError("order must be positive")
    out = rational_identity(m) - np.full((m, m), Fraction(1, m), dtype=object)
    return out


def _as_rational_square(matrix) -> np.ndarray:
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if not is_exact(mat):
        raise ValueError("matrix entries must be exact (int or Fraction)")
    return mat.astype(object)


def gram_from_edm(matrix) -> np.ndarray:
    """Doubly centered Gram matrix ``-1/2 P D P`` (exact).

    Computed in O(m^2) from row means: for symmetric D the entry is
    ``D[i, j] - r[i] - r[j] + g``, with r the row means and g their mean.

    Raises
    ------
    ValueError
        If the input is not square, symmetric, and hollow.
    """
    mat = _as_rational_square(matrix)
    m = mat.shape[0]
    if any(mat[i, i] != 0 for i in range(m)):
        raise ValueError("matrix must be hollow (zero diagonal)")
    if (mat != mat.T).any():
        raise ValueError("matrix must be symmetric")
    means = np.array([Fraction(sum(row), m) for row in mat], dtype=object)
    grand = Fraction(sum(means), m)
    return Fraction(-1, 2) * (mat - means[:, None] - means[None, :] + grand)


@dataclass(frozen=True)
class EdmReport:
    """Outcome of the distance-matrix test for one square matrix."""

    order: int
    is_hollow: bool
    is_symmetric: bool
    min_gram_eigenvalue: float
    is_edm: bool
    beta: float


def is_edm(matrix) -> EdmReport:
    """Check whether an exact square matrix is a distance matrix.

    The verdict is exact: the Gram matrix is tested for positive
    semidefiniteness by fraction-free elimination, so no tolerance is
    involved.  ``min_gram_eigenvalue`` is the smallest Gram eigenvalue
    in floating point, reported for information only.  ``beta`` reports
    ``1' D+ 1`` from the exact pseudoinverse.
    """
    mat = _as_rational_square(matrix)
    m = mat.shape[0]
    hollow = all(mat[i, i] == 0 for i in range(m))
    symmetric = not (mat != mat.T).any()
    if hollow and symmetric:
        gram = gram_from_edm(mat)
        values, _ = jacobi_eigh(gram.astype(float))
        min_eig = float(values[0])
        psd = is_psd(gram)
    else:
        min_eig = float("nan")
        psd = False
    ones = np.full(m, Fraction(1), dtype=object)
    mass = float(ones @ (rational_pinv(mat) @ ones))
    return EdmReport(
        order=m,
        is_hollow=hollow,
        is_symmetric=symmetric,
        min_gram_eigenvalue=min_eig,
        is_edm=psd,
        beta=mass,
    )


def balaji_bapat_pinv(matrix) -> np.ndarray:
    """Pseudoinverse of a distance matrix through its Gram matrix.

    Evaluates ``-1/2 G+ + u u'/(1'u)`` in floating point, where G is the
    centered Gram matrix and ``u = D+ 1``; both G+ and u come from the
    exact rational route.  Requires ``1' D+ 1 > 0``, which holds for
    gear and tree distance matrices but not for every distance matrix.

    Raises
    ------
    ValueError
        If the input is not hollow symmetric, or ``1' D+ 1 <= 0``.
    """
    gram = gram_from_edm(matrix)
    mat = np.asarray(matrix, dtype=object)
    m = mat.shape[0]
    ones = np.full(m, Fraction(1), dtype=object)
    u = rational_pinv(mat) @ ones
    mass = ones @ u
    if mass <= 0:
        raise ValueError("formula needs 1' D+ 1 > 0")
    gram_pinv = rational_pinv(gram).astype(float)
    u_float = u.astype(float)
    return -0.5 * gram_pinv + np.outer(u_float, u_float) / float(mass)
