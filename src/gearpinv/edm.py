"""Euclidean distance matrix tests and the Gram-route pseudoinverse.

A hollow symmetric matrix D is a squared-distance matrix of points
exactly when ``S[i, j] = d[0, i] + d[0, j] - d[i, j]`` (i, j >= 1),
twice the Gram matrix of the points moved so that the first is the
origin, is positive semidefinite (Schoenberg 1935).  When D is also
spherical (``1' D+ 1 > 0``), D+ is a Gram part plus a rank-one
correction, both read off G+ for G = -1/2 P D P, the centered Gram
matrix (Balaji and Bapat).  Pseudoinverses come as integers from
``rational._pinv_ints``.  ``_edm_pinv_ints``, the one evaluation of that
identity, gives D+ from G+ exactly, in integers, and
``balaji_bapat_pinv`` rounds it once per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .eigen import jacobi_eigh
from .rational import (
    _floats, _lowest_terms, _ones_mass, _pinv_ints, _psd_ints, is_exact, rational_identity, scaled,
    unscaled,
)


def centering_projector(m: int) -> np.ndarray:
    """Rational projector ``I - J/m`` onto the mean-zero subspace."""
    if m < 1:
        raise ValueError("order must be positive")
    return rational_identity(m) - np.full((m, m), Fraction(1, m), dtype=object)


def _as_rational_square(matrix) -> np.ndarray:
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not len(mat):
        raise ValueError("matrix must be square with positive order")
    if not is_exact(mat):
        raise ValueError("matrix entries must be exact (int or Fraction)")
    return mat.astype(object)


def gram_from_edm(matrix) -> np.ndarray:
    """Doubly centered Gram matrix ``-1/2 P D P`` (exact).

    Computed in O(m^2) on integers: for D = A/s with row sums R and total
    T of A, ``2 m^2 s G[i, j] = m (R[i] + R[j]) - m^2 A[i, j] - T``.

    Raises
    ------
    ValueError
        If the input is not square, nonempty, symmetric and hollow.
    """
    return unscaled(*_gram_ints(*_hollow_symmetric_ints(matrix)))


def _hollow_symmetric_ints(matrix) -> tuple[np.ndarray, int]:
    """D = A/s split once into (A, s); ValueError unless D is square, symmetric and hollow."""
    ints, scale = scaled(_as_rational_square(matrix))
    if ints.diagonal().any():
        raise ValueError("matrix must be hollow (zero diagonal)")
    if (ints != ints.T).any():
        raise ValueError("matrix must be symmetric")
    return ints, scale


def _gram_ints(ints, scale: int) -> tuple[np.ndarray, int]:
    """``gram_from_edm`` of D = A/s from A, as the integers 2 m^2 s G over 2 m^2 s."""
    m, rows = len(ints), ints.sum(axis=1)
    return m * (rows[:, None] + rows[None, :]) - m * m * ints - rows.sum(), 2 * m * m * scale


def _schoenberg_psd(ints) -> bool:
    """Whether hollow symmetric D = A/s is an EDM: the integers s S, read off A, are PSD."""
    return _psd_ints(ints[0, 1:, None] + ints[0, None, 1:] - ints[1:, 1:])


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

    The verdict is exact: Schoenberg's matrix of D = A/s, read off A,
    is tested for positive semidefiniteness by fraction-free elimination
    (``_schoenberg_psd``), so no tolerance decides it; the smallest
    centered Gram eigenvalue, in floats, is for information only.
    ``beta`` is ``1' D+ 1``, exact, from one solve of ``D x = 1`` on
    the r x r block of D's pivot rows and columns, proved by one exact
    mat-vec (``rational._ones_mass``), or else the integers of ``rational._pinv_ints``.
    """
    ints, scale = scaled(_as_rational_square(matrix))
    m = len(ints)
    hollow, symmetric = not ints.diagonal().any(), not (ints != ints.T).any()
    min_eig, psd = float("nan"), False
    if hollow and symmetric:
        min_eig = float(jacobi_eigh(_floats(*_gram_ints(ints, scale)))[0][0])
        psd = _schoenberg_psd(ints)
    beta = float(_ones_mass(ints, scale, symmetric))
    return EdmReport(m, hollow, symmetric, min_eig, psd, beta)


def balaji_bapat_pinv(matrix) -> np.ndarray:
    """Pseudoinverse of a spherical distance matrix through its Gram matrix.

    Exact, rounded once: ``-1/2 G+ + u u'/(1'u)``, where G is the centered
    Gram matrix and ``u = D+ 1``, is evaluated in integers from the exact
    G+ of ``rational._pinv_ints`` (``_edm_pinv_ints``), so no pseudoinverse of
    D is formed, and each entry of the exact D+ is rounded to the nearest
    double.  Requires D spherical, which for a distance matrix means
    ``1' D+ 1 > 0``: true for gear and tree distances, not for every one.

    Raises
    ------
    ValueError
        If D is not hollow symmetric, or not spherical with ``1' D+ 1 > 0``.
    """
    ints, scale = _hollow_symmetric_ints(matrix)
    return _floats(*_edm_pinv_ints(ints, scale, *_pinv_ints(*_gram_ints(ints, scale))))


def _edm_pinv_ints(ints, scale: int, pinv, den: int) -> tuple[np.ndarray, int]:
    """``balaji_bapat_pinv`` exactly: D+ = Y / d in lowest terms, from D = A/s and G+ = P/p."""
    # Every hollow symmetric D equals g1' + 1g' - 2G with g = diag(G), so
    # for w = 1/m + G+ g / 2 we get Dw = (I - GG+) g + c' 1.  That is
    # constant, Dw = c 1, exactly when D is spherical, and then
    # u = D+ 1 = w/c and 1' D+ 1 = 1/c.  With R the row sums of A and
    # T = 1'R, g = (2 m R - T 1) / (2 m^2 s), and G 1 = 0 makes G+ 1 = 0,
    # so G+ g / 2 = G+ R / (2 m s) and w = (2 s p 1 + P R) / (2 m s p).
    # Below, w is that numerator over w_den = 2 m s p, and A w = k 1 with k = s w_den c.
    w, w_den = 2 * scale * den + pinv.dot(ints.sum(axis=1)), 2 * len(ints) * scale * den
    dw = ints.dot(w)
    k = dw[0]
    if (dw != k).any() or k <= 0:
        raise ValueError("formula needs a spherical D with 1' D+ 1 > 0")
    # So D+ = -1/2 G+ + u u' / (1' u) = -P / (2p) + s w w' / (w_den k), and
    # w_den = 2 m s p makes 2 m p k D+ = w w' - m k P: integers, for every spherical D.
    pinv_ints = np.outer(w, w)
    pinv_ints -= len(ints) * k * pinv
    return _lowest_terms(pinv_ints, 2 * len(ints) * den * k)
