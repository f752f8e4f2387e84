"""Moore-Penrose inverses of gear distance matrices.

Two independent routes are provided.  The formula route evaluates the
closed form ``-1/2 L + ((n-1)/2) u u'`` in floating point, where L is
the assembled pseudoinverse of the centered distance matrix and u is
the rational image of the all-ones vector.  The oracle route computes
the pseudoinverse of any rational matrix exactly, with no reference to
gear structure at all, through ``rational._pinv_ints``, the one exact
pseudoinverse route.

``penrose_check`` judges a candidate exactly as well: its four integer
residuals are proven zero modulo enough primes to pass their bound, and
only a candidate that fails gets the residuals computed in full.  All
arithmetic modulo primes, the oracle's and the check's, is in ``rational``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circulant import _circulant_blocks, _require_wheel_size
from .laplacian import _laplacian_rows
from .rational import (
    _largest, _matrix, _pinv_ints, _residuals_vanish, is_exact, rref, scaled, unscaled,
)


def u_vector(n: int) -> np.ndarray:
    """Rational vector u with ``D u = 1`` and u orthogonal to null(D).

    The hub coordinate is ``(13 - 3n)/((n+4)(n-1))``, negative for every
    n above 4; the cycle block carries ``(6 - n)/((n+4)(n-1))`` and the
    subdivision block ``1/(n+4)``.  Both block values are forced by
    ``D u = 1`` once the blocks are constant, so the signs are not
    conventions.
    """
    _require_wheel_size(n)
    denom = (n + 4) * (n - 1)
    hub = Fraction(13 - 3 * n, denom)
    rim = Fraction(6 - n, denom)
    sub = Fraction(1, n + 4)
    return np.array([hub] + [rim] * (n - 1) + [sub] * (n - 1), dtype=object)


def beta(n: int) -> Fraction:
    """Total mass ``1' u = 2/(n-1)`` of the u vector."""
    _require_wheel_size(n)
    return Fraction(2, n - 1)


def _formula_rows(n: int) -> np.ndarray:
    """Rows 0, 1 and n of :func:`gear_pinv_formula`, the source of all its entries."""
    # u takes three values, on the hub, the rim and the subdivision vertices: convert those.
    u = u_vector(n)[[0, 1, n]].astype(float)
    return -0.5 * _laplacian_rows(n) + ((n - 1) / 2.0) * np.outer(u, u.repeat([1, n - 1, n - 1]))


def gear_pinv_formula(n: int) -> np.ndarray:
    """Closed-form pseudoinverse of the gear distance matrix (floats)."""
    return _circulant_blocks(_formula_rows(n))


def rank_factorization(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Split M = C F with C of full column rank, F of full row rank.

    F is the nonzero rows of the reduced row echelon form; C is the
    pivot columns of M itself.  Rank zero yields empty factors.
    """
    mat = np.asarray(matrix, dtype=object)
    reduced, pivot_cols = rref(mat)
    return mat[:, pivot_cols], reduced[: len(pivot_cols)].copy()


def rational_pinv(matrix) -> np.ndarray:
    """Exact Moore-Penrose inverse of a rational matrix.

    The input is split once into integers over a common denominator, and
    ``rational._pinv_ints`` gives the pseudoinverse from residues modulo
    primes under a certificate, or else from the skeleton of a symmetric
    matrix on its pivot columns or fraction-free elimination of the pivot
    rows of any other, picked again at the next prime if an exact check
    fails.  All four Penrose conditions hold exactly for the result.
    """
    return unscaled(*_pinv_ints(*scaled(_matrix(matrix))))


@dataclass(frozen=True)
class PenroseReport:
    """Residuals of the four Penrose conditions for a candidate X.

    ``exact`` records whether both inputs carried exact entries, in
    which case every residual is either exactly 0.0 or a genuine
    violation: a nonzero one too small for a double reads as the least
    positive double, so ``all_exact`` holds exactly when every integer
    residual is 0.  Float inputs get ordinary rounding-level residuals.
    """

    exact: bool
    mxm: float
    xmx: float
    mx_symmetry: float
    xm_symmetry: float

    @property
    def max_residual(self) -> float:
        return max(self.mxm, self.xmx, self.mx_symmetry, self.xm_symmetry)

    @property
    def all_exact(self) -> bool:
        return self.exact and self.max_residual == 0.0

    def within(self, tol: float) -> bool:
        return self.max_residual <= tol


def _max_abs(ints, den) -> float:
    largest = _largest(ints)
    try:
        value = float(largest / den)
    except OverflowError:
        # An exact residual past the float range, where float input would give inf.
        return math.inf
    # One below the float range reads as the least positive double, never as 0.0.
    return value or (math.ulp(0.0) if largest else 0.0)


def _penrose_residuals(exact: bool, a_ints, a, b_ints, b) -> PenroseReport:
    """The report from ABA - abA, BAB - abB, AB - (AB)' and BA - (BA)', computed in full."""
    ab = a * b
    mx, xm = a_ints.dot(b_ints), b_ints.dot(a_ints)
    return PenroseReport(
        exact=exact,
        mxm=_max_abs(mx.dot(a_ints) - ab * a_ints, a * ab),
        xmx=_max_abs(xm.dot(b_ints) - ab * b_ints, ab * b),
        mx_symmetry=_max_abs(mx - mx.T, ab),
        xm_symmetry=_max_abs(xm - xm.T, ab),
    )


def penrose_check(matrix, candidate) -> PenroseReport:
    """Evaluate MXM=M, XMX=X and symmetry of MX and XM.

    Exact M = A/a and X = B/b are split once into integers, so the
    residuals ABA - abA, BAB - abB, AB - (AB)' and BA - (BA)' are
    integers over a^2 b, ab^2, ab and ab.  If they are proven zero from
    their residues (``rational._residuals_vanish``), the report is 0.0
    in every field.  Otherwise the integer residuals are computed in
    full, and the report gives their exact magnitudes (``math.inf``
    past the float range).  Float inputs take a = b = 1 and the full
    residuals.
    """
    m_mat, x_mat = _matrix(matrix), _matrix(candidate)
    if m_mat.shape != x_mat.T.shape:
        raise ValueError("candidate shape must be the transpose of the input shape")
    if not (is_exact(m_mat) and is_exact(x_mat)):
        return _penrose_residuals(False, m_mat, 1, x_mat, 1)
    return _penrose_ints(*scaled(m_mat), *scaled(x_mat))


def _penrose_ints(a_ints, a: int, b_ints, b: int) -> PenroseReport:
    """``penrose_check`` of M = A/a and X = B/b from the integers A and B."""
    if _residuals_vanish(a_ints, b_ints, a * b):
        return PenroseReport(True, 0.0, 0.0, 0.0, 0.0)
    return _penrose_residuals(True, a_ints, a, b_ints, b)
