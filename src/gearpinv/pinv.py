"""Moore-Penrose inverses of gear distance matrices.

Two independent routes are provided.  The formula route evaluates the
closed form ``-1/2 L + ((n-1)/2) u u'`` in floating point, where L is
the assembled pseudoinverse of the centered distance matrix and u is
the rational image of the all-ones vector.  The oracle route computes
the pseudoinverse of any rational matrix exactly through a rank
factorization, with no reference to gear structure at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import _require_wheel_size
from .laplacian import special_laplacian
from .rational import dot, invert, is_exact, rref


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


def gear_pinv_formula(n: int) -> np.ndarray:
    """Closed-form pseudoinverse of the gear distance matrix (floats)."""
    _require_wheel_size(n)
    u = u_vector(n).astype(float)
    return -0.5 * special_laplacian(n) + ((n - 1) / 2.0) * np.outer(u, u)


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

    With M = C F a rank factorization, the pseudoinverse is
    ``F' (F F')^-1 (C' C)^-1 C'``; both inner matrices are invertible
    because the factors have full rank.  All four Penrose conditions
    hold exactly for the result.
    """
    mat = np.asarray(matrix, dtype=object)
    m, n = mat.shape
    c_factor, f_factor = rank_factorization(mat)
    if c_factor.shape[1] == 0:
        return np.full((n, m), Fraction(0), dtype=object)
    gram_f = invert(dot(f_factor, f_factor.T))
    gram_c = invert(dot(c_factor.T, c_factor))
    return dot(f_factor.T, gram_f, gram_c, c_factor.T)


@dataclass(frozen=True)
class PenroseReport:
    """Residuals of the four Penrose conditions for a candidate X.

    ``exact`` records whether both inputs carried exact entries, in
    which case every residual is either exactly 0.0 or a genuine
    violation.  Float inputs get ordinary rounding-level residuals.
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


def _max_abs(matrix) -> float:
    return float(max(abs(x) for x in np.asarray(matrix).flat))


def penrose_check(matrix, candidate) -> PenroseReport:
    """Evaluate MXM=M, XMX=X and symmetry of MX and XM."""
    m_mat = np.asarray(matrix)
    x_mat = np.asarray(candidate)
    if m_mat.shape != x_mat.T.shape:
        raise ValueError("candidate shape must be the transpose of the input shape")
    exact = is_exact(m_mat) and is_exact(x_mat)
    mul = dot if exact else np.dot
    mx = mul(m_mat, x_mat)
    xm = mul(x_mat, m_mat)
    return PenroseReport(
        exact=exact,
        mxm=_max_abs(mul(mx, m_mat) - m_mat),
        xmx=_max_abs(mul(xm, x_mat) - x_mat),
        mx_symmetry=_max_abs(mx - mx.T),
        xm_symmetry=_max_abs(xm - xm.T),
    )
