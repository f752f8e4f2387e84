"""Symmetric eigensolver and numerical rank.

``jacobi_eigh`` keeps its historical name (it is part of the public API)
but delegates to LAPACK through ``numpy.linalg.eigh``.
"""

from __future__ import annotations

import numpy as np


def jacobi_eigh(matrix):
    """Eigenvalues (ascending) and orthonormal eigenvectors as columns.

    The input must be symmetric; it is not modified.  Returns a pair
    ``(values, vectors)`` with ``vectors[:, i]`` belonging to
    ``values[i]``.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, rtol=0, atol=1e-12 * (1.0 + np.abs(a).max(initial=0.0))):
        raise ValueError("matrix must be symmetric")
    return np.linalg.eigh(a)


def numerical_rank(eigenvalues, rel: float = 1e-8) -> int:
    """Count of eigenvalues whose magnitude clears ``rel * max |value|``."""
    mags = np.abs(np.asarray(eigenvalues, dtype=float))
    top = mags.max() if mags.size else 0.0
    if top == 0.0:
        return 0
    return int(np.count_nonzero(mags > rel * top))
