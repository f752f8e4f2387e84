"""Closed-form eigenstructure of the gear distance matrix.

The distance matrix of the gear graph on ``2n - 1`` vertices has rank
``n``: two simple eigenvalues carried by hub-symmetric vectors, the
``n - 2`` values ``-8*cos(pi*k/(n-1))**2 - 2``, and a null space of
dimension ``n - 1`` spanned by integer vectors.  The cosine values and
their eigenvectors read the one table of symbols ``circulant._gear_symbols``.
"""

from __future__ import annotations

import math

import numpy as np

from .circulant import (
    _blocks_dot,
    _characters,
    _gear_symbols,
    _require_pair_index,
    _require_wheel_size,
    unit_root_powers,
)
from .graphs import _gear_distance_rows


def null_basis(n: int) -> list[np.ndarray]:
    """Integer null vectors of the gear distance matrix, one per cycle edge.

    The i-th vector places 1 on the hub, -1 on the two cycle vertices
    flanking subdivision vertex ``n + i``, and 1 on that subdivision
    vertex itself; there are ``n - 1`` of them and the matrix kills each
    one exactly.
    """
    _require_wheel_size(n)
    eye = np.eye(n - 1, dtype=np.int64)
    hub = np.ones((n - 1, 1), dtype=np.int64)
    return list(np.hstack([hub, -eye - np.roll(eye, 1, axis=1), eye]))


def lambda_pairs(n: int) -> list[tuple[float, np.ndarray]]:
    """The two simple nonzero eigenvalues with their eigenvectors.

    The values are ``3n - 8 +- sqrt(5*(n*(2n-9) + 12))``; each vector is
    constant on the cycle block and constant (one) on the subdivision
    block, so only the hub and cycle coordinates vary with n.
    """
    _require_wheel_size(n)
    root = math.sqrt(5.0 * (n * (2 * n - 9) + 12))
    denom = 3.0 * (n - 1)
    pairs = []
    for sign in (1.0, -1.0):
        value = 3 * n - 8 + sign * root
        hub = (15 - 5 * n + sign * 2.0 * root) / denom
        rim = (6 - n + sign * root) / denom
        vector = np.concatenate(
            [[hub], np.full(n - 1, rim), np.ones(n - 1)]
        )
        pairs.append((value, vector))
    return pairs


def theta(n: int, k: int) -> float:
    """Eigenvalue ``-8*cos(pi*k/(n-1))**2 - 2`` for ``k = 1..n-2``.

    Always in ``[-10, -2]``, and symmetric under ``k -> n-1-k``.
    """
    _require_pair_index(n, k)
    return float(_gear_symbols(n)[2][k]) - 2.0


def _eigenvalues(n: int) -> np.ndarray:
    """The n nonzero eigenvalues: the two ``lambda_pairs`` values, then every ``theta(n, k)``."""
    return np.concatenate([[value for value, _ in lambda_pairs(n)], _gear_symbols(n)[2][1:] - 2.0])


def _q_vectors(n: int, ks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The vectors ``q_vector(n, k)`` for ``k`` in ``ks``, as the columns of ``out``.

    ``out`` is a complex (2n - 1) x len(ks) array, new if not given, and is
    filled in place: the characters once into the subdivision block, then
    the cycle block as their product with one coefficient per column.
    """
    size = n - 1
    if out is None:
        out = np.empty((2 * n - 1, ks.size), dtype=np.complex128)
    _, sigma, tau = _gear_symbols(n)
    out[0] = 0.0
    out[n:] = _characters(unit_root_powers(size), ks)
    # S v = sigma_k v, so the cycle block -S v / (8 cos**2) is sigma_k v / tau_k, both
    # read from circulant._gear_symbols.
    np.multiply(out[n:], sigma[ks] / tau[ks], out=out[1:n])
    # Only odd n has k = (n-1)/2, where the cosine vanishes (up to rounding).
    alternating = 2 * ks == size
    out[1:n, alternating], out[n:, alternating] = ((-1.0) ** np.arange(size))[:, None], 0.0
    return out


def q_vector(n: int, k: int) -> np.ndarray:
    """Eigenvector for ``theta(n, k)``, zero on the hub.

    The subdivision block carries the character ``v = (w**(k*r))_r``, with
    ``w = exp(2*pi*i/(n-1))``, and the cycle block ``-S v / (8*cos(pi*k/(n-1))**2)``
    with S the mixed distance block, applied through its eigenvalue.  For
    odd n and ``k = (n-1)/2`` the cosine vanishes and the vector is an
    alternating sign pattern on the cycle block alone.  It is one column of
    the matrix that ``max_eigen_residual`` builds for every k at once.
    """
    _require_pair_index(n, k)
    return _q_vectors(n, np.array([k]))[:, 0]


def max_eigen_residual(n: int) -> float:
    """Largest entry of ``D X - X diag(values)`` over all n closed-form pairs.

    X holds the two ``lambda_pairs`` vectors and the n - 2 ``q_vector``
    columns.  D enters only through its three generating rows (the ones
    :func:`gearpinv.graphs.gear_distance_closed` gathers), applied to X by
    ``circulant._blocks_dot`` in O(n**2), with no dense D.  D is real, so
    it is applied to the real view of X, whose columns are each column's
    real and imaginary parts: the same float operations on each part as
    a complex product, in half the arithmetic.
    """
    values = _eigenvalues(n)
    vectors = np.empty((2 * n - 1, n), dtype=np.complex128)
    vectors[:, 0], vectors[:, 1] = (vector for _, vector in lambda_pairs(n))
    _q_vectors(n, np.arange(1, n - 1), out=vectors[:, 2:])
    parts = vectors.view(float)
    residual = _blocks_dot(_gear_distance_rows(n), parts)
    residual -= np.multiply(parts, values.repeat(2), out=parts)
    return float(np.max(np.abs(residual.view(np.complex128))))
