"""Closed-form eigenstructure of the gear distance matrix.

The distance matrix of the gear graph on ``2n - 1`` vertices has rank
``n``: two simple eigenvalues carried by hub-symmetric vectors, the
``n - 2`` values ``-8*cos(pi*k/(n-1))**2 - 2``, and a null space of
dimension ``n - 1`` spanned by integer vectors.
"""

from __future__ import annotations

import math

import numpy as np

from .circulant import unit_root_powers
from .graphs import _require_pair_index, _require_wheel_size, gear_distance_closed


def null_basis(n: int) -> list[np.ndarray]:
    """Integer null vectors of the gear distance matrix, one per cycle edge.

    The i-th vector places 1 on the hub, -1 on the two cycle vertices
    flanking subdivision vertex ``n + i``, and 1 on that subdivision
    vertex itself; there are ``n - 1`` of them and the matrix kills each
    one exactly.
    """
    _require_wheel_size(n)
    size = n - 1
    vectors = []
    for i in range(size):
        vec = np.zeros(2 * n - 1, dtype=np.int64)
        vec[0] = 1
        vec[1 + i] = -1
        vec[1 + (i + 1) % size] = -1
        vec[n + i] = 1
        vectors.append(vec)
    return vectors


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
    return -8.0 * math.cos(math.pi * k / (n - 1)) ** 2 - 2.0


def q_vector(n: int, k: int) -> np.ndarray:
    """Eigenvector for ``theta(n, k)``, zero on the hub.

    The subdivision block carries the circulant character
    ``v = (w**(k*r))_r`` with ``w = exp(2*pi*i/(n-1))`` and the cycle
    block carries ``-S v / (8*cos(pi*k/(n-1))**2)`` where ``S`` is the
    mixed distance block.  For odd ``n`` and ``k = (n-1)/2`` the cosine
    vanishes and the eigenvector degenerates to an alternating sign
    pattern on the cycle block with zero subdivision block.
    """
    _require_pair_index(n, k)
    size = n - 1
    out = np.zeros(2 * n - 1, dtype=np.complex128)
    if n % 2 == 1 and 2 * k == size:
        out[1:n] = [(-1) ** r for r in range(size)]
        return out
    # n even makes n-1 odd, so cos(pi*k/(n-1)) cannot vanish here.
    phi = math.cos(math.pi * k / size)
    assert phi != 0.0
    powers = unit_root_powers(size)
    v = powers[(np.arange(size) * k) % size]
    # v is a character, so S v = sigma v with the mixed block's eigenvalue
    # sigma = -2(1 + w**(-k)) from circulant.s_spectrum.
    sigma = -2.0 * (1.0 + powers[(-k) % size])
    out[1:n] = -sigma * v / (8.0 * phi * phi)
    out[n:] = v
    return out


def max_eigen_residual(n: int) -> float:
    """Largest entry of ``D x - value * x`` over the closed-form eigenpairs.

    Covers the two lambda pairs and all ``n - 2`` theta pairs in one
    product ``D X - X diag(values)``.
    """
    pairs = lambda_pairs(n) + [(theta(n, k), q_vector(n, k)) for k in range(1, n - 1)]
    values = np.array([value for value, _ in pairs])
    vectors = np.column_stack([vector for _, vector in pairs])
    dist = gear_distance_closed(n).astype(float)
    return float(np.max(np.abs(dist @ vectors - vectors * values)))
