"""Building blocks of the closed-form pseudoinverse for gear graphs.

The target matrix L is the Moore-Penrose inverse of ``-1/2 * P D P``
where D is the gear distance matrix and P the centering projector.  It
assembles from a rank-one rational part, cosine circulant blocks (one
per eigenvalue pair of the distance matrix), and, for odd n, an
alternating-sign rational block.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .circulant import circulant
from .graphs import _require_pair_index, _require_wheel_size
from .rational import rational_vector, rational_zeros


def a_matrix(n: int) -> np.ndarray:
    """Rank-one rational part, an outer product scaled by 9(n-1)/(n+4)^2.

    The generating vector is 1 on the hub, (n-2)/(3(n-1)) on the cycle
    block, and -(n+1)/(3(n-1)) on the subdivision block; it is
    orthogonal to the all-ones vector.
    """
    _require_wheel_size(n)
    rim = Fraction(n - 2, 3 * (n - 1))
    sub = Fraction(-(n + 1), 3 * (n - 1))
    y = rational_vector([1] + [rim] * (n - 1) + [sub] * (n - 1))
    scale = Fraction(9 * (n - 1), (n + 4) ** 2)
    return scale * np.outer(y, y)


def h_matrix(n: int) -> np.ndarray:
    """Alternating-sign rational block used only for odd n.

    ``(-1)**(r+s) / (n-1)`` on the cycle block, zero elsewhere.  Equals
    the normalized outer product of the alternating eigenvector with
    itself, which is what makes the odd assembly close.
    """
    _require_wheel_size(n)
    if n % 2 == 0:
        raise ValueError("the alternating block exists only for odd n")
    out = rational_zeros(2 * n - 1, 2 * n - 1)
    unit = Fraction(1, n - 1)
    for r in range(n - 1):
        for s in range(n - 1):
            out[1 + r, 1 + s] = unit if (r + s) % 2 == 0 else -unit
    return out


def c_matrices(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosine circulants of order n-1 for the k-th eigenvalue pair.

    Returns ``(C, C_shift)`` with ``C[r, s] = cos(2*pi*(r-s)*k/(n-1))``
    and ``C_shift[r, s] = cos(2*pi*(r-s-1)*k/(n-1))``.  C is symmetric;
    both are real parts of character outer products.
    """
    _require_pair_index(n, k)
    size = n - 1
    idx = np.arange(size)
    diff = idx[:, None] - idx[None, :]
    step = 2.0 * math.pi * k / size
    return np.cos(step * diff), np.cos(step * (diff - 1))


def b_matrix(n: int, k: int) -> np.ndarray:
    """Contribution of the k-th eigenvalue pair to the assembled matrix.

    Symmetric, zero on the hub row and column, with row sums that vanish
    up to rounding.  Invariant under ``k -> n-1-k``, so assembly only
    ever uses the lower half of the k range.

    Raises
    ------
    ValueError
        For odd n at ``k = (n-1)/2`` where ``cos(pi*k/(n-1)) = 0`` and
        this block degenerates (the alternating block takes over).
    """
    _require_pair_index(n, k)
    if n % 2 == 1 and 2 * k == n - 1:
        raise ValueError("cos(pi*k/(n-1)) vanishes: no cosine block at this k")
    size = n - 1
    phi = math.cos(math.pi * k / size)
    scale = 2.0 / (size * (2.0 * phi + 1.0 / (2.0 * phi)) ** 2)
    c_plain, c_shift = c_matrices(n, k)
    quarter = 4.0 * phi * phi
    out = np.zeros((2 * n - 1, 2 * n - 1))
    out[1:n, 1:n] = c_plain / quarter
    out[1:n, n:] = (c_plain + c_shift) / quarter
    out[n:, 1:n] = (c_plain + c_shift.T) / quarter
    out[n:, n:] = c_plain
    return scale * out


def special_laplacian(n: int) -> np.ndarray:
    """Closed-form pseudoinverse of ``-1/2 * P D P`` for the gear graph.

    Positive semidefinite with zero row sums and rank ``n - 1``; the
    nonzero spectrum is ``(2n-1)/(n+4)`` together with the values
    ``-2/theta(n, k)``.

    Built in floating point from three circulant first rows, each a sum
    of the :func:`b_matrix` cosine rows over the lower half of the k
    range, taken as one matrix product in O(n^2).  The rank-one part of
    :func:`a_matrix` and, for odd n, :func:`h_matrix` are added in float;
    writing the dense output dominates the cost.
    """
    _require_wheel_size(n)
    size = n - 1
    ks = np.arange(1, (n - 2) // 2 + 1)
    phi = np.cos(np.pi * ks / size)
    sub_weight = 2.0 / (size * (2.0 * phi + 1.0 / (2.0 * phi)) ** 2)
    rim_weight = sub_weight / (4.0 * phi * phi)
    # Reducing k*j mod n-1 keeps the cosine arguments in [0, 2*pi).
    cosines = np.cos(2.0 * np.pi * (np.outer(ks, np.arange(size)) % size) / size)
    rim_row, sub_row = np.stack([rim_weight, sub_weight]) @ cosines
    mix_row = rim_row + np.roll(rim_row, -1)
    if n % 2 == 1:
        rim_row += np.where(np.arange(size) % 2 == 0, 1.0, -1.0) / size
    out = np.zeros((2 * n - 1, 2 * n - 1))
    out[1:n, 1:n] = circulant(rim_row)
    out[1:n, n:] = circulant(mix_row)
    out[n:, 1:n] = out[1:n, n:].T
    out[n:, n:] = circulant(sub_row)
    y = np.concatenate(
        [[1.0], np.full(size, (n - 2) / (3 * size)), np.full(size, -(n + 1) / (3 * size))]
    )
    out += (9 * size / (n + 4) ** 2) * np.outer(y, y)
    return out
