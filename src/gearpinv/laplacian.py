"""Building blocks of the closed-form pseudoinverse for gear graphs.

The target matrix L is the Moore-Penrose inverse of ``-1/2 * P D P``
where D is the gear distance matrix and P the centering projector.  It
assembles from a rank-one rational part, cosine circulant blocks (one
per eigenvalue pair of the distance matrix), and, for odd n, an
alternating-sign rational block.

Each piece is defined once, in ``_rank_one`` and ``_pair_weights``; the
parts and :func:`special_laplacian` are built from them.  Vertex 0 is
the hub, 1..n-1 the cycle and n..2n-2 the subdivision.
"""

from __future__ import annotations

import math

import numpy as np

from .circulant import circulant
from .graphs import _require_pair_index, _require_wheel_size
from .rational import unscaled


def _rank_one(n: int) -> tuple[list[int], int, np.ndarray]:
    """The rank-one part ``v v' / den`` by vertex class: (v, den, classes).

    v is 3(n-1) on the hub (class 0), n-2 on the cycle (class 1) and
    -(n+1) on the subdivision (class 2); ``den = (n+4)^2 (n-1)``.
    """
    classes = np.repeat([0, 1, 2], [1, n - 1, n - 1])
    return [3 * (n - 1), n - 2, -(n + 1)], (n + 4) ** 2 * (n - 1), classes


def _class_outer(values, den: int, classes: np.ndarray) -> np.ndarray:
    """Exact ``x x' / den`` with x = values[classes]: one Fraction per distinct entry."""
    column = np.array(values, dtype=object)
    return unscaled(np.outer(column, column), den)[np.ix_(classes, classes)]


def _pair_weights(n: int, k):
    """Subdivision block weight of pair index k and its ratio to the cycle weight.

    With ``phi = cos(pi k/(n-1))`` the weight is
    ``2 / ((n-1) (2 phi + 1/(2 phi))^2)`` and the ratio ``4 phi^2``;
    k may be an array.
    """
    size = n - 1
    phi = np.cos(np.pi * k / size)
    return 2.0 / (size * (2.0 * phi + 1.0 / (2.0 * phi)) ** 2), 4.0 * phi * phi


def a_matrix(n: int) -> np.ndarray:
    """Rank-one rational part, an outer product scaled by 9(n-1)/(n+4)^2.

    The generating vector is 1 on the hub, (n-2)/(3(n-1)) on the cycle
    block, and -(n+1)/(3(n-1)) on the subdivision block; it is
    orthogonal to the all-ones vector.  Built from its integer form in
    ``_rank_one``, one Fraction per pair of vertex classes.
    """
    _require_wheel_size(n)
    return _class_outer(*_rank_one(n))


def h_matrix(n: int) -> np.ndarray:
    """Alternating-sign rational block used only for odd n.

    ``(-1)**(r+s) / (n-1)`` on the cycle block, zero elsewhere.  Equals
    the normalized outer product of the alternating eigenvector with
    itself, which is what makes the odd assembly close.
    """
    _require_wheel_size(n)
    if n % 2 == 0:
        raise ValueError("the alternating block exists only for odd n")
    classes = np.zeros(2 * n - 1, dtype=int)  # hub and subdivision: 0
    classes[1:n] = 1 + np.arange(n - 1) % 2
    return _class_outer([0, 1, -1], n - 1, classes)


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
    ever uses the lower half of the k range.  The block weights come
    from ``_pair_weights``.

    Raises
    ------
    ValueError
        For odd n at ``k = (n-1)/2`` where ``cos(pi*k/(n-1)) = 0`` and
        this block degenerates (the alternating block takes over).
    """
    _require_pair_index(n, k)
    if n % 2 == 1 and 2 * k == n - 1:
        raise ValueError("cos(pi*k/(n-1)) vanishes: no cosine block at this k")
    sub_weight, quarter = _pair_weights(n, k)
    c_plain, c_shift = c_matrices(n, k)
    out = np.zeros((2 * n - 1, 2 * n - 1))
    out[1:n, 1:n] = c_plain / quarter
    out[1:n, n:] = (c_plain + c_shift) / quarter
    out[n:, 1:n] = (c_plain + c_shift.T) / quarter
    out[n:, n:] = c_plain
    return sub_weight * out


def special_laplacian(n: int) -> np.ndarray:
    """Closed-form pseudoinverse of ``-1/2 * P D P`` for the gear graph.

    Positive semidefinite with zero row sums and rank ``n - 1``; the
    nonzero spectrum is ``(2n-1)/(n+4)`` together with the values
    ``-2/theta(n, k)``.

    Built in floating point from three circulant first rows, each a sum
    of the :func:`b_matrix` cosine rows over the lower half of the k
    range, weighted by ``_pair_weights`` and taken as one matrix product
    in O(n^2).  The rank-one part of :func:`a_matrix`, from the same
    ``_rank_one`` vector, and, for odd n, the alternating row of
    :func:`h_matrix` are added in float; writing the dense output
    dominates the cost.
    """
    _require_wheel_size(n)
    size = n - 1
    ks = np.arange(1, (n - 2) // 2 + 1)
    sub_weight, quarter = _pair_weights(n, ks)
    rim_weight = sub_weight / quarter
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
    # The rank-one part in float: 9(n-1)/(n+4)^2 * y y' with y = v / v[0].
    values, den, classes = _rank_one(n)
    y = (np.array(values) / values[0])[classes]
    out += (values[0] ** 2 / den) * np.outer(y, y)
    return out
