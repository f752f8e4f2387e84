"""Building blocks of the closed-form pseudoinverse for gear graphs.

The target matrix L is the Moore-Penrose inverse of ``-1/2 * P D P``
where D is the gear distance matrix and P the centering projector.  The
paper assembles it from a rank-one rational part (:func:`a_matrix`),
cosine circulant blocks, one per eigenvalue pair of the distance matrix
(:func:`b_matrix`), and, for odd n, an alternating-sign rational block
(:func:`h_matrix`); :func:`special_laplacian` takes all but the first
as one FFT.  Their cosines and symbols come from the one table
``circulant._gear_symbols``.  Vertex 0 is the hub, 1..n-1 the cycle and
n..2n-2 the subdivision.
"""

from __future__ import annotations

import numpy as np

from .circulant import (
    _circulant_blocks, _gear_rows, _gear_symbols, _require_pair_index, _require_wheel_size,
    circulant, unit_root_powers,
)
from .rational import unscaled


def _rank_one(n: int) -> tuple[list[int], int, np.ndarray]:
    """The rank-one part ``v v' / den`` by vertex class: (v, den, classes).

    v is 3(n-1) on the hub (class 0), n-2 on the cycle (class 1) and
    -(n+1) on the subdivision (class 2); ``den = (n+4)^2 (n-1)``.
    """
    classes = np.repeat([0, 1, 2], [1, n - 1, n - 1])
    return [3 * (n - 1), n - 2, -(n + 1)], (n + 4) ** 2 * (n - 1), classes


def _class_rows(values, den: int, classes: np.ndarray) -> np.ndarray:
    """Rows 0, 1 and n of the exact ``x x' / den`` with x = values[classes].

    One Fraction per pair of classes, shared by every entry of that value.
    """
    column = np.array(values, dtype=object)
    table = unscaled(np.outer(column, column), den)
    return table[classes[[0, 1, len(classes) // 2 + 1]][:, None], classes]


def _a_rows(n: int) -> np.ndarray:
    """The generating rows of :func:`a_matrix`."""
    _require_wheel_size(n)
    return _class_rows(*_rank_one(n))


def a_matrix(n: int) -> np.ndarray:
    """Rank-one rational part, an outer product scaled by 9(n-1)/(n+4)^2.

    The generating vector is 1 on the hub, (n-2)/(3(n-1)) on the cycle
    block, and -(n+1)/(3(n-1)) on the subdivision block; it is
    orthogonal to the all-ones vector.  Built from its integer form in
    ``_rank_one``, one Fraction per pair of vertex classes.
    """
    return _circulant_blocks(_a_rows(n))


def _h_rows(n: int) -> np.ndarray:
    """The generating rows of :func:`h_matrix`."""
    _require_wheel_size(n)
    if n % 2 == 0:
        raise ValueError("the alternating block exists only for odd n")
    classes = np.zeros(2 * n - 1, dtype=int)  # hub and subdivision: 0
    classes[1:n] = 1 + np.arange(n - 1) % 2
    return _class_rows([0, 1, -1], n - 1, classes)


def h_matrix(n: int) -> np.ndarray:
    """Alternating-sign rational block used only for odd n.

    ``(-1)**(r+s) / (n-1)`` on the cycle block, zero elsewhere.  Equals
    the normalized outer product of the alternating eigenvector with
    itself, which is what makes the odd assembly close.  Circulant on
    the cycle, since ``(-1)**(r+s) = (-1)**(s-r)`` and n - 1 is even.
    """
    return _circulant_blocks(_h_rows(n))


def _cosine_row(n: int, k: int) -> np.ndarray:
    """``cos(2*pi*s*k/(n-1))`` for s < n-1, from unit roots at angles folded into [0, pi]."""
    _require_pair_index(n, k)
    size = n - 1
    return unit_root_powers(size).real[np.arange(size) * k % size]  # even: C is symmetric


def c_matrices(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosine circulants of order n-1 for the k-th eigenvalue pair.

    Returns ``(C, C_shift)`` with ``C[r, s] = cos(2*pi*(r-s)*k/(n-1))``
    and ``C_shift[r, s] = cos(2*pi*(r-s-1)*k/(n-1))``.  C is symmetric;
    both are real parts of character outer products.
    """
    row = _cosine_row(n, k)
    return circulant(row), circulant(np.roll(row, -1))


def _b_rows(n: int, k: int) -> np.ndarray:
    """The generating rows of :func:`b_matrix`."""
    row = _cosine_row(n, k)
    if n % 2 == 1 and 2 * k == n - 1:
        raise ValueError("cos(pi*k/(n-1)) vanishes: no cosine block at this k")
    size = n - 1
    phi, _, tau = _gear_symbols(n)
    phi, quarter = float(phi[k]), tau[k] / -2.0  # quarter = 4 phi**2
    # Squared by a product, which is correctly rounded where libm pow need not be.
    spread = 2.0 * phi + 1.0 / (2.0 * phi)
    sub_weight = 2.0 / (size * (spread * spread))
    mixed = (row + np.roll(row, -1)) / quarter
    return sub_weight * _gear_rows((0.0, 0.0, 0.0), row / quarter, mixed, row)


def b_matrix(n: int, k: int) -> np.ndarray:
    """Contribution of the k-th eigenvalue pair to the assembled matrix.

    Symmetric, zero on the hub row and column, with row sums that vanish
    up to rounding.  Invariant under ``k -> n-1-k``, so the paper's
    assembly sums it over the lower half of the k range only.  With
    ``phi = cos(pi k/(n-1))`` the subdivision block weight is ``2 /
    ((n-1) (2 phi + 1/(2 phi))^2)`` and the cycle weight is that over
    ``4 phi^2``.  Its blocks are circulant: rows 0, 1 and n fix it.

    Raises
    ------
    ValueError
        For odd n at ``k = (n-1)/2`` where ``cos(pi*k/(n-1)) = 0`` and
        this block degenerates (the alternating block takes over).
    """
    return _circulant_blocks(_b_rows(n, k))


def _laplacian_rows(n: int) -> np.ndarray:
    """Rows 0, 1 and n of :func:`special_laplacian`, the source of all its entries."""
    size = n - 1
    _, sigma, tau = _gear_symbols(n)
    weights = -2.0 / (tau - 2.0) ** 2
    weights[0] = 0.0  # the constant character is the rank-one part's
    symbols = weights * np.stack([np.full(size, -2.0), sigma, tau])
    # A circulant's first row is the FFT of its eigenvalues over its order.
    rows = _gear_rows((0.0, 0.0, 0.0), *np.fft.fft(symbols).real / size)
    # The rank-one part in float: 9(n-1)/(n+4)^2 * y y' with y = v / v[0].
    values, den, classes = _rank_one(n)
    y = (np.array(values) / values[0])[classes]
    rows += (values[0] ** 2 / den) * np.outer(y[[0, 1, n]], y)
    return rows


def special_laplacian(n: int) -> np.ndarray:
    """Closed-form pseudoinverse of ``-1/2 * P D P`` for the gear graph.

    Positive semidefinite with zero row sums and rank ``n - 1``; the
    nonzero spectrum is ``(2n-1)/(n+4)`` together with the values
    ``-2/theta(n, k)``.

    Built in floating point.  On each character k != 0 of the cycle and
    the subdivision, D acts as its rank-one block symbol ``S_k`` (from
    ``sigma_k`` and ``tau_k`` in ``circulant._gear_symbols``, the one table of
    the gear's symbols) with trace ``theta_k``, so L acts
    as ``-2 S_k / theta_k^2``.  One FFT of those symbols gives the three
    circulant first rows in O(n log n), the alternating row of
    :func:`h_matrix` included for odd n.  The rank-one part of
    :func:`a_matrix`, from ``_rank_one``, is added in float to the
    generating rows 0, 1 and n (``_laplacian_rows``), and one index
    gather (``_circulant_blocks``) spreads them over the matrix.  The
    CLI writes its JSON from those three rows without this matrix.
    """
    return _circulant_blocks(_laplacian_rows(n))
