"""Circulant matrices and their closed-form spectra."""

from __future__ import annotations

import numpy as np

from .rational import rational


def _require_wheel_size(n: int) -> None:
    if n < 4:
        raise ValueError("n must be ≥ 4")


def _require_pair_index(n: int, k: int) -> None:
    _require_wheel_size(n)
    if not 1 <= k <= n - 2:
        raise ValueError("k must satisfy 1 ≤ k ≤ n-2")


def circulant(first_row) -> np.ndarray:
    """Square matrix with ``M[r, s] = first_row[(s - r) % size]``.

    Every row is the previous one shifted one place to the right.  The
    dtype follows the input (ints give an integer matrix, Fractions an
    object matrix).
    """
    row = np.asarray(first_row)
    if row.ndim != 1 or row.size == 0:
        raise ValueError("first row must be a nonempty sequence")
    index = np.arange(row.size)
    return row[(index[None, :] - index[:, None]) % row.size]


def _circulant_blocks(rows: np.ndarray) -> np.ndarray:
    """The matrix of a hub and equal rings whose rows 0, 1, 1 + size, ... are ``rows``.

    Below the hub row, every row of a ring (the wheel's cycle, or the
    gear's cycle and subdivision) is the row above it rotated one place
    to the right within each column block: the hub column and one block
    per ring.  The wheel's D and the gear's D, L, D+, A, B and H all have
    this shape, so their generating rows fix them.
    """
    size = (rows.shape[1] - 1) // (len(rows) - 1)
    rotations = circulant(np.arange(size))  # (s - r) mod size at [r, s]
    out = np.empty((rows.shape[1],) * 2, dtype=rows.dtype)
    out[0] = rows[0]
    for first, row in zip(range(1, rows.shape[1], size), rows[1:]):
        out[first:first + size, 0] = row[0]
        for block in range(1, row.size, size):
            out[first:first + size, block:block + size] = row[block:block + size][rotations]
    return out


def _blocks_dot(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_circulant_blocks(rows) @ x`` without building the matrix.

    A ring block with first row c maps x's block to
    ``(C x)[r] = sum_e c[e] x[(r + e) % size]``: the block's most common
    entry times the column sums, plus one wrapped slice-add for each entry
    that differs from it.  The cost is O(size * columns * exceptions), so
    this is meant for rows with few distinct values, such as the gear's
    D (eight slice-adds in all).
    """
    size = (rows.shape[1] - 1) // (len(rows) - 1)
    out = np.empty(x.shape, dtype=np.result_type(rows, x))
    out[0] = rows[0] @ x
    for first, row in zip(range(1, rows.shape[1], size), rows[1:].tolist()):
        base, stencil = row[0] * x[0], []
        for block in range(1, len(row), size):
            entries, part = row[block:block + size], x[block:block + size]
            common = max(set(entries), key=entries.count)
            base = base + common * part.sum(axis=0)
            stencil += [(entry - common, e, part)
                        for e, entry in enumerate(entries) if entry != common]
        ring = out[first:first + size]
        ring[:] = base
        for weight, e, part in stencil:
            ring[:size - e] += weight * part[e:]
            if e:
                ring[size - e:] += weight * part[:e]
    return out


def circ(first_row) -> np.ndarray:
    """Rational circulant; entries are coerced to Fraction."""
    return circulant([rational(x) for x in first_row])


def unit_root_powers(size: int) -> np.ndarray:
    """Powers ``w**0 .. w**(size-1)`` of ``w = exp(2*pi*i/size)``."""
    if size < 1:
        raise ValueError("size must be positive")
    # Angles below pi, then -1 at pi for even sizes, then the first half mirrored:
    # the powers of m and size - m are exact conjugates.
    half = np.exp(2j * np.pi * np.arange((size + 1) // 2) / size)
    return np.concatenate([half, [-1.0] * (1 - size % 2), half[:0:-1].conj()])


def _characters(powers: np.ndarray, ms) -> np.ndarray:
    """Characters as columns: ``powers[r*ms[j] % size]`` at ``[r, j]``."""
    return powers[np.outer(np.arange(powers.size), ms) % powers.size]


def circ_eigen(first_row) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs ``(sigma_m, v_m)`` of the circulant, ``m = 0..size-1``.

    ``sigma_m`` is the first row paired with the m-th character,
    ``sigma_m = sum_p c_p w**(p*m)`` (an inverse DFT scaled by the
    size), and ``v_m = (w**(m*r))_r``.  The vectors for distinct ``m``
    are mutually orthogonal.
    """
    coeffs = [float(rational(x)) for x in first_row]
    size = len(coeffs)
    sigmas = size * np.fft.ifft(coeffs)
    chars = _characters(unit_root_powers(size), np.arange(size))  # symmetric: row m is v_m
    return [(complex(sigmas[m]), chars[m]) for m in range(size)]


def _gear_symbols(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one table of the gear's symbols on the cycle's characters k = 0..n-2.

    ``phi_k = cos(pi*k/(n-1))``, the mixed block's eigenvalue ``sigma_k = -2(1 + w**(-k))``
    with ``w = exp(2*pi*i/(n-1))``, and the subdivision block's ``tau_k = -8*phi_k**2``;
    at k = 0 the row sums ``3n - 7`` and ``4(n-3)`` stand for the last two.
    """
    _require_wheel_size(n)
    size = n - 1
    phi = np.cos(np.pi * np.arange(size) / size)
    sigma = -2.0 * (1.0 + unit_root_powers(size).conj())  # conj(w**k) = w**(-k)
    tau = -8.0 * phi**2
    sigma[0], tau[0] = 3 * n - 7, 4 * (n - 3)
    return phi, sigma, tau


def t_spectrum(n: int) -> list[float]:
    """Eigenvalues of the subdivision-block circulant: ``4(n-3)``, then ``tau_k`` for k >= 1."""
    return _gear_symbols(n)[2].tolist()


def s_spectrum(n: int) -> list[complex]:
    """Eigenvalues of the mixed cycle/subdivision block: ``3n - 7``, then ``sigma_k`` for k >= 1."""
    return _gear_symbols(n)[1].tolist()
