"""Circulant matrices and their closed-form spectra."""

from __future__ import annotations

import math

import numpy as np

from .graphs import _require_wheel_size
from .rational import rational


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
    """The gear matrix whose rows 0, 1 and n are ``rows``.

    Below the hub row, every cycle and subdivision row is the row above
    it rotated one place to the right within each column block: the hub
    column, the cycle block and the subdivision block.  D, L, D+, A, B
    and H all have this shape, so their three generating rows fix them.
    """
    size = (rows.shape[1] - 1) // 2
    rotations = circulant(np.arange(size))  # (s - r) mod size at [r, s]
    out = np.empty((2 * size + 1, 2 * size + 1), dtype=rows.dtype)
    out[0] = rows[0]
    for first, row in ((1, rows[1]), (size + 1, rows[2])):
        out[first:first + size, 0] = row[0]
        out[first:first + size, 1:size + 1] = row[1:size + 1][rotations]
        out[first:first + size, size + 1:] = row[size + 1:][rotations]
    return out


def circ(first_row) -> np.ndarray:
    """Rational circulant; entries are coerced to Fraction."""
    return circulant([rational(x) for x in first_row])


def unit_root_powers(size: int) -> np.ndarray:
    """Powers ``w**0 .. w**(size-1)`` of ``w = exp(2*pi*i/size)``."""
    if size < 1:
        raise ValueError("size must be positive")
    return np.exp(2j * np.pi * np.arange(size) / size)


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


def t_spectrum(n: int) -> list[float]:
    """Eigenvalues of the subdivision-block circulant of the gear graph.

    One eigenvalue ``4(n-3)`` for the constant vector, then
    ``-8*cos(pi*m/(n-1))**2`` for ``m = 1..n-2``.
    """
    _require_wheel_size(n)
    size = n - 1
    values = [4.0 * (n - 3)]
    values += [-8.0 * math.cos(math.pi * m / size) ** 2 for m in range(1, size)]
    return values


def s_spectrum(n: int) -> list[complex]:
    """Eigenvalues of the mixed cycle/subdivision circulant block.

    One eigenvalue ``3n - 7``, then ``-2(1 + w**(-m))`` for
    ``m = 1..n-2`` with ``w = exp(2*pi*i/(n-1))``.
    """
    _require_wheel_size(n)
    size = n - 1
    powers = unit_root_powers(size)
    values: list[complex] = [complex(3 * n - 7)]
    values += [-2.0 * (1.0 + powers[(-m) % size]) for m in range(1, size)]
    return values
