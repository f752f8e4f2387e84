"""Assembly of the closed-form pseudoinverse of the centered distances."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gearpinv.circulant import unit_root_powers
from gearpinv.eigen import jacobi_eigh, numerical_rank
from gearpinv.graphs import _gear_distance_rows, gear_distance_closed
from gearpinv.laplacian import (
    _a_rows,
    _b_rows,
    _h_rows,
    _laplacian_rows,
    a_matrix,
    b_matrix,
    c_matrices,
    h_matrix,
    special_laplacian,
)
from gearpinv.pinv import _formula_rows, gear_pinv_formula
from gearpinv.spectral import q_vector, theta


def test_a_matrix_golden_corners():
    a5 = a_matrix(5)
    assert a5[0, 0] == Fraction(4, 9)
    assert a5[0, 1] == Fraction(1, 9)
    assert a5[0, 5] == Fraction(-2, 9)
    a6 = a_matrix(6)
    assert a6[0, 0] == Fraction(9, 20)
    assert a6[0, 1] == Fraction(3, 25)


def test_a_matrix_symmetric_rank_one_zero_row_sums():
    for n in (4, 7, 10):
        a = a_matrix(n)
        assert (a == a.T).all()
        assert (a.sum(axis=1) == Fraction(0)).all()
        # Rank one: every 2x2 minor with the hub row and column vanishes.
        for i in (1, n, n + 1):
            for j in (2, n - 1, n + 2):
                assert a[0, 0] * a[i, j] == a[0, j] * a[i, 0]


def _textbook_a(n):
    """A entry by entry: 9(n-1)/(n+4)^2 * y_i y_j, y as in the paper."""
    y = [Fraction(1)] + [Fraction(n - 2, 3 * (n - 1))] * (n - 1)
    y += [Fraction(-(n + 1), 3 * (n - 1))] * (n - 1)
    scale = Fraction(9 * (n - 1), (n + 4) ** 2)
    return [[scale * yi * yj for yj in y] for yi in y]


def _textbook_h(n):
    """H entry by entry: (-1)^(r+s)/(n-1) on the cycle block, zero elsewhere."""
    out = [[Fraction(0)] * (2 * n - 1) for _ in range(2 * n - 1)]
    for r in range(n - 1):
        for s in range(n - 1):
            out[1 + r][1 + s] = Fraction((-1) ** (r + s), n - 1)
    return out


@pytest.mark.parametrize("n", range(4, 41))
def test_exact_parts_equal_textbook_entries(n):
    parts = [(a_matrix(n), _textbook_a(n))]
    if n % 2 == 1:
        parts.append((h_matrix(n), _textbook_h(n)))
    for built, textbook in parts:
        assert built.tolist() == textbook
        assert all(type(x) is Fraction for x in built.flat)


def test_c_matrices_entrywise_definition():
    for n, k in [(6, 1), (6, 2), (9, 4), (7, 5)]:
        plain, shifted = c_matrices(n, k)
        size = n - 1
        for r in range(size):
            for s in range(size):
                expected = np.cos(2 * np.pi * (r - s) * k / size)
                assert abs(plain[r, s] - expected) < 1e-14
                expected = np.cos(2 * np.pi * (r - s - 1) * k / size)
                assert abs(shifted[r, s] - expected) < 1e-14


def test_c_matrices_reduce_the_angle_before_the_cosine():
    # The reference takes m = (r - s) k mod 999 and folds it to min(m, 999 - m),
    # an angle of at most pi.  Unreduced angles of up to 2 pi k lose about 1e-12
    # at n = 1000.
    def cosine(m):
        m %= 999
        return math.cos(2 * math.pi * min(m, 999 - m) / 999)

    rng = np.random.default_rng(7)
    for k in (1, 2, 333, 499, 500, 700, 997, 998):
        plain, shifted = c_matrices(1000, k)
        for r, s in rng.integers(0, 999, size=(40, 2)).tolist():
            assert abs(plain[r, s] - cosine((r - s) * k)) <= 4e-16
            assert abs(shifted[r, s] - cosine((r - s - 1) * k)) <= 4e-16


def test_c_matrix_symmetry_and_shift_relation():
    for n, k in [(8, 2), (11, 3)]:
        plain, shifted = c_matrices(n, k)
        size = n - 1
        assert np.allclose(plain, plain.T, atol=1e-14)
        # Shifting the column index by one turns C into its shifted mate.
        rolled = plain[:, (np.arange(size) + 1) % size]
        assert np.allclose(shifted, rolled, atol=1e-14)


def test_c_matrix_is_character_outer_product():
    n, k = 9, 2
    size = n - 1
    powers = unit_root_powers(size)
    v = powers[(np.arange(size) * k) % size]
    plain, _ = c_matrices(n, k)
    assert np.allclose(plain, np.real(np.outer(v, np.conj(v))), atol=1e-12)


def test_b_matrix_shape_and_hub_zeroes():
    b = b_matrix(6, 2)
    assert b.shape == (11, 11)
    assert not b[0, :].any()
    assert not b[:, 0].any()
    assert np.allclose(b, b.T, atol=1e-14)


def test_b_matrix_known_scale_n6():
    # Both pair indices for n = 6 share the overall factor 2/25, and the
    # subdivision block is the plain cosine matrix times that factor.
    for k in (1, 2):
        b = b_matrix(6, k)
        plain, _ = c_matrices(6, k)
        assert np.allclose(b[6:, 6:], (2.0 / 25.0) * plain, atol=1e-13)


def test_b_matrix_row_sums_vanish():
    for n, k in [(6, 1), (9, 3), (12, 5)]:
        b = b_matrix(n, k)
        assert np.max(np.abs(b @ np.ones(2 * n - 1))) < 1e-10


def test_b_matrix_pair_symmetry():
    for n in range(4, 16):
        for k in range(1, n - 1):
            if n % 2 == 1 and 2 * k == n - 1:
                continue
            gap = np.max(np.abs(b_matrix(n, k) - b_matrix(n, n - 1 - k)))
            assert gap < 1e-12


def test_b_matrix_rejects_degenerate_and_out_of_range():
    with pytest.raises(ValueError, match="vanishes"):
        b_matrix(7, 3)
    with pytest.raises(ValueError):
        b_matrix(6, 0)
    with pytest.raises(ValueError):
        b_matrix(6, 5)


def test_h_matrix_golden_n5():
    h = h_matrix(5)
    quarter = Fraction(1, 4)
    assert h[1, 1] == quarter
    assert h[1, 2] == -quarter
    assert h[2, 2] == quarter
    assert h[0, 0] == 0
    assert not h[5:, :].astype(bool).any()


def test_h_matrix_is_exact_projector_with_zero_row_sums():
    for n in (5, 7, 9, 11):
        h = h_matrix(n)
        assert (h == h.T).all()
        assert (h @ h == h).all()
        assert (h.sum(axis=1) == Fraction(0)).all()


def test_h_matrix_rejects_even_n():
    with pytest.raises(ValueError, match="odd"):
        h_matrix(6)


def test_h_matrix_matches_alternating_projection():
    for n in (5, 9):
        q = q_vector(n, (n - 1) // 2).real
        outer = np.outer(q, q) / (q @ q)
        assert np.max(np.abs(h_matrix(n).astype(float) - outer)) < 1e-15


def test_special_laplacian_golden_n5(golden_laplacian_5):
    gap = np.abs(special_laplacian(5) - golden_laplacian_5.astype(float))
    assert np.max(gap) < 1e-12


def test_special_laplacian_golden_n6(golden_laplacian_6):
    gap = np.abs(special_laplacian(6) - golden_laplacian_6.astype(float))
    assert np.max(gap) < 1e-12


def _dense_sum_reference(n):
    """The assembly as a dense sum of its parts: a + (h) + sum of b_matrix."""
    total = np.zeros((2 * n - 1, 2 * n - 1))
    for k in range(1, (n - 2) // 2 + 1):
        total += b_matrix(n, k)
    exact = a_matrix(n)
    if n % 2 == 1:
        exact = exact + h_matrix(n)
    return total + exact.astype(float)


@pytest.mark.parametrize(
    "n", list(range(4, 61)) + [101, 150, 151, 200, 251, 300, 400]
)
def test_special_laplacian_matches_dense_sum_of_parts(n):
    gap = np.max(np.abs(special_laplacian(n) - _dense_sum_reference(n)))
    assert gap <= 1e-12


def test_special_laplacian_row_sums_and_psd():
    for n in range(4, 15):
        lap = special_laplacian(n)
        assert np.max(np.abs(lap @ np.ones(2 * n - 1))) < 1e-10
        values, _ = jacobi_eigh(lap)
        assert values[0] > -1e-9
        assert numerical_rank(values) == n - 1


def test_special_laplacian_nonzero_spectrum():
    for n in range(4, 15):
        # Size 2n-1 with rank n-1 leaves an n-dimensional kernel.
        expected = [(2 * n - 1) / (n + 4)]
        expected += [-2.0 / theta(n, k) for k in range(1, n - 1)]
        expected += [0.0] * n
        values, _ = jacobi_eigh(special_laplacian(n))
        assert np.max(np.abs(np.sort(expected) - values)) < 1e-8


@pytest.mark.parametrize("n", [600, 601, 999, 1000])
def test_special_laplacian_kernel_and_eigenvectors_at_large_n(n):
    lap = special_laplacian(n)
    # Row sums within about 70 ulps of max|L|, which is near 0.27 here.
    assert np.max(np.abs(lap.sum(axis=1))) <= 4e-15
    ks = range(1, n - 1)
    q = np.column_stack([q_vector(n, k) for k in ks])
    values = np.array([-2.0 / theta(n, k) for k in ks])
    residual = np.max(np.abs(lap @ q - q * values), axis=0)
    assert (residual <= 1e-14 * np.max(np.abs(q), axis=0)).all()


def test_spectral_projections_sum_to_cosine_blocks():
    # Rebuilding the cosine contributions from the eigenvectors themselves
    # must reproduce the half-range assembly; this pins the normalization
    # (n-1)(2 cos + 1/(2 cos))^2 hidden inside each block.
    for n in range(4, 13):
        total = np.zeros((2 * n - 1, 2 * n - 1))
        for k in range(1, n - 1):
            if n % 2 == 1 and 2 * k == n - 1:
                continue
            q = q_vector(n, k)
            norm2 = np.real(np.vdot(q, q))
            total += (-2.0 / theta(n, k)) * np.real(np.outer(q, np.conj(q))) / norm2
        half = (n - 2) // 2 if n % 2 == 0 else (n - 3) // 2
        rebuilt = sum(b_matrix(n, k) for k in range(1, half + 1))
        assert np.max(np.abs(total - rebuilt)) < 1e-9


def _assert_rotated_from_generating_rows(dense, rows, n):
    """Rows 0, 1 and n of ``dense`` are ``rows``; each later row rotates the one above it."""
    assert np.array_equal(dense[[0, 1, n]], rows)
    blocks = (slice(0, 1), slice(1, n), slice(n, 2 * n - 1))
    for first in (1, n):
        for block in blocks:
            below, above = dense[first + 1:first + n - 1, block], dense[first:first + n - 2, block]
            assert np.array_equal(below, np.roll(above, 1, axis=1)), (first, block)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 12, 31, 150, 151])
def test_gear_matrices_are_their_generating_rows_rotated(n):
    for dense, rows in ((special_laplacian(n), _laplacian_rows(n)),
                        (gear_pinv_formula(n), _formula_rows(n))):
        # Bit for bit: -0.0 and 0.0 differ here.
        _assert_rotated_from_generating_rows(dense.view(np.int64), rows.view(np.int64), n)
    _assert_rotated_from_generating_rows(a_matrix(n), _a_rows(n), n)
    if n % 2 == 1:
        _assert_rotated_from_generating_rows(h_matrix(n), _h_rows(n), n)
    dist = gear_distance_closed(n)
    assert dist.dtype == np.int64
    _assert_rotated_from_generating_rows(dist, _gear_distance_rows(n), n)
    for k in range(1, n - 1):
        if n % 2 == 0 or 2 * k != n - 1:
            dense, rows = b_matrix(n, k), _b_rows(n, k)
            _assert_rotated_from_generating_rows(dense.view(np.int64), rows.view(np.int64), n)


def test_small_n_rejected():
    for func in (a_matrix, special_laplacian):
        with pytest.raises(ValueError, match="≥ 4"):
            func(3)
