"""Circulant construction and closed-form spectra."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gearpinv.circulant import (
    _blocks_dot,
    _circulant_blocks,
    circ,
    circ_eigen,
    circulant,
    s_spectrum,
    t_spectrum,
    unit_root_powers,
)
from gearpinv.graphs import (
    _gear_distance_rows,
    _wheel_distance_rows,
    rim_to_sub_row,
    sub_to_sub_row,
)
from gearpinv.spectral import theta

rows = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=10),
    min_size=1,
    max_size=10,
)


def test_circulant_shift_convention():
    m = circulant([0, 1, 2])
    assert np.array_equal(m, [[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def test_circulant_dtype_follows_the_row():
    assert circulant([0, 1, 2]).dtype == np.int64
    m = circulant([Fraction(1, 2), Fraction(3)])
    assert m.dtype == object
    assert m[1, 0] == Fraction(3) and isinstance(m[1, 0], Fraction)
    assert circulant(np.array([0.5, 1.5])).dtype == np.float64


def test_circulant_rejects_empty():
    with pytest.raises(ValueError):
        circulant([])
    with pytest.raises(ValueError, match="positive"):
        unit_root_powers(0)


def test_circ_coerces_to_fractions():
    m = circ(["1/2", 3])
    assert m.dtype == object
    assert m[0, 0] == Fraction(1, 2)
    assert m[1, 0] == Fraction(3)


def test_circ_constant_row_sums():
    m = circ((1, 3, 3, 1))
    sums = m.sum(axis=1)
    assert (sums == Fraction(8)).all()


def test_mixed_block_is_not_symmetric():
    m = circ(rim_to_sub_row(6))
    assert (m != m.T).any()
    assert (m.T == circ([1, 1, 3, 3, 3])).all()


def test_unit_root_powers_stay_on_circle():
    powers = unit_root_powers(300)
    assert np.max(np.abs(np.abs(powers) - 1.0)) < 1e-14
    reference = np.exp(2j * np.pi * np.arange(300) / 300)
    assert np.max(np.abs(powers - reference)) < 1e-12


def test_unit_root_powers_of_opposite_indices_are_exact_conjugates():
    for size in range(3, 301):
        powers = unit_root_powers(size)
        assert powers.shape == (size,) and powers[0] == 1
        m = np.arange(1, size)
        assert np.array_equal(powers[size - m], powers[m].conjugate())


def test_blocks_dot_is_the_product_with_the_gathered_matrix():
    # Small integers keep both sides exact in float, so they must agree bit for bit.
    rng = np.random.default_rng(27)
    cases = []
    for n in range(4, 61):
        cases += [_gear_distance_rows(n), _wheel_distance_rows(n)]
    for rings in (1, 2, 3):
        for size in range(1, 13):
            shape = (rings + 1, 1 + rings * size)
            cases.append(rng.integers(-3, 4, size=shape))
            # Every entry distinct: all but one entry of each block is an exception.
            cases.append(rng.permutation(np.prod(shape)).reshape(shape) - 5)
    for rows in cases:
        x = rng.integers(-9, 10, size=(rows.shape[1], 5)).astype(float)
        assert np.array_equal(_blocks_dot(rows, x), _circulant_blocks(rows) @ x)
        assert np.array_equal(_blocks_dot(rows, x[:, 0]), _circulant_blocks(rows) @ x[:, 0])


def test_blocks_dot_of_complex_columns_matches_the_dense_product():
    rng = np.random.default_rng(28)
    for n in range(4, 61):
        rows = _gear_distance_rows(n)
        dense = _circulant_blocks(rows)
        x = rng.standard_normal((2 * n - 1, 6)) + 1j * rng.standard_normal((2 * n - 1, 6))
        scale = np.abs(dense) @ np.abs(x)
        assert np.all(np.abs(_blocks_dot(rows, x) - dense @ x) <= 1e-15 * scale)


def test_circ_eigen_known_vanishing_value():
    # (1, 3, 3, 1) pairs with the alternating character to 1 - 3 + 3 - 1.
    pairs = circ_eigen((1, 3, 3, 1))
    assert abs(pairs[2][0]) < 1e-14


def test_circ_eigen_residuals_and_orthogonality():
    first_row = [2, -1, 0, 5, 5]
    matrix = circulant(first_row).astype(complex)
    pairs = circ_eigen(first_row)
    for sigma, vector in pairs:
        assert np.max(np.abs(matrix @ vector - sigma * vector)) < 1e-12
    for a in range(5):
        for b in range(a + 1, 5):
            inner = np.vdot(pairs[a][1], pairs[b][1])
            assert abs(inner) < 1e-10


@settings(deadline=None)
@given(rows)
def test_circ_eigen_trace_identity(first_row):
    size = len(first_row)
    pairs = circ_eigen(first_row)
    total = sum(sigma for sigma, _ in pairs)
    scale = 1.0 + max(abs(float(c)) for c in first_row)
    assert abs(total - size * float(first_row[0])) < 1e-10 * size * scale


@settings(deadline=None)
@given(rows)
def test_circ_eigen_residual_property(first_row):
    matrix = circulant([float(c) for c in first_row]).astype(complex)
    scale = 1.0 + max(abs(float(c)) for c in first_row)
    for sigma, vector in circ_eigen(first_row):
        residual = np.max(np.abs(matrix @ vector - sigma * vector))
        assert residual < 1e-10 * len(first_row) * scale


def test_t_spectrum_matches_dense_route():
    for n in range(4, 18):
        block = sub_to_sub_row(n)
        dense = [sigma for sigma, _ in circ_eigen(block)]
        closed = t_spectrum(n)
        assert len(closed) == n - 1
        for a, b in zip(closed, dense):
            assert abs(a - b) < 1e-9


def test_s_spectrum_matches_dense_route():
    for n in range(4, 18):
        block = rim_to_sub_row(n)
        dense = [sigma for sigma, _ in circ_eigen(block)]
        closed = s_spectrum(n)
        for a, b in zip(closed, dense):
            assert abs(a - b) < 1e-9


def test_spectrum_heads_are_row_sums():
    for n in (4, 9, 14):
        assert t_spectrum(n)[0] == 4 * (n - 3)
        assert s_spectrum(n)[0] == 3 * n - 7


def test_spectrum_small_n_rejected():
    with pytest.raises(ValueError):
        t_spectrum(3)
    with pytest.raises(ValueError):
        s_spectrum(3)


def test_theta_is_read_from_the_subdivision_spectrum():
    # One table of symbols: theta is t_spectrum's entry less 2, bit for bit.  At n = 130
    # a second copy of the formula, -8*math.cos(...)**2, would differ in the last bit.
    for n in [*range(4, 61), 130, 299, 300, 301, 1000]:
        taus, sigmas = t_spectrum(n), s_spectrum(n)
        assert all(type(x) is float for x in taus)
        assert all(type(x) is complex for x in sigmas)
        assert [theta(n, k) for k in range(1, n - 1)] == [tau - 2.0 for tau in taus[1:]]
