"""Exact elimination, determinant, and inverse on Fraction matrices."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gearpinv.rational import (
    det,
    invert,
    is_psd,
    rational,
    rational_identity,
    rational_matrix,
    rational_vector,
    rref,
)

F = Fraction

entries = st.fractions(
    min_value=-9, max_value=9, max_denominator=5
)


def square(order, big=entries):
    return st.lists(
        st.lists(big, min_size=order, max_size=order),
        min_size=order,
        max_size=order,
    )


def test_rational_coercion():
    assert rational("3/6") == F(1, 2)
    assert rational(7) == F(7)
    assert rational(F(2, 4)) == F(1, 2)


def test_rational_matrix_shape_and_entries():
    m = rational_matrix([[1, "1/2"], [0, 3]])
    assert m.dtype == object
    assert m[0, 1] == F(1, 2)
    with pytest.raises(ValueError):
        rational_matrix([[1, 2], [3]])


def test_is_psd_golden():
    assert is_psd(rational_matrix([[1, 1], [1, 1]]))
    assert is_psd(rational_matrix([[0, 0], [0, 0]]))
    assert is_psd(rational_matrix([["1/3", "1/6"], ["1/6", "1/12"]]))
    assert not is_psd(rational_matrix([[1, 0], [0, -1]]))
    # A zero pivot with a nonzero remaining entry: indefinite.
    assert not is_psd(rational_matrix([[0, 1], [1, 0]]))
    assert not is_psd(rational_matrix([[1, 1], [1, "999/1000"]]))
    with pytest.raises(ValueError, match="symmetric"):
        is_psd(rational_matrix([[1, 2], [0, 1]]))
    with pytest.raises(ValueError, match="square"):
        is_psd(rational_matrix([[1, 2]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(square(k), st.integers(0, k - 1))))
def test_is_psd_on_gram_products(data):
    rows, drop = data
    b = rational_matrix(rows)
    gram = b @ b.T
    assert is_psd(gram)
    # A negative diagonal entry rules out semidefiniteness.
    if gram[drop, drop] > 0:
        gram[drop, drop] = -gram[drop, drop]
        assert not is_psd(gram)


def test_rref_known_matrix():
    m = rational_matrix([[1, 2, 3], [2, 4, 7], [1, 2, 4]])
    reduced, pivots = rref(m)
    assert pivots == [0, 2]
    expected = rational_matrix([[1, 2, 0], [0, 0, 1], [0, 0, 0]])
    assert (reduced == expected).all()


def test_rref_identity_fixed_point():
    eye = rational_identity(4)
    reduced, pivots = rref(eye)
    assert (reduced == eye).all()
    assert pivots == [0, 1, 2, 3]


def test_rref_zero_matrix():
    z = rational_matrix([[0, 0], [0, 0]])
    reduced, pivots = rref(z)
    assert pivots == []
    assert (reduced == z).all()


@settings(deadline=None)
@given(square(4))
def test_rref_is_idempotent(rows):
    reduced, pivots = rref(rational_matrix(rows))
    again, pivots2 = rref(reduced)
    assert (again == reduced).all()
    assert pivots2 == pivots


@settings(deadline=None)
@given(square(4))
def test_rref_preserves_row_space_dimension(rows):
    m = rational_matrix(rows)
    reduced, pivots = rref(m)
    # Every original row must be a combination of the pivot rows: appending
    # one original row cannot raise the rank.
    rank = len(pivots)
    for r in range(4):
        stacked = np.vstack([reduced[:rank], m[r : r + 1]])
        assert len(rref(stacked)[1]) == rank


def test_det_golden_values():
    assert det(rational_matrix([[1, 2], [3, 4]])) == F(-2)
    assert det(rational_matrix([["1/2", 0], [5, "2/3"]])) == F(1, 3)
    assert det(rational_matrix([[1, 2], [2, 4]])) == 0
    assert det(rational_identity(5)) == 1


def test_det_rejects_rectangular():
    with pytest.raises(ValueError):
        det(rational_matrix([[1, 2, 3], [4, 5, 6]]))


def _laplace_det(m) -> Fraction:
    # Cofactor expansion along the first row: an independent, obviously
    # correct (if slow) determinant for cross-checking.
    order = m.shape[0]
    if order == 1:
        return m[0, 0]
    total = F(0)
    for col in range(order):
        minor = np.delete(np.delete(m, 0, axis=0), col, axis=1)
        total += (-1) ** col * m[0, col] * _laplace_det(minor)
    return total


@settings(deadline=None)
@given(square(4))
def test_det_matches_cofactor_expansion(rows):
    m = rational_matrix(rows)
    assert det(m) == _laplace_det(m)


@settings(deadline=None)
@given(square(3))
def test_det_is_multiplicative(a_rows):
    a = rational_matrix(a_rows)
    b = rational_matrix([[1, 2, 0], [0, 1, 5], [1, 0, 1]])
    assert det(a @ b) == det(a) * det(b)


def test_invert_golden():
    m = rational_matrix([[2, 0], [1, 3]])
    expected = rational_matrix([["1/2", 0], ["-1/6", "1/3"]])
    assert (invert(m) == expected).all()


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        invert(rational_matrix([[1, 2], [2, 4]]))


@settings(deadline=None)
@given(square(3))
def test_invert_against_product(rows):
    m = rational_matrix(rows)
    if det(m) == 0:
        with pytest.raises(ValueError):
            invert(m)
        return
    eye = rational_identity(3)
    inv = invert(m)
    assert (m @ inv == eye).all()
    assert (inv @ m == eye).all()


def test_rational_vector():
    v = rational_vector([1, "2/4"])
    assert v[1] == F(1, 2)
    assert v.dtype == object
