"""Exact elimination, determinant, inverse and products on Fraction matrices."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gearpinv.pinv import rational_pinv
from gearpinv.rational import (
    det,
    dot,
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


def test_numpy_integers_become_python_ints():
    assert type(rational(np.int64(7)).numerator) is int
    # 2**40 over the common denominator 2**30 needs 70 bits.
    a = np.array([[np.int64(2**40), F(1, 2**30)]], dtype=object)
    b = np.array([[np.int64(2**40)], [np.int64(1)]], dtype=object)
    assert dot(a, b)[0, 0] == F(2**80) + F(1, 2**30)


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


@pytest.mark.parametrize(
    "compute, expected",
    [
        (lambda: rational_pinv(np.empty((0, 3), dtype=object)).shape, (3, 0)),
        (lambda: det(np.empty((0, 0), dtype=object)), 1),
        (lambda: invert(np.empty((0, 0), dtype=object)).shape, (0, 0)),
        (lambda: rref(np.empty((0, 3), dtype=object))[0].shape, (0, 3)),
    ],
    ids=["rational_pinv-0x3", "det-0x0", "invert-0x0", "rref-0x3"],
)
def test_empty_shapes(compute, expected):
    assert compute() == expected


def _textbook_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    # Gauss-Jordan over Fraction with the first nonzero entry as pivot:
    # the reference the fraction-free kernel must reproduce exactly.
    mat = [[F(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(mat[0])):
        top = len(pivots)
        below = [i for i in range(top, len(mat)) if mat[i][col] != 0]
        if not below:
            continue
        mat[top], mat[below[0]] = mat[below[0]], mat[top]
        mat[top] = [x / mat[top][col] for x in mat[top]]
        for i in range(len(mat)):
            if i != top:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[top])]
        pivots.append(col)
    return mat, pivots


def rectangular(m, n, elements=entries):
    return st.lists(
        st.lists(elements, min_size=n, max_size=n), min_size=m, max_size=m
    )


@st.composite
def wide_or_tall(draw):
    m, n = draw(st.sampled_from([(3, 5), (5, 3)]))
    if draw(st.booleans()):
        return draw(rectangular(m, n))
    # Forced low rank: a product through an inner dimension below min(m, n).
    k = draw(st.integers(1, min(m, n) - 1))
    a = rational_matrix(draw(rectangular(m, k)))
    b = rational_matrix(draw(rectangular(k, n)))
    return (a @ b).tolist()


@settings(max_examples=80, deadline=None)
@given(wide_or_tall())
def test_rref_matches_textbook_gauss_jordan(rows):
    reduced, pivots = rref(rational_matrix(rows))
    expected, expected_pivots = _textbook_rref(rows)
    assert pivots == expected_pivots
    assert reduced.tolist() == expected


mixed = st.one_of(
    st.integers(-30, 30), st.fractions(min_value=-9, max_value=9, max_denominator=7)
)


@st.composite
def chain(draw):
    p, q, r, s = (draw(st.integers(1, 4)) for _ in range(4))
    return [
        np.array(draw(rectangular(rows, cols, mixed)), dtype=object)
        for rows, cols in ((p, q), (q, r), (r, s))
    ]


@settings(max_examples=60, deadline=None)
@given(chain())
def test_dot_matches_object_matmul(factors):
    a, b, c = factors
    product = dot(a, b, c)
    assert product.shape == (a @ b @ c).shape
    assert (product == a @ b @ c).all()
    assert all(isinstance(x, Fraction) for x in product.flat)
