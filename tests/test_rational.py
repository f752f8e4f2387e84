"""Exact elimination, determinant, inverse and products on Fraction matrices."""

import random
import re
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gearpinv.rational
from gearpinv.graphs import gear_distance_closed
from gearpinv.pinv import penrose_check, rational_pinv
from gearpinv.rational import (
    _echelon_mod,
    _floats,
    _is_prime,
    _pivots,
    _primes,
    _reconstruct,
    _residual_bound,
    det,
    dot,
    invert,
    is_psd,
    rational,
    rational_identity,
    rational_matrix,
    rational_zeros,
    rref,
    scaled,
    unscaled,
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


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64])
@pytest.mark.parametrize("shape", [(2, 3), (0, 3), (3, 0)])
def test_scaled_integer_dtypes_give_python_ints(dtype, shape):
    mat = np.arange(np.prod(shape), dtype=dtype).reshape(shape)
    ints, den = scaled(mat)
    assert den == 1 and ints.dtype == object and ints.shape == shape
    assert all(type(x) is int for x in ints.flat)
    generic, _ = scaled(mat.astype(object))
    assert (ints == generic).all()
    assert scaled(np.array([2**64 - 1], dtype=np.uint64))[0][0] == 2**64 - 1


def test_scaled_python_ints_skip_the_fraction_path():
    values = [[2**63, -(2**70) + 1, 0], [7, -1, 2**64 - 1]]
    mat = np.array(values, dtype=object)
    ints, den = scaled(mat)
    # The object array of Python ints is its own integer form, over denominator 1.
    assert ints is mat and den == 1
    generic, generic_den = scaled(np.array([[F(x) for x in row] for row in values], dtype=object))
    assert generic_den == 1 and (ints == generic).all()
    assert all(type(x) is int for x in generic.flat)
    # Bools and numpy integers keep the Fraction path and come out as Python ints.
    for row in ([True, False, 5], [np.int64(-3), 5, 0]):
        mixed, mixed_den = scaled(np.array([row], dtype=object))
        assert mixed_den == 1 and mixed.tolist() == [[int(x) for x in row]]
        assert all(type(x) is int for x in mixed.flat)


def _bits_or_overflow(func, ints, den):
    try:
        return func(ints, den).tobytes()
    except OverflowError:
        return OverflowError


# Denominators near 2**1074 put quotients among the subnormals.
_quotient_dens = st.one_of(
    st.integers(1, 2**1200),
    st.builds(lambda odd, shift: odd << shift, st.integers(1, 2**60), st.integers(1000, 1100)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**1200), 2**1200), min_size=1, max_size=6), _quotient_dens)
@example([1, -1, 3, 0], 2**1074)
@example([2**1024 - 1, 1], 1)
@example([2**1100, 1], 2**60)
def test_floats_match_the_fraction_floats_bit_for_bit(nums, den):
    ints = np.array(nums, dtype=object).reshape(1, -1)
    want = _bits_or_overflow(lambda i, d: unscaled(i, d).astype(float), ints, den)
    assert _bits_or_overflow(_floats, ints, den) == want


def test_floats_divide_int64_entries_as_python_ints():
    # float64 division of this int64 by 9 rounds twice and misses by one ulp.
    ints = np.array([[5477387899617909037, -(2**63) + 1]], dtype=np.int64)
    assert (ints / 9)[0, 0] != 5477387899617909037 / 9
    assert _floats(ints, 9).tobytes() == unscaled(ints, 9).astype(float).tobytes()


_UNSCALED_CASES = {
    "int64": (np.array([[3, -6, 0], [9, 3, -6]], dtype=np.int64), 6),
    "big-ints": (np.array([[2**90, -(3**70)], [-(3**70), 2**90 + 1]], dtype=object), 2**7 * 3**5),
    "zeros": (np.zeros((3, 4), dtype=object), 7),
    "negatives-den-1": (np.array([[-1, -2, 4], [-2, -1, -2]], dtype=object), 1),
    "empty-0x3": (np.empty((0, 3), dtype=object), 5),
    "empty-3x0": (np.empty((3, 0), dtype=np.int64), 5),
    "empty-0x0": (np.empty((0, 0), dtype=object), 1),
}


@pytest.mark.parametrize("ints, den", _UNSCALED_CASES.values(), ids=_UNSCALED_CASES.keys())
def test_unscaled_builds_one_shared_fraction_per_distinct_value(ints, den):
    out = unscaled(ints, den)
    assert out.dtype == object and out.shape == ints.shape
    for x, y in zip(ints.flat, out.flat):
        want = F(int(x), den)
        assert type(y) is F and y == want
        assert type(y.numerator) is int and type(y.denominator) is int
        assert (y.numerator, y.denominator) == (want.numerator, want.denominator)
    # Entries of equal value are one object, and distinct values distinct objects.
    assert len({id(y) for y in out.flat}) == len(set(out.flat))


def test_unscaled_shared_entries_reassign_independently():
    sym = unscaled(np.array([[2, 5], [5, 2]], dtype=object), 3)
    assert sym[0, 1] is sym[1, 0]
    sym[0, 1] = F(7)
    assert sym[1, 0] == F(5, 3) and sym[0, 1] == F(7)


_pool_values = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(F, st.integers(-(2**80), 2**80), st.integers(1, 2**40)),
)


@st.composite
def repeating_matrix(draw):
    # Few distinct values over many entries, so that entries repeat.
    pool = draw(st.lists(_pool_values, min_size=1, max_size=4, unique=True))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    values = [[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)]
    return np.array(values, dtype=object).reshape(rows, cols)


@settings(max_examples=100, deadline=None)
@given(repeating_matrix())
def test_scaled_round_trip_on_repeated_values(mat):
    ints, den = scaled(mat)
    want_den = lcm(*(x.denominator for x in mat.flat))
    want = [[x.numerator * (want_den // x.denominator) for x in row] for row in mat.tolist()]
    assert den == want_den and ints.shape == mat.shape and ints.tolist() == want
    assert all(type(x) is int for x in ints.flat)
    back = unscaled(ints, den)
    assert back.shape == mat.shape and back.tolist() == mat.tolist()
    assert all(type(x) is F and type(x.numerator) is int for x in back.flat)


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


def _principal_minors_nonnegative(matrix):
    """PSD by definition's equivalent for symmetric input: every principal minor is >= 0.

    ``det`` reduces each minor by ``_gauss_jordan``, not by the symmetric
    elimination under test.
    """
    order = len(matrix)
    return all(det(matrix[np.ix_(rows, rows)]) >= 0
               for size in range(1, order + 1) for rows in combinations(range(order), size))


def _symmetric(rng, order, draw):
    """Off-diagonal entries from ``draw``, diagonal entries from 1 to 3."""
    matrix = rational_zeros(order, order)
    for i in range(order):
        matrix[i, i] = F(rng.randint(1, 3))
        for j in range(i + 1, order):
            matrix[i, j] = matrix[j, i] = draw()
    return matrix


def _gram(order, rank, draw):
    b = np.array([[draw() for _ in range(rank)] for _ in range(order)], dtype=object)
    b = b.reshape(order, rank)
    return b.dot(b.T)


def _zero_pivot_block(rng, order):
    """A PSD block and a hollow block with a nonzero pair, symmetrically permuted.

    The elimination takes the PSD block's pivots first and then meets a
    zero diagonal over a nonzero remaining block: not PSD.
    """
    psd = rng.randint(0, order - 2)
    matrix = rational_zeros(order, order)
    matrix[:psd, :psd] = _gram(psd, psd, lambda: F(rng.randint(-3, 3)))
    hollow = _symmetric(rng, order - psd, lambda: F(rng.randint(-3, 3)))
    np.fill_diagonal(hollow, F(0))
    hollow[0, 1] = hollow[1, 0] = F(rng.choice([-2, -1, 1, 2]))
    matrix[psd:, psd:] = hollow
    perm = rng.sample(range(order), order)
    return matrix[np.ix_(perm, perm)]


@pytest.mark.parametrize("order", range(1, 6))
def test_is_psd_agrees_with_principal_minors(order):
    rng = random.Random(f"is_psd/{order}")
    small = lambda: F(rng.randint(-3, 3))
    fraction = lambda: F(rng.randint(-4, 4), rng.randint(1, 4))
    cases = [_symmetric(rng, order, small) for _ in range(60)]
    cases += [_symmetric(rng, order, fraction) for _ in range(30)]
    grams = [_gram(order, rank, draw) for rank in range(order + 1)
             for draw in (small, small, fraction)]
    lowered = [gram - np.diag(np.eye(order, dtype=int)[rng.randrange(order)]) for gram in grams]
    hollow = [_zero_pivot_block(rng, order) for _ in range(20)] if order >= 2 else []
    for matrix in cases + grams + lowered + hollow:
        assert is_psd(matrix) == _principal_minors_nonnegative(matrix), matrix
    assert all(_principal_minors_nonnegative(gram) for gram in grams)
    assert not any(_principal_minors_nonnegative(matrix) for matrix in hollow)


def _first_primes(count):
    primes = _primes()
    return [next(primes) for _ in range(count)]


P1, P2, P3 = _first_primes(3)

# Small entries make singular matrices common; multiples of the first
# primes make matrices singular modulo them only, and 2**70 + 5
# overflows int64.
probe_entries = st.integers(-3, 3) | st.sampled_from([P1, -2 * P1, P1 * P2, 2**70 + 5])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6).flatmap(lambda k: square(k, probe_entries)))
def test_probe_is_nonsingularity_modulo_its_prime(rows):
    # The first prime's elimination fails exactly when the prime divides
    # det A, and otherwise yields A's inverse modulo it.
    ints = np.array(rows, dtype=object).reshape(len(rows), len(rows))
    inverse = _pivots(ints, P1)[2]
    assert (inverse is None) == (det(ints) % P1 == 0)
    if inverse is not None:
        product = ints.dot(inverse.astype(object)) % P1
        assert (product == np.eye(len(rows), dtype=int)).all()


def test_primes_match_trial_division():
    def trial(k):
        return k > 1 and all(k % f for f in range(2, isqrt(k) + 1))

    # The first 60 on-demand primes, then every integer up to 5000: the
    # strong pseudoprimes to base 2 there (2047, 3277, 4033, 4681) are composite.
    expected = [k for k in range(2**31 - 1, 2**31 - 2000, -1) if trial(k)]
    assert _first_primes(len(expected)) == expected and len(expected) > 60
    assert [k for k in range(5000) if _is_prime(k)] == [k for k in range(5000) if trial(k)]


def test_primes_are_searched_once_per_process(monkeypatch):
    tested = []
    monkeypatch.setattr(gearpinv.rational, "_is_prime", lambda k: tested.append(k) or _is_prime(k))
    monkeypatch.setattr(gearpinv.rational, "_PRIMES", [])
    first, second = _primes(), _primes()
    got_first, got_second = [], []
    # Each generator in turn runs past the other and then falls behind it.
    for burst in (3, 5, 4, 7, 2):
        got_first += [next(first) for _ in range(burst)]
        got_second += [next(second) for _ in range(burst + 1)]
    got_first += [next(first) for _ in range(len(got_second) - len(got_first))]
    expected = [k for k in range(2**31 - 1, got_first[-1] - 1, -2) if _is_prime(k)]
    assert got_first == got_second == gearpinv.rational._PRIMES == expected
    assert sorted(set(tested)) == sorted(tested)
    assert tested[0] == 2**31 - 1 and tested[-1] == expected[-1]


def test_a_second_penrose_check_searches_no_prime(monkeypatch):
    dist = gear_distance_closed(16)
    pinv = rational_pinv(dist)
    assert penrose_check(dist, pinv).all_exact
    tested = []
    monkeypatch.setattr(gearpinv.rational, "_is_prime", lambda k: tested.append(k) or _is_prime(k))
    assert penrose_check(dist, pinv).all_exact
    assert tested == []


def _hilbert(order):
    return np.array([[F(1, i + j + 1) for j in range(order)] for i in range(order)], dtype=object)


def _combined(ints, primes):
    """X in [0, P) with X = A^-1 modulo each prime, from the closed-form CRT sum, and P."""
    modulus = prod(primes)
    terms = (_pivots(ints, p)[2].astype(object) * (modulus // p * pow(modulus // p, -1, p))
             for p in primes)
    return sum(terms) % modulus, modulus


def _certified(ints, value, modulus):
    found = _reconstruct(value, modulus)
    return found is not None and _residual_bound(ints, *found) < modulus


def test_hilbert_inverse_from_many_primes(monkeypatch):
    def recording(work, p):
        calls.append(p)
        return _echelon_mod(work, p)

    monkeypatch.setattr(gearpinv.rational, "_echelon_mod", recording)
    # One elimination per prime, the first prime first, and no prime is skipped.
    for order, count in ((12, 3), (20, 6), (30, 9)):
        calls = []
        hilbert = _hilbert(order)
        inverse = rational_pinv(hilbert)
        assert calls == _first_primes(count)
        assert all(type(x) is F for x in inverse.flat)
        assert (inverse == invert(hilbert)).all()


def test_modular_inverse_stops_at_the_fewest_primes():
    # Hilbert order 20 is not certified by the residues of 5 primes but is
    # by those of 6, the count its inversion above uses.
    ints, _ = scaled(_hilbert(20))
    assert not _certified(ints, *_combined(ints, _first_primes(5)))
    assert _certified(ints, *_combined(ints, _first_primes(6)))


nonsingular_entries = (
    st.integers(-3, 3)
    | st.fractions(min_value=-9, max_value=9, max_denominator=P1)
    | st.sampled_from([P1, -2 * P2, P1 * P2 * P3, F(1, P2), 2**70 + 5, -(2**70) + 1])
)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: square(k, nonsingular_entries)))
def test_modular_inverse_equals_bareiss(rows):
    matrix = rational_matrix(rows)
    assume(det(matrix) != 0)
    inverse = rational_pinv(matrix)
    assert all(type(x) is F for x in inverse.flat)
    assert (inverse == invert(matrix)).all()


def test_certificate_refuses_a_lift_that_matches_every_residue():
    matrix = _hilbert(5)
    ints, _ = scaled(matrix)
    value, modulus = _combined(ints, _first_primes(4))
    inverse, den = _reconstruct(value, modulus)
    assert _residual_bound(ints, inverse, den) < modulus
    assert (ints.dot(inverse) == den * np.eye(5, dtype=int)).all()
    # Y + P E agrees with Y modulo every prime used, but A (Y + P E) != d I,
    # and its bound is no longer below P.
    lifted = inverse.copy()
    lifted[2, 3] += modulus
    assert ((lifted - den * value) % modulus == 0).all()
    assert not (ints.dot(lifted) == den * np.eye(5, dtype=int)).all()
    assert _residual_bound(ints, lifted, den) >= modulus


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
    with pytest.raises(ValueError, match="square"):
        invert(rational_matrix([[1, 2, 3], [4, 5, 6]]))


@pytest.mark.parametrize("func", [rref, det, invert, rational_pinv,
                                  lambda matrix: penrose_check(matrix, matrix)])
@pytest.mark.parametrize("shape", [(), (2,), (2, 2, 2)])
def test_public_exact_functions_reject_input_that_is_not_a_matrix(func, shape):
    array = np.arange(1, 1 + np.prod(shape, dtype=int)).reshape(shape)
    for exact in (array, array.astype(object)):
        with pytest.raises(ValueError, match=re.escape(f"got an array of shape {shape}")):
            func(exact)


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
