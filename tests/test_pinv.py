"""Closed-form pseudoinverse, exact oracle, and Penrose checks."""

import math
import random
from collections import Counter
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gearpinv.pinv
import gearpinv.rational
from gearpinv.edm import _gram_ints, gram_from_edm
from gearpinv.graphs import gear_distance_closed
from gearpinv.laplacian import _laplacian_rows
from gearpinv.pinv import (
    _formula_rows,
    _pinv_ints,
    beta,
    gear_pinv_formula,
    penrose_check,
    rank_factorization,
    rational_pinv,
    u_vector,
)
from gearpinv.rational import (
    _echelon_mod,
    _pivots,
    _primes,
    det,
    dot,
    invert,
    is_exact,
    rational_identity,
    rational_matrix,
    rational_zeros,
    rref,
    scaled,
)
from gearpinv.spectral import null_basis
from gearpinv.trees import tree_distance, unit_tree, weighted_tree_inverse

entries = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def matrices(max_side=5):
    return st.integers(min_value=1, max_value=max_side).flatmap(
        lambda m: st.integers(min_value=1, max_value=max_side).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


def test_u_vector_golden_n5():
    u = u_vector(5)
    assert u[0] == Fraction(-1, 18)
    assert (u[1:5] == Fraction(1, 36)).all()
    assert (u[5:] == Fraction(1, 9)).all()


def test_u_vector_golden_n6():
    u = u_vector(6)
    assert u[0] == Fraction(-1, 10)
    assert u[0] < 0
    assert (u[1:6] == Fraction(0)).all()
    assert (u[6:] == Fraction(1, 10)).all()


def test_u_solves_distance_system_exactly():
    for n in range(4, 25):
        dist = gear_distance_closed(n).astype(object)
        u = u_vector(n)
        ones = np.full(2 * n - 1, Fraction(1), dtype=object)
        assert (dist @ u == ones).all()
        for vec in null_basis(n):
            assert vec.astype(object) @ u == 0
        assert ones @ u == beta(n)


def test_beta_closed_form():
    for n in range(4, 30):
        assert beta(n) == Fraction(2, n - 1)


def test_beta_matches_oracle_mass(gear_oracle):
    for n in range(4, 11):
        ones = np.full(2 * n - 1, Fraction(1), dtype=object)
        assert ones @ (gear_oracle(n) @ ones) == Fraction(2, n - 1)


def test_formula_rows_convert_u_entry_by_entry():
    # _formula_rows converts u's three values once; the rows match converting all 2n - 1.
    for n in [*range(4, 61), 150, 151, 299, 300, 1000]:
        u = u_vector(n).astype(float)
        rows = -0.5 * _laplacian_rows(n) + ((n - 1) / 2.0) * np.outer(u[[0, 1, n]], u)
        assert _formula_rows(n).tobytes() == rows.tobytes()


def test_formula_golden_n5(golden_pinv_5):
    gap = np.abs(gear_pinv_formula(5) - golden_pinv_5.astype(float))
    assert np.max(gap) < 1e-12


def test_formula_golden_n6(golden_pinv_6):
    gap = np.abs(gear_pinv_formula(6) - golden_pinv_6.astype(float))
    assert np.max(gap) < 1e-12


def test_oracle_equals_golden_exactly(gear_oracle, golden_pinv_5, golden_pinv_6):
    assert (gear_oracle(5) == golden_pinv_5).all()
    assert (gear_oracle(6) == golden_pinv_6).all()


def test_formula_tracks_oracle(gear_oracle):
    for n in range(4, 17):
        gap = np.abs(gear_pinv_formula(n) - gear_oracle(n).astype(float))
        assert np.max(gap) < 1e-9


def test_formula_output_symmetric():
    for n in (4, 9, 14):
        out = gear_pinv_formula(n)
        assert np.max(np.abs(out - out.T)) < 1e-14


def test_rank_factorization_golden():
    m = rational_matrix([[1, 2], [2, 4]])
    c_factor, f_factor = rank_factorization(m)
    assert (c_factor == rational_matrix([[1], [2]])).all()
    assert (f_factor == rational_matrix([[1, 2]])).all()


@settings(deadline=None)
@given(matrices())
def test_rank_factorization_reproduces_input(rows):
    m = rational_matrix(rows)
    c_factor, f_factor = rank_factorization(m)
    assert c_factor.shape[1] == f_factor.shape[0]
    if c_factor.shape[1]:
        assert (c_factor @ f_factor == m).all()
    else:
        assert not m.astype(bool).any()


def test_rational_pinv_identity_and_zero():
    eye = rational_identity(4)
    assert (rational_pinv(eye) == eye).all()
    for rows, cols in ((2, 3), (3, 3)):
        pinv = rational_pinv(rational_matrix([[0] * cols] * rows))
        assert pinv.shape == (cols, rows)
        assert not pinv.astype(bool).any()
        assert all(type(x) is Fraction for x in pinv.flat)


def test_rational_pinv_rectangular_golden():
    m = rational_matrix([[2, 0, 0], [0, 0, 0]])
    expected = rational_matrix([["1/2", 0], [0, 0], [0, 0]])
    assert (rational_pinv(m) == expected).all()


def test_rational_pinv_rank_one_outer_product():
    # For u v' the pseudoinverse is v u' / (|u|^2 |v|^2).
    u = np.array([Fraction(1), Fraction(2)], dtype=object)
    v = np.array([Fraction(3), Fraction(0), Fraction(4)], dtype=object)
    m = np.outer(u, v)
    expected = np.outer(v, u) * Fraction(1, 125)
    assert (rational_pinv(m) == expected).all()


def test_rational_pinv_inverse_when_nonsingular():
    m = rational_matrix([[1, 2], [3, 4]])
    assert (m @ rational_pinv(m) == rational_identity(2)).all()


def _factorization_formula(matrix):
    """F' (F F')^-1 (C' C)^-1 C' from a rank factorization M = C F."""
    c_factor, f_factor = rank_factorization(matrix)
    gram_f = invert(dot(f_factor, f_factor.T))
    gram_c = invert(dot(c_factor.T, c_factor))
    return dot(f_factor.T, gram_f, gram_c, c_factor.T)


def _same_fractions(got, want):
    return got.shape == want.shape and all(
        type(a) is Fraction and a == b for a, b in zip(got.flat, want.flat)
    )


@pytest.fixture
def kernel_calls(monkeypatch):
    """The inputs of every ``rref`` and ``invert`` call that ``rational_pinv`` makes."""
    calls = {"rref": [], "invert": []}

    def recording(name, func):
        def record(matrix):
            calls[name].append(np.asarray(matrix, dtype=object))
            return func(matrix)

        return record

    monkeypatch.setattr(gearpinv.rational, "rref", recording("rref", rref))
    monkeypatch.setattr(gearpinv.rational, "invert", recording("invert", invert))
    return calls


@pytest.fixture
def passes(monkeypatch):
    """The shapes of every Gauss-Jordan pass modulo a prime, in order."""
    shapes, echelon = [], gearpinv.rational._echelon_mod

    def recording(work, p):
        shapes.append(work.shape)
        return echelon(work, p)

    monkeypatch.setattr(gearpinv.rational, "_echelon_mod", recording)
    return shapes


def test_rational_pinv_inverts_a_nonsingular_input_once(kernel_calls):
    dist = tree_distance(unit_tree([(1, 2), (2, 3), (2, 4), (4, 5)]))
    # The inverse comes from residues modulo primes: no rref and no invert.
    inverse = rational_pinv(dist)
    assert kernel_calls["rref"] == [] and kernel_calls["invert"] == []
    assert _same_fractions(inverse, invert(dist))


def _diagonal(*entries):
    return rational_matrix([[x if i == j else 0 for j in range(len(entries))]
                            for i, x in enumerate(entries)])


def _first_primes(count):
    primes = _primes()
    return [next(primes) for _ in range(count)]


def test_rational_pinv_falls_back_when_the_probe_prime_divides_the_determinant(
    kernel_calls, passes
):
    # diag(p1, 1) and diag(p1 p2, 1) are singular modulo the first prime p1 but not over Q.
    p1, p2 = _first_primes(2)
    for top in (p1, p1 * p2):
        kernel_calls["rref"].clear()
        matrix = _diagonal(top, 1)
        assert _pivots(scaled(matrix)[0], p1)[2] is None
        passes.clear()
        assert _same_fractions(rational_pinv(matrix), _diagonal(Fraction(1, top), 1))
        # One pass modulo p1 finds the one pivot row 1, whose block cannot give row 0: the
        # certificate fails, and a second rref reduces the whole input.
        assert passes == [(2, 2)]
        assert [m.shape for m in kernel_calls["rref"]] == [(1, 2), (2, 2)]


def test_rational_pinv_skips_primes_that_divide_the_determinant(kernel_calls, monkeypatch):
    # diag(p2 p3, 1) is singular modulo p2 and p3 only: both are tried and skipped.
    p1, p2, p3, p4 = _first_primes(4)
    matrix = _diagonal(p2 * p3, 1)
    ints = scaled(matrix)[0]
    assert _pivots(ints, p2)[2] is None and _pivots(ints, p3)[2] is None
    calls = []

    def recording(work, p):
        calls.append(p)
        return _echelon_mod(work, p)

    monkeypatch.setattr(gearpinv.rational, "_echelon_mod", recording)
    assert _same_fractions(rational_pinv(matrix), _diagonal(Fraction(1, p2 * p3), 1))
    assert calls[:4] == [p1, p2, p3, p4]
    assert kernel_calls["rref"] == [] and kernel_calls["invert"] == []


def test_rational_pinv_inverts_a_rank_deficient_input_once(kernel_calls, passes):
    left = rational_matrix([[1, "1/2"], [2, -1], [0, 3], ["-2/3", 1], [4, 0]])
    right = rational_matrix([[1, 0, "2/5", -3], [0, 2, 1, "1/4"]])
    # A 5x4 product of rank 2, which is not square, and the gear distance matrix at n = 7:
    # rank 7, order 13, below 8, so the residue route's budget of rank // 4 primes stays under 2.
    for matrix, rank in ((dot(left, right), 2), (gear_distance_closed(7), 7)):
        kernel_calls["rref"].clear()
        kernel_calls["invert"].clear()
        passes.clear()
        pinv = rational_pinv(matrix)
        # One pass modulo a prime over the input.  The product then takes one rref of its
        # pivot rows alone and one invert, of the rank-order matrix C' A R'; the symmetric D
        # takes neither, its skeleton B' K^-1 B giving D+ from two rank-order passes.
        assert passes == [matrix.shape]
        if rank == 2:
            assert [m.shape for m in kernel_calls["rref"]] == [(rank, matrix.shape[1])]
            assert [m.shape for m in kernel_calls["invert"]] == [(rank, rank)]
        else:
            assert kernel_calls["rref"] == [] and kernel_calls["invert"] == []
        assert _same_fractions(pinv, _factorization_formula(matrix))


def test_rational_pinv_matches_factorization_on_trees_and_gears(
    unit_tree_corpus, weighted_tree_corpus, gear_oracle, gram_oracle
):
    for tree in unit_tree_corpus + weighted_tree_corpus:
        dist = tree_distance(tree)
        assert _same_fractions(rational_pinv(dist), _factorization_formula(dist))
    # Gear D and its Gram matrix G are rank deficient: rank n and n - 1 of order 2n - 1.
    for n in range(4, 17):
        dist = gear_distance_closed(n)
        assert _same_fractions(gear_oracle(n), _factorization_formula(dist))
        assert _same_fractions(gram_oracle(n), _factorization_formula(gram_from_edm(dist)))


def test_rational_pinv_takes_gears_from_residues(kernel_calls, passes, monkeypatch):
    primes, pinv_mod = [], gearpinv.rational._pinv_mod

    def recording_residue(residues, cols, p):
        primes.append(p)
        return pinv_mod(residues, cols, p)

    monkeypatch.setattr(gearpinv.rational, "_pinv_mod", recording_residue)
    # From rank 8 the budget allows 2 primes, and gear D and G at n = 9..16 certify within it.
    for n in range(9, 17):
        dist = gear_distance_closed(n)
        for matrix, rank in ((dist, n), (gram_from_edm(dist), n - 1)):
            passes.clear()
            primes.clear()
            pinv = rational_pinv(matrix)
            assert kernel_calls["rref"] == [] and kernel_calls["invert"] == []
            assert 2 <= len(primes) <= rank // 4
            # One pass over the input, then one rank-order inverse per prime.
            assert passes == [matrix.shape] + [(rank, rank)] * len(primes)
            assert _same_fractions(pinv, _factorization_formula(matrix))
            kernel_calls["rref"].clear()
            kernel_calls["invert"].clear()


def test_rational_pinv_falls_back_when_the_first_prime_sees_a_lower_rank(
    kernel_calls, passes, monkeypatch
):
    # diag(p1, 1, ..., 1, 0) with nine 1s has rank 10, but rank 9 modulo p1.
    p1 = _first_primes(1)[0]
    matrix = _diagonal(p1, *[1] * 9, 0)
    assert len(_echelon_mod((scaled(matrix)[0] % p1).astype(np.int64), p1)[0]) == 9
    verdicts, certify = [], gearpinv.rational._residuals_vanish

    def recording(*args):
        verdicts.append(certify(*args))
        return verdicts[-1]

    monkeypatch.setattr(gearpinv.rational, "_residuals_vanish", recording)
    passes.clear()
    pinv = rational_pinv(matrix)
    # The rank-9 reconstruction fails its certificate, and elimination takes over.
    assert verdicts == [False]
    # One pass over the input; the others are the rank-9 inverses of the residue route.
    assert passes[0] == (11, 11) and set(passes[1:]) == {(9, 9)}
    # The 9 pivot rows modulo p1 miss row 0: the certificate fails, and the whole input is reduced.
    assert [m.shape for m in kernel_calls["rref"]] == [(9, 11), (11, 11)]
    assert _same_fractions(pinv, _diagonal(Fraction(1, p1), *[1] * 9, 0))


def test_rational_pinv_leaves_a_low_rank_edm_to_elimination(kernel_calls, monkeypatch):
    # Squared distances of 12 integer points in 4 dimensions: an EDM of rank 6, below 8, so
    # no residue is taken and the symmetric skeleton gives D+ with no rref and no invert.
    rng = random.Random(6)
    points = [[rng.randint(-50, 50) for _ in range(4)] for _ in range(12)]
    edm = np.array([[sum((a - b) ** 2 for a, b in zip(p, q)) for q in points] for p in points],
                   dtype=object)
    products = []
    monkeypatch.setattr(gearpinv.rational, "_dot_mod", lambda *args: products.append(args))
    pinv = rational_pinv(edm)
    assert products == []
    assert kernel_calls["rref"] == [] and kernel_calls["invert"] == []
    assert _same_fractions(pinv, _factorization_formula(edm))


def _pivot_corpus():
    """Seeded rank-deficient matrices of ints and of Fractions, and the edge shapes.

    Rectangular both ways, square and not symmetric, and symmetric, all
    of rank below 8, where no residue is taken.  Rows are shuffled (rows
    and columns alike for a symmetric matrix), so the pivot rows are
    often not a prefix.  Then rank 0, 1 x n and m x 1.
    """
    rng = random.Random("pivot rows")
    corpus = []
    for k in range(36):
        if k % 2:
            def entry():
                return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        else:
            def entry():
                return rng.randint(-4, 4)
        rows, cols = rng.randint(2, 8), rng.randint(2, 8)
        rank = rng.randint(1, min(rows, cols) - 1)
        left = np.array([[entry() for _ in range(rank)] for _ in range(rows)], dtype=object)
        right = np.array([[entry() for _ in range(cols)] for _ in range(rank)], dtype=object)
        order = rng.sample(range(rows), rows)
        if k % 3:
            corpus.append(left.dot(right)[order])
        else:
            middle = np.diag([entry() or 1 for _ in range(rank)]).astype(object)
            corpus.append(left.dot(middle).dot(left.T)[np.ix_(order, order)])
    corpus += [rational_zeros(3, 4), rational_zeros(1, 1), rational_zeros(4, 1)]
    corpus += [rational_matrix([[0, "2/3", -1, 5]]), rational_matrix([[3], [0], ["-1/2"]]),
               rational_matrix([[0], [0], [7]]), rational_matrix([[0, 0, 4]])]
    return corpus


def test_rational_pinv_matches_factorization_through_the_pivot_rows(kernel_calls, monkeypatch):
    picked, pivots = [], gearpinv.rational._pivots

    def recording(ints, p):
        found = pivots(ints, p)
        picked.append(found[0])
        return found

    monkeypatch.setattr(gearpinv.rational, "_pivots", recording)
    not_prefix = symmetric = 0
    for matrix in _pivot_corpus():
        want, rank = _factorization_formula(matrix), len(rank_factorization(matrix)[1])
        picked.clear()
        kernel_calls["rref"].clear()
        kernel_calls["invert"].clear()
        assert _same_fractions(rational_pinv(matrix), want)
        is_symmetric = matrix.shape == matrix.T.shape and (matrix == matrix.T).all()
        # Exactly one pass picks the rows, and one rref reduces them alone; a symmetric
        # matrix takes its skeleton on the pivot columns instead, with no rref and no invert.
        assert len(picked) == 1 and len(picked[0]) == rank
        if is_symmetric:
            assert kernel_calls["rref"] == [] and kernel_calls["invert"] == []
        else:
            assert [m.shape for m in kernel_calls["rref"]] == [(rank, matrix.shape[1])]
        not_prefix += sorted(picked[0]) != list(range(rank))
        symmetric += is_symmetric
    assert not_prefix >= 10 and symmetric >= 10


@pytest.mark.parametrize("pick", ["one row dropped", "dependent rows"])
def test_rational_pinv_is_exact_after_a_wrong_pivot_row_pick(pick, kernel_calls, monkeypatch):
    pivots = gearpinv.rational._pivots

    def wrong(ints, p):
        rows, cols, inverse = pivots(ints, p)
        return (rows[:-1] if pick == "one row dropped" else [rows[0]] * len(rows)), cols, inverse

    monkeypatch.setattr(gearpinv.rational, "_pivots", wrong)
    # Rank 2 at least, so that a repeated row is dependent, and no residue is taken.
    corpus = [matrix for matrix in _pivot_corpus() if len(rank_factorization(matrix)[1]) >= 2]
    assert len(corpus) >= 12
    symmetric = 0
    for matrix in corpus[:12] + [gear_distance_closed(7)]:
        want = _factorization_formula(matrix)
        kernel_calls["rref"].clear()
        kernel_calls["invert"].clear()
        assert _same_fractions(rational_pinv(matrix), want)
        if matrix.shape == matrix.T.shape and (matrix == matrix.T).all():
            # A symmetric matrix's skeleton reads the pivot columns alone, so wrong rows do not
            # reach it: no rref and no invert.
            assert kernel_calls["rref"] == [] and kernel_calls["invert"] == []
            symmetric += 1
        else:
            # The wrong rows fail the check, and one rref of the whole input takes over.
            assert len(kernel_calls["rref"]) == 2
            assert kernel_calls["rref"][1].shape == matrix.shape
    assert symmetric >= 2


def test_rational_pinv_falls_back_to_rref_when_the_skeleton_columns_miss_a_pivot(
    kernel_calls, monkeypatch
):
    # A Gram matrix L L' of order 7 and rank 4: PSD, so every principal block of its
    # positive definite pivot block is nonsingular, and a pivot column dropped leaves K so.
    rng = random.Random("unlucky columns")
    left = np.array([[rng.randint(-5, 5) for _ in range(4)] for _ in range(7)], dtype=object)
    matrix = left.dot(left.T)
    want = _factorization_formula(matrix)
    assert len(rank_factorization(matrix)[1]) == 4
    kept, skeletons = [], []
    pivots, skeleton = gearpinv.rational._pivots, gearpinv.rational._skeleton_pinv

    def one_pivot_short(ints, p):
        rows, cols, inverse = pivots(ints, p)
        kept.append(cols[:-1])
        return rows[:-1], cols[:-1], inverse

    def recording(ints, cols):
        skeletons.append(skeleton(ints, cols))
        return skeletons[-1]

    monkeypatch.setattr(gearpinv.rational, "_pivots", one_pivot_short)
    monkeypatch.setattr(gearpinv.rational, "_skeleton_pinv", recording)
    kernel_calls["rref"].clear()
    kernel_calls["invert"].clear()
    pinv = rational_pinv(matrix)
    (cols,) = kept
    assert det(matrix[np.ix_(cols, cols)]) != 0 and skeletons == [None]
    # The skeleton's check fails on the rows outside Q, the rows' check fails as well, and
    # rref of the whole input takes over.
    assert [m.shape for m in kernel_calls["rref"]] == [(3, 7), (7, 7)]
    assert _same_fractions(pinv, want)


def test_symmetric_residues_are_reconstructed_on_one_triangle(monkeypatch):
    sizes, reconstruct = [], gearpinv.rational._reconstruct

    def recording(value, modulus):
        sizes.append(value.size)
        return reconstruct(value, modulus)

    rng = random.Random("one triangle")
    general = rational_matrix([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])
    assert det(general) != 0 and (general != general.T).any()
    tree = tree_distance(unit_tree([(i, i + 1) for i in range(1, 9)]))
    cases = [(gram_from_edm(gear_distance_closed(12)), 23 * 24 // 2),  # rank 11 of 23
             (tree, 9 * 10 // 2), (general, 6 * 6)]
    wants = [_factorization_formula(matrix) for matrix, _ in cases]
    monkeypatch.setattr(gearpinv.rational, "_reconstruct", recording)
    for (matrix, entries), want in zip(cases, wants):
        sizes.clear()
        assert _same_fractions(rational_pinv(matrix), want)
        assert sizes and set(sizes) == {entries}


def _sylvester(order):
    """The Hadamard matrix of the given power-of-two order, entries +-1."""
    hadamard = np.ones((1, 1), dtype=int)
    while len(hadamard) < order:
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    return hadamard


def _rank_corpus():
    """Seeded matrices of rank 8 to 16: integer and rational; square, rectangular and symmetric.

    Pairs (matrix, small): random products mostly have wide
    pseudoinverses, which take elimination, while rows of a Hadamard
    matrix and their Gram matrices have small ones.  Residues give those
    of the Gram matrices, which are symmetric, and of the 16 x 16 rows,
    which are nonsingular.
    """
    rng = random.Random("rank 8 to 16")
    corpus = []
    for k in range(27):
        rank = 8 + k % 9
        if k % 2:
            def entry():
                return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        else:
            def entry():
                return rng.randint(-3, 3)
        rows = rank + rng.randint(0, 5)
        left = np.array([[entry() for _ in range(rank)] for _ in range(rows)], dtype=object)
        if k % 3 == 0:
            right = np.array([[entry() for _ in range(rows)] for _ in range(rank)], dtype=object)
        elif k % 3 == 1:
            cols = rank + rng.randint(1, 5)
            right = np.array([[entry() for _ in range(cols)] for _ in range(rank)], dtype=object)
        else:
            middle = np.diag([entry() or 1 for _ in range(rank)]).astype(object)
            right = middle.dot(left.T)
        corpus.append((left.dot(right), False))
        hadamard = _sylvester(16)[rng.sample(range(16), rank)].astype(object) * (entry() or 1)
        corpus.append((hadamard if k % 3 else hadamard.T.dot(hadamard), True))
    return corpus


def test_rational_pinv_matches_factorization_on_ranks_8_to_16(kernel_calls, monkeypatch):
    corpus = _rank_corpus()
    ranks, small_grams, skeletons = set(), 0, []
    skeleton = gearpinv.rational._skeleton_pinv
    monkeypatch.setattr(gearpinv.rational, "_skeleton_pinv",
                        lambda *args: skeletons.append(args) or skeleton(*args))
    for matrix, small in corpus:
        skeletons.clear()
        pinv = rational_pinv(matrix)
        from_residues = kernel_calls["rref"] == [] and skeletons == []
        rank = len(rank_factorization(matrix)[1])
        symmetric = matrix.shape == matrix.T.shape and (matrix == matrix.T).all()
        # Residues take a rank-deficient input only when it is symmetric.
        if rank < min(matrix.shape) and not symmetric:
            assert not from_residues
        if small and symmetric:
            assert from_residues
            small_grams += 1
        assert _same_fractions(pinv, _factorization_formula(matrix))
        ranks.add(rank)
        kernel_calls["rref"].clear()
        kernel_calls["invert"].clear()
    assert ranks == set(range(8, 17))
    assert small_grams == 9


def test_rational_pinv_keeps_residues_to_square_and_symmetric_rank_deficient_input(
    kernel_calls, passes, monkeypatch
):
    p1 = _first_primes(1)[0]
    residues, pinv_mod = [], gearpinv.rational._pinv_mod

    def recording_residue(reduced, cols, p):
        residues.append(p)
        return pinv_mod(reduced, cols, p)

    monkeypatch.setattr(gearpinv.rational, "_pinv_mod", recording_residue)
    drawn = _recording_primes(monkeypatch)
    rng = random.Random("non-symmetric rank deficient")

    def fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    # 12 rows of the order-16 Hadamard matrix, rank 12, and a 40 x 30 product of rank 10.
    hadamard = _sylvester(16)[:12].astype(object)
    left = np.array([[fraction() for _ in range(10)] for _ in range(40)], dtype=object)
    right = np.array([[fraction() for _ in range(30)] for _ in range(10)], dtype=object)
    for matrix, rank in ((hadamard, 12), (left.dot(right), 10)):
        passes.clear()
        drawn.clear()
        pinv = rational_pinv(matrix)
        # Not square: one pass modulo the first prime picks the pivot rows, no residue of A+ is
        # taken, and elimination reduces those rows alone.
        assert passes == [matrix.shape] and drawn == [p1] and residues == []
        assert [m.shape for m in kernel_calls["rref"]] == [(rank, matrix.shape[1])]
        assert _same_fractions(pinv, _factorization_formula(matrix))
        kernel_calls["rref"].clear()
    # A 14 x 14 integer product of rank 10 that is not symmetric.
    left = np.array([[rng.randint(-3, 3) for _ in range(10)] for _ in range(14)], dtype=object)
    right = np.array([[rng.randint(-3, 3) for _ in range(14)] for _ in range(10)], dtype=object)
    matrix = left.dot(right)
    passes.clear()
    drawn.clear()
    pinv = rational_pinv(matrix)
    # The probe pass sees rank 10 of 14, and its 10 pivot rows go to elimination with no residue.
    assert passes == [matrix.shape] and residues == [] and drawn == [p1]
    assert [m.shape for m in kernel_calls["rref"]] == [(10, 14)]
    assert (matrix != matrix.T).any() and len(rank_factorization(matrix)[1]) == 10
    assert _same_fractions(pinv, _factorization_formula(matrix))


def _recording_primes(monkeypatch):
    """The primes ``rational._primes`` hands out, certificates included, from now on."""
    drawn, primes = [], gearpinv.rational._primes

    def counting():
        for p in primes():
            drawn.append(p)
            yield p

    monkeypatch.setattr(gearpinv.rational, "_primes", counting)
    return drawn


def test_every_scaling_of_the_gram_matrix_takes_one_route(kernel_calls, monkeypatch):
    # _gram_ints hands over 2 m^2 s G over 2 m^2 s, whose content is 2 or 18, where the public
    # G is split in lowest terms.  Both reach the residues as the same primitive integers.
    drawn = _recording_primes(monkeypatch)
    for n in range(6, 41):
        dist = gear_distance_closed(n)
        counts = []
        for run in (lambda: _pinv_ints(*_gram_ints(*scaled(dist))),
                    lambda: rational_pinv(gram_from_edm(dist))):
            drawn.clear()
            kernel_calls["rref"].clear()
            kernel_calls["invert"].clear()
            run()
            counts.append((len(drawn), len(kernel_calls["rref"]), len(kernel_calls["invert"])))
        assert counts[0] == counts[1]
        # From rank 8, n = 9, the budget allows 2 primes and G certifies within it; below, the
        # first prime alone is drawn and G's skeleton takes over.  Neither route calls rref
        # or invert.
        assert counts[0][1:] == (0, 0)
        assert (counts[0][0] == 1) == (n < 9)


def test_no_reconstruction_from_one_prime(weighted_tree_corpus, monkeypatch):
    moduli, reconstruct = [], gearpinv.rational._reconstruct

    def recording(value, modulus):
        moduli.append(modulus)
        return reconstruct(value, modulus)

    monkeypatch.setattr(gearpinv.rational, "_reconstruct", recording)
    for tree in weighted_tree_corpus:
        moduli.clear()
        assert _same_fractions(rational_pinv(tree_distance(tree)), weighted_tree_inverse(tree))
        # Every prime is below 2**31, so a larger modulus is a product of two or more.
        assert moduli and all(modulus > 2**31 for modulus in moduli)


@pytest.mark.parametrize("unlucky", [0, 1])
def test_rank_deficient_route_skips_a_prime_with_no_residue(unlucky, kernel_calls, monkeypatch):
    # Gear D at n = 16 has rank 16, so a budget of 4 primes, and certifies from 2.
    dist = gear_distance_closed(16)
    want = _factorization_formula(dist)
    kernel_calls["rref"].clear()
    kernel_calls["invert"].clear()
    p1, p2, p3 = _first_primes(3)
    residues, moduli = [], []
    pinv_mod, reconstruct = gearpinv.rational._pinv_mod, gearpinv.rational._reconstruct

    def recording_residue(reduced, cols, p):
        residues.append(p)
        return pinv_mod(reduced, cols, p)

    def recording_reconstruct(value, modulus):
        moduli.append(modulus)
        return reconstruct(value, modulus)

    monkeypatch.setattr(gearpinv.rational, "_pinv_mod", recording_residue)
    monkeypatch.setattr(gearpinv.rational, "_reconstruct", recording_reconstruct)
    assert _same_fractions(rational_pinv(dist), want) and residues == [p1, p2]
    residues.clear()
    moduli.clear()

    def no_residue_at_one_prime(reduced, cols, p):
        residues.append(p)
        return None if p == (p1, p2)[unlucky] else pinv_mod(reduced, cols, p)

    monkeypatch.setattr(gearpinv.rational, "_pinv_mod", no_residue_at_one_prime)
    # The prime is skipped, the next one takes its place, and one prime alone is never lifted.
    assert _same_fractions(rational_pinv(dist), want)
    assert residues == [p1, p2, p3]
    assert moduli == ([p1 * p3] if unlucky else [p2 * p3])
    assert kernel_calls["rref"] == [] and kernel_calls["invert"] == []


def test_symmetric_route_skips_a_prime_that_divides_det_bb(kernel_calls, monkeypatch):
    # Gear G at n = 30 has rank 29, so a budget of 7 primes, and room left after one is skipped.
    ints, scale = scaled(gram_from_edm(gear_distance_closed(30)))
    moduli, reconstruct = [], gearpinv.rational._reconstruct

    def recording_reconstruct(value, modulus):
        moduli.append(modulus)
        return reconstruct(value, modulus)

    monkeypatch.setattr(gearpinv.rational, "_reconstruct", recording_reconstruct)
    want = _pinv_ints(ints, scale)
    p1, p2, p3 = _first_primes(3)
    assert moduli[0] == p1 * p2
    moduli.clear()
    singular = []

    def no_inverse_of_bb_at_p2(work, p):
        rows, cols, inverse = _echelon_mod(work, p)
        if p == p2 and work.shape == (29, 29):
            singular.append(p)
            return rows, cols, None
        return rows, cols, inverse

    monkeypatch.setattr(gearpinv.rational, "_echelon_mod", no_inverse_of_bb_at_p2)
    # p2 gives no residue of G+ and is skipped; p3 takes its place in the first lift.
    got = _pinv_ints(ints, scale)
    assert singular == [p2] and moduli[0] == p1 * p3
    assert got[1] == want[1] and (got[0] == want[0]).all()
    assert all(type(x) is int for x in got[0].flat)
    assert kernel_calls["rref"] == [] and kernel_calls["invert"] == []


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda k: st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k)
))
def test_rational_pinv_full_rank_matches_factorization(rows):
    m = rational_matrix(rows)
    assume(det(m) != 0)
    assert _same_fractions(rational_pinv(m), _factorization_formula(m))


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rational_pinv_satisfies_penrose(rows):
    m = rational_matrix(rows)
    report = penrose_check(m, rational_pinv(m))
    assert report.exact
    assert report.all_exact


@settings(deadline=None, max_examples=40)
@given(matrices(max_side=3), matrices(max_side=3))
def test_rational_pinv_on_forced_low_rank(a_rows, b_rows):
    a = rational_matrix(a_rows)
    b = rational_matrix(b_rows)
    if a.shape[1] != b.shape[0]:
        b = b.T
    if a.shape[1] != b.shape[0]:
        return
    m = a @ b
    pinv = rational_pinv(m)
    assert penrose_check(m, pinv).all_exact
    assert _same_fractions(pinv, _factorization_formula(m))


def test_penrose_check_identity():
    eye = rational_identity(3)
    report = penrose_check(eye, eye)
    assert report.exact
    assert report.all_exact
    assert report.max_residual == 0.0


def test_penrose_check_shape_mismatch():
    with pytest.raises(ValueError, match="transpose"):
        penrose_check(rational_matrix([[1, 2]]), rational_matrix([[1, 2]]))


def test_penrose_check_float_mode():
    dist = gear_distance_closed(6).astype(float)
    report = penrose_check(dist, gear_pinv_formula(6))
    assert not report.exact
    assert report.within(1e-9)
    assert report.max_residual > 0.0


def test_penrose_check_reports_nan_wherever_a_float_residual_has_one():
    # The NaN is not the first entry, which a plain max() over the entries would skip.
    candidate = np.array([[1.0, 0.0], [0.0, math.nan]])
    report = penrose_check(np.eye(2), candidate)
    assert all(math.isnan(value) for value in astuple(report)[1:])
    assert not report.within(1e-9)


def test_penrose_check_rounded_float_candidate(gear_oracle):
    # Rounding the floating formula output to denominators at most 10**6
    # recovers the exact pseudoinverse (its denominators are far smaller),
    # and the exact-mode report shows residual zero on every condition.
    rounded = np.array(
        [
            [Fraction(x).limit_denominator(10**6) for x in row]
            for row in gear_pinv_formula(6)
        ],
        dtype=object,
    )
    assert (rounded == gear_oracle(6)).all()
    dist = gear_distance_closed(6).astype(object)
    report = penrose_check(dist, rounded)
    assert report.exact
    assert report.all_exact


def test_penrose_check_flags_exact_violations(gear_oracle):
    # A candidate off by 10**-7 in one entry must fail loudly in exact mode.
    perturbed = gear_oracle(6).copy()
    perturbed[0, 0] += Fraction(1, 10**7)
    dist = gear_distance_closed(6).astype(object)
    report = penrose_check(dist, perturbed)
    assert report.exact
    assert not report.all_exact
    assert report.max_residual > 0


def reference_penrose_check(matrix, candidate):
    """Textbook residuals: each Penrose condition in Fraction or float arithmetic."""
    m_mat = np.asarray(matrix)
    x_mat = np.asarray(candidate)
    exact = is_exact(m_mat) and is_exact(x_mat)
    mx = np.dot(m_mat, x_mat)
    xm = np.dot(x_mat, m_mat)
    residuals = (
        np.dot(mx, m_mat) - m_mat,
        np.dot(xm, x_mat) - x_mat,
        mx - mx.T,
        xm - xm.T,
    )
    return (exact, *(float(max(abs(x) for x in r.flat)) for r in residuals))


@settings(deadline=None, max_examples=60)
@given(matrices(), st.data())
def test_penrose_check_matches_reference(rows, data):
    m = rational_matrix(rows)
    row = st.lists(entries, min_size=m.shape[0], max_size=m.shape[0])
    x = rational_matrix(data.draw(st.lists(row, min_size=m.shape[1], max_size=m.shape[1])))
    for candidate in (x, rational_pinv(m), x.astype(float)):
        report = penrose_check(m, candidate)
        assert astuple(report) == reference_penrose_check(m, candidate)


def test_penrose_check_reports_inf_past_the_float_range():
    # The residual 10**400 - 1 over denominator 1 overflows a float, as float input would.
    report = penrose_check(rational_matrix([[1]]), rational_matrix([[10**400]]))
    assert astuple(report) == (True, math.inf, math.inf, 0.0, 0.0)
    with np.errstate(over="ignore"):
        assert penrose_check(np.array([[1.0]]), np.array([[1e200]])).xmx == math.inf


@pytest.mark.parametrize("exponent, residual", [(300, 1e-300), (400, 5e-324)])
def test_penrose_check_flags_a_residual_below_the_float_range(exponent, residual):
    # X = [1 + e] for M = [1] leaves e and e + e**2, e = 10**-exponent: not 0, and
    # below the least positive double it reads as that double, never as 0.0.
    candidate = rational_matrix([[1 + Fraction(1, 10**exponent)]])
    report = penrose_check(rational_matrix([[1]]), candidate)
    assert astuple(report) == (True, residual, residual, 0.0, 0.0)
    assert not report.all_exact


def test_penrose_certificate_is_not_fooled_by_a_product_of_its_primes():
    # With Q the product of the first primes the certificate draws, M = [1] and
    # X = [1 + Q] leave the residual Q, which is 0 modulo each of those primes.
    for count in (1, 2, 3):
        product = math.prod(_first_primes(count))
        report = penrose_check(rational_matrix([[1]]), rational_matrix([[1 + product]]))
        assert report.mxm == float(product)
        assert report.xmx == float(product * (1 + product))


@pytest.mark.parametrize("k", [1, 2])
def test_penrose_certificate_needs_a_prime_product_above_its_bound(k):
    # M = p1 J and X = -p1/b J, with J the k x k all-ones matrix and
    # b = p2 p3 p4 - k^2 p1^2, leave residuals -Q and Q in every entry, where
    # Q = p1 p2 p3 p4 is exactly the certificate's bound: four primes prove
    # nothing, and a bound short by any one term stops at four primes or fewer.
    p1, p2, p3, p4 = _first_primes(4)
    den = p2 * p3 * p4 - k * k * p1 * p1
    m = rational_matrix([[p1] * k] * k)
    x = rational_matrix([[Fraction(-p1, den)] * k] * k)
    report = penrose_check(m, x)
    assert astuple(report) == reference_penrose_check(m, x)
    assert report.mxm == float(Fraction(p1 * p2 * p3 * p4, den))


def test_penrose_check_flags_a_generalized_inverse_that_is_not_symmetric():
    # X and X' both satisfy MXM = M and XMX = X; each breaks exactly one symmetry.
    m = rational_matrix([[1, 0], [0, 0]])
    x = rational_matrix([[1, 1], [0, 0]])
    assert astuple(penrose_check(m, x)) == (True, 0.0, 0.0, 1.0, 0.0)
    assert astuple(penrose_check(m, x.T)) == (True, 0.0, 0.0, 0.0, 1.0)


def test_penrose_check_flags_a_candidate_that_fails_only_xmx():
    # M = diag(1, 0) and X = I: MXM = M and MX = XM = M are symmetric, but XMX = M.
    report = penrose_check(_diagonal(1, 0), rational_identity(2))
    assert astuple(report) == (True, 0.0, 1.0, 0.0, 0.0)
    assert not report.all_exact


def test_penrose_check_flags_a_symmetric_pair_whose_product_is_not_symmetric():
    # M = diag(1, 0) and X = J, the all-ones matrix: MXM = M and XMX = X, MX = [[1, 1], [0, 0]].
    report = penrose_check(_diagonal(1, 0), rational_matrix([[1, 1], [1, 1]]))
    assert astuple(report) == (True, 0.0, 0.0, 1.0, 1.0)
    assert not report.all_exact


def test_penrose_proof_forms_three_residue_products_per_prime_for_a_symmetric_pair(
    gear_oracle, monkeypatch
):
    left = rational_matrix([[1, "1/2"], [2, -1], [0, 3], ["-2/3", 1], [4, 0]])
    product = dot(left, rational_matrix([[1, 0, "2/5", -3], [0, 2, 1, "1/4"]]))
    square = dot(left, rational_matrix([[1, 0, "2/5", -3, 1], [0, 2, 1, "1/4", 0]]))
    pairs = [(gear_distance_closed(9), gear_oracle(9), 3),
             (product, rational_pinv(product), 4), (square, rational_pinv(square), 4)]
    calls, dot_mod = [], gearpinv.rational._dot_mod

    def recording(*args):
        calls.append(args[-1])
        return dot_mod(*args)

    monkeypatch.setattr(gearpinv.rational, "_dot_mod", recording)
    # BA = (AB)' when A and B are symmetric: AB, (AB)A and (AB)'B.  Otherwise BA as well.
    for matrix, pinv, per_prime in pairs:
        calls.clear()
        assert penrose_check(matrix, pinv).all_exact
        assert calls and set(Counter(calls).values()) == {per_prime}


@pytest.fixture
def full_residuals(monkeypatch):
    """Records each call of the integer path that computes the residuals in full."""
    calls = []
    full = gearpinv.pinv._penrose_residuals

    def recording(exact, *split):
        calls.append(exact)
        return full(exact, *split)

    monkeypatch.setattr(gearpinv.pinv, "_penrose_residuals", recording)
    return calls


def test_penrose_check_computes_residuals_only_for_a_failing_candidate(
    full_residuals, gear_oracle, gram_oracle
):
    for n in range(4, 17):
        dist = gear_distance_closed(n).astype(object)
        assert penrose_check(dist, gear_oracle(n)).all_exact
        assert penrose_check(gram_from_edm(dist), gram_oracle(n)).all_exact
    assert full_residuals == []
    perturbed = gear_oracle(6).copy()
    perturbed[3, 5] += Fraction(1, 7)
    assert not penrose_check(gear_distance_closed(6), perturbed).all_exact
    assert full_residuals == [True]


def test_penrose_check_matches_the_full_residuals_on_gears(gear_oracle):
    # Gears n = 4..30 with D+, a perturbed D+ and the float formula: the
    # certificate's report equals the one from the residuals computed in full.
    for n in range(4, 31):
        dist = gear_distance_closed(n).astype(object)
        perturbed = gear_oracle(n).copy()
        perturbed[0, -1] += Fraction(1, 10**7)
        for candidate in (gear_oracle(n), perturbed):
            expected = gearpinv.pinv._penrose_residuals(True, *scaled(dist), *scaled(candidate))
            assert penrose_check(dist, candidate) == expected
        floats = dist.astype(float), gear_pinv_formula(n)
        assert penrose_check(*floats) == gearpinv.pinv._penrose_residuals(False, floats[0], 1,
                                                                          floats[1], 1)


def test_penrose_check_on_empty_input():
    m = rational_zeros(0, 3)
    report = penrose_check(m, rational_pinv(m))
    assert report.exact
    assert astuple(report) == (True, 0.0, 0.0, 0.0, 0.0)


def test_small_n_rejected():
    for func in (u_vector, beta, gear_pinv_formula):
        with pytest.raises(ValueError, match="≥ 4"):
            func(3)
