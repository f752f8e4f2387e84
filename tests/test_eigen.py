"""Symmetric eigensolver against known answers and numpy."""

import numpy as np
import pytest

from gearpinv.eigen import jacobi_eigh, numerical_rank
from gearpinv.graphs import gear_distance_closed


def test_two_by_two_golden():
    values, vectors = jacobi_eigh([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(values, [1.0, 3.0])
    assert np.allclose(np.abs(vectors[:, 0]), [1 / np.sqrt(2)] * 2)
    assert np.allclose(vectors.T @ vectors, np.eye(2), atol=1e-14)


def test_diagonal_input_sorted():
    values, _ = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(values, [-1.0, 2.0, 3.0])


def test_zero_and_single():
    values, vectors = jacobi_eigh(np.zeros((3, 3)))
    assert np.allclose(values, 0.0)
    assert np.allclose(vectors, np.eye(3))
    values, _ = jacobi_eigh([[7.0]])
    assert values[0] == 7.0


def test_empty_matrix_has_no_eigenpairs():
    # As numpy.linalg.eigh does: no values and a 0 x 0 matrix of vectors.
    values, vectors = jacobi_eigh(np.zeros((0, 0)))
    assert values.shape == (0,) and vectors.shape == (0, 0)


def test_input_validation():
    with pytest.raises(ValueError, match="square"):
        jacobi_eigh(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigh([[0.0, 1.0], [0.0, 0.0]])
    # Off by 1e-6, far past 1e-12 (1 + max |a|), though within allclose's default rtol.
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigh([[1.0, 1.0], [1.000001, 1.0]])


def test_random_matrices_match_numpy():
    rng = np.random.default_rng(7)
    for size in (2, 5, 11, 24):
        base = rng.normal(size=(size, size))
        sym = (base + base.T) / 2
        values, vectors = jacobi_eigh(sym)
        reference = np.sort(np.linalg.eigvalsh(sym))
        assert np.max(np.abs(values - reference)) < 1e-9
        assert np.max(np.abs(vectors.T @ vectors - np.eye(size))) < 1e-12
        rebuilt = vectors @ np.diag(values) @ vectors.T
        assert np.max(np.abs(rebuilt - sym)) < 1e-10 * (1 + np.abs(sym).max())


def test_input_not_mutated():
    sym = np.array([[2.0, 1.0], [1.0, 2.0]])
    copy = sym.copy()
    jacobi_eigh(sym)
    assert np.array_equal(sym, copy)


def test_gear_distance_rank():
    for n in (4, 7, 10):
        values, _ = jacobi_eigh(gear_distance_closed(n).astype(float))
        assert numerical_rank(values) == n


def test_numerical_rank_thresholding():
    assert numerical_rank([5.0, 1e-12, 0.0]) == 1
    assert numerical_rank([0.0, 0.0]) == 0
    assert numerical_rank([1.0, -2.0, 0.5]) == 3
    assert numerical_rank([1.0, 2e-8, 1e-9], rel=1e-8) == 2
