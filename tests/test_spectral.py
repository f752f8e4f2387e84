"""Closed-form eigenstructure against exact and dense routes."""

import math

import numpy as np
import pytest

from gearpinv import spectral
from gearpinv.circulant import _blocks_dot, circulant
from gearpinv.eigen import jacobi_eigh, numerical_rank
from gearpinv.graphs import gear_distance_closed, rim_to_sub_row
from gearpinv.spectral import (
    lambda_pairs,
    max_eigen_residual,
    null_basis,
    q_vector,
    theta,
)


def test_null_basis_first_vector_n4():
    vectors = null_basis(4)
    assert len(vectors) == 3
    assert np.array_equal(vectors[0], [1, -1, -1, 0, 1, 0, 0])


def test_null_basis_wraparound_vector():
    # The last vector pairs the final cycle vertex with the first one.
    last = null_basis(4)[2]
    assert np.array_equal(last, [1, -1, 0, -1, 0, 0, 1])


def test_null_basis_entry_alphabet():
    for vec in null_basis(9):
        assert vec[0] == 1
        assert set(vec.tolist()) <= {-1, 0, 1}
        assert vec.sum() == 0


def test_null_vectors_killed_exactly():
    for n in range(4, 21):
        dist = gear_distance_closed(n)
        for vec in null_basis(n):
            assert not (dist @ vec).any()


def test_lambda_pair_values_n6():
    values = [value for value, _ in lambda_pairs(6)]
    assert abs(values[0] - (10 + math.sqrt(150))) < 1e-12
    assert abs(values[1] - (10 - math.sqrt(150))) < 1e-12


def test_lambda_sum_and_product_identities():
    for n in range(4, 41):
        first, second = (value for value, _ in lambda_pairs(n))
        assert abs(first + second - 2 * (3 * n - 8)) < 1e-9
        target = (3 * n - 8) ** 2 - 5 * (n * (2 * n - 9) + 12)
        assert abs(first * second - target) < 1e-7 * (1 + abs(target))


def test_lambda_eigen_residuals():
    for n in range(4, 25):
        dist = gear_distance_closed(n).astype(float)
        for value, vector in lambda_pairs(n):
            assert np.max(np.abs(dist @ vector - value * vector)) < 1e-9


def test_theta_range_and_symmetry():
    for n in range(4, 30):
        for k in range(1, n - 1):
            value = theta(n, k)
            assert -10.0 <= value <= -2.0
            assert abs(value - theta(n, n - 1 - k)) < 1e-12


def test_theta_rejects_bad_k():
    with pytest.raises(ValueError):
        theta(6, 0)
    with pytest.raises(ValueError):
        theta(6, 5)


def test_q_vector_alternating_case():
    q = q_vector(5, 2)
    assert np.allclose(q, [0, 1, -1, 1, -1, 0, 0, 0, 0])


def test_q_vector_hub_is_zero():
    for n, k in [(6, 1), (6, 4), (9, 3), (11, 5)]:
        assert q_vector(n, k)[0] == 0


def test_q_vector_rejects_bad_k():
    with pytest.raises(ValueError):
        q_vector(6, 0)
    with pytest.raises(ValueError):
        q_vector(6, 5)


def test_q_eigen_residuals():
    for n in range(4, 17):
        dist = gear_distance_closed(n).astype(float)
        for k in range(1, n - 1):
            q = q_vector(n, k)
            assert np.max(np.abs(dist @ q - theta(n, k) * q)) < 1e-9


def test_q_vector_cycle_block_matches_dense_mixed_block():
    # The cycle block is -S v / (8 cos^2) with S the mixed distance block;
    # q_vector applies S through its eigenvalue instead of a dense product.
    for n in range(4, 25):
        size = n - 1
        s_block = circulant(rim_to_sub_row(n)).astype(float)
        for k in range(1, n - 1):
            if n % 2 == 1 and 2 * k == size:
                continue
            q = q_vector(n, k)
            phi = math.cos(math.pi * k / size)
            dense = -(s_block @ q[n:]) / (8.0 * phi * phi)
            assert np.max(np.abs(q[1:n] - dense)) < 1e-12 * max(1.0, np.max(np.abs(dense)))


def test_max_eigen_residual_sees_a_wrong_eigenvalue(monkeypatch):
    assert max_eigen_residual(12) < 1e-12
    original = spectral._eigenvalues

    def nudged(n):
        values = original(n)
        values[2:] += 1e-6  # every theta; the two lambda values stay
        return values

    monkeypatch.setattr(spectral, "_eigenvalues", nudged)
    assert max_eigen_residual(12) > 1e-7


def test_q_vectors_mutually_orthogonal():
    for n in (7, 8, 9):
        qs = [q_vector(n, k) for k in range(1, n - 1)]
        for a in range(len(qs)):
            for b in range(a + 1, len(qs)):
                inner = np.vdot(qs[a], qs[b])
                scale = np.linalg.norm(qs[a]) * np.linalg.norm(qs[b])
                assert abs(inner) < 1e-10 * scale


def test_cross_eigenspace_orthogonality():
    # Vectors for distinct eigenvalues must be orthogonal: the two simple
    # pairs, the q vectors, and the integer null vectors.
    for n in (8, 9):
        dense = [(value, vector) for value, vector in lambda_pairs(n)]
        qs = [(theta(n, k), q_vector(n, k)) for k in range(1, n - 1)]
        nulls = [(0.0, vec.astype(float)) for vec in null_basis(n)]
        everything = dense + qs + nulls
        ones = np.ones(2 * n - 1)
        for i in range(len(everything)):
            for j in range(i + 1, len(everything)):
                vi, xi = everything[i]
                vj, xj = everything[j]
                if abs(vi - vj) < 1e-9:
                    continue
                inner = abs(np.vdot(xi, xj))
                scale = np.linalg.norm(xi) * np.linalg.norm(xj)
                assert inner < 1e-8 * scale
        for _, q in qs:
            assert abs(np.vdot(ones, q)) < 1e-9 * np.linalg.norm(q)


def test_full_spectrum_reconstruction():
    for n in range(4, 19):
        analytic = [value for value, _ in lambda_pairs(n)]
        analytic += [theta(n, k) for k in range(1, n - 1)]
        analytic += [0.0] * (n - 1)
        dense, _ = jacobi_eigh(gear_distance_closed(n).astype(float))
        assert np.max(np.abs(np.sort(analytic) - dense)) < 1e-8


def test_distance_matrix_rank_is_n():
    for n in range(4, 19):
        values, _ = jacobi_eigh(gear_distance_closed(n).astype(float))
        assert numerical_rank(values) == n


def test_null_basis_spans_numerical_null_space():
    for n in (6, 9, 12):
        values, vectors = jacobi_eigh(gear_distance_closed(n).astype(float))
        cutoff = 1e-8 * np.abs(values).max()
        null_cols = vectors[:, np.abs(values) <= cutoff]
        assert null_cols.shape[1] == n - 1
        for vec in null_basis(n):
            f = vec.astype(float)
            lost = f - null_cols @ (null_cols.T @ f)
            assert np.linalg.norm(lost) <= 1e-9 * np.linalg.norm(f)


def _looped_residual(n):
    # The per-pair check: complex dense D times each closed-form vector.
    dist = gear_distance_closed(n).astype(complex)
    pairs = lambda_pairs(n) + [(theta(n, k), q_vector(n, k)) for k in range(1, n - 1)]
    residual = scale = 0.0
    for value, vector in pairs:
        image = dist @ vector
        residual = max(residual, np.max(np.abs(image - value * vector)))
        scale = max(scale, np.max(np.abs(image)))
    return residual, scale


def test_q_vector_is_a_column_of_the_one_builder():
    for n in range(4, 61):
        matrix = spectral._q_vectors(n, np.arange(1, n - 1))
        assert matrix.shape == (2 * n - 1, n - 2)
        assert not matrix[0].any()
        for k in range(1, n - 1):
            assert np.array_equal(q_vector(n, k), matrix[:, k - 1])
        if n % 2 == 1:
            alternating = matrix[:, (n - 1) // 2 - 1]
            assert np.array_equal(alternating[1:n], (-1.0) ** np.arange(n - 1))
            assert not alternating[n:].any()
    for n in [*range(4, 41), 150, 151]:
        residual, scale = _looped_residual(n)
        assert abs(max_eigen_residual(n) - residual) <= 1e-12 * scale


def _complex_residual(n):
    # D applied to the complex X itself, each entry multiplied as a complex number.
    vectors = np.empty((2 * n - 1, n), dtype=np.complex128)
    vectors[:, 0], vectors[:, 1] = (vector for _, vector in lambda_pairs(n))
    spectral._q_vectors(n, np.arange(1, n - 1), out=vectors[:, 2:])
    residual = _blocks_dot(spectral._gear_distance_rows(n), vectors)
    return float(np.max(np.abs(residual - vectors * spectral._eigenvalues(n))))


def test_max_eigen_residual_on_the_real_view_equals_the_complex_product():
    for n in [*range(4, 61), 150, 151, 300]:
        assert max_eigen_residual(n) == _complex_residual(n), n


@pytest.mark.parametrize("n", [11, 12])
def test_max_eigen_residual_sees_one_wrong_eigenvalue(monkeypatch, n):
    # Perturbing a single theta must show, so no column is dropped or shifted.
    original = spectral._eigenvalues
    wrong_ks = [1, n - 2] + ([(n - 1) // 2] if n % 2 == 1 else [])
    for wrong in wrong_ks:
        def nudged(m, wrong=wrong):
            values = original(m)
            values[1 + wrong] += 1e-6  # lambda+, lambda-, then theta(m, k) at 1 + k
            return values

        monkeypatch.setattr(spectral, "_eigenvalues", nudged)
        assert max_eigen_residual(n) > 1e-7


@pytest.mark.parametrize("n", [11, 12])
def test_max_eigen_residual_sees_one_wrong_vector_entry(monkeypatch, n):
    # Nudging one entry of the first, the last or the alternating q column must show.
    original = spectral._q_vectors
    columns = [0, n - 3] + ([(n - 1) // 2 - 1] if n % 2 == 1 else [])
    for column in columns:
        def nudged(m, ks, out=None, column=column):
            out = original(m, ks, out)
            out[1, column] += 1e-6
            return out

        monkeypatch.setattr(spectral, "_q_vectors", nudged)
        assert max_eigen_residual(n) > 1e-7


@pytest.mark.parametrize("n", [11, 12])
def test_max_eigen_residual_reads_the_rows_of_d(monkeypatch, n):
    # One ring entry of the subdivision row off by one: D X no longer matches.
    original = spectral._gear_distance_rows

    def wrong(m):
        rows = original(m).copy()
        rows[2, m + 1] += 1
        return rows

    assert max_eigen_residual(n) < 1e-12
    monkeypatch.setattr(spectral, "_gear_distance_rows", wrong)
    assert max_eigen_residual(n) > 1e-3
