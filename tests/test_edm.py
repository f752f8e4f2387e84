"""Distance-matrix recognition and the Gram-route pseudoinverse."""

import random
from fractions import Fraction

import numpy as np
import pytest

import gearpinv.edm
import gearpinv.verify
from gearpinv.edm import (
    balaji_bapat_pinv,
    centering_projector,
    gram_from_edm,
    is_edm,
)
from gearpinv.graphs import gear_distance_closed
from gearpinv.pinv import rational_pinv
from gearpinv.rational import rational_matrix, rational_zeros
from gearpinv.trees import graham_lovasz_inverse, tree_distance, weighted_tree_inverse


def integer_point_edm(seed: int, m: int, dim: int, reach: int) -> np.ndarray:
    """Squared distances of m seeded integer points in [-reach, reach]^dim."""
    rng = random.Random(seed)
    points = [[rng.randint(-reach, reach) for _ in range(dim)] for _ in range(m)]
    return np.array(
        [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in points] for p in points],
        dtype=object,
    )


def test_centering_projector_golden():
    proj = centering_projector(2)
    half = Fraction(1, 2)
    assert (proj == rational_matrix([[half, -half], [-half, half]])).all()


@pytest.mark.parametrize("m", list(range(1, 13)) + [50])
def test_centering_projector_properties(m):
    proj = centering_projector(m)
    assert (proj @ proj == proj).all()
    assert (proj == proj.T).all()
    ones = np.full(m, Fraction(1), dtype=object)
    assert not (proj @ ones).any()


def test_centering_projector_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        centering_projector(0)


def test_gram_golden_two_points():
    gram = gram_from_edm(rational_matrix([[0, 1], [1, 0]]))
    q = Fraction(1, 4)
    assert (gram == rational_matrix([[q, -q], [-q, q]])).all()


@pytest.mark.parametrize("n", [4, 5, 6, 9])
def test_gram_row_sums_and_trace(n):
    dist = gear_distance_closed(n)
    m = dist.shape[0]
    gram = gram_from_edm(dist)
    ones = np.full(m, Fraction(1), dtype=object)
    assert not (gram @ ones).any()
    mass = ones @ (dist @ ones)
    assert sum(gram[i, i] for i in range(m)) == mass / (2 * m)


def test_gram_validation():
    with pytest.raises(ValueError, match="square"):
        gram_from_edm(rational_matrix([[0, 1, 2], [1, 0, 1]]))
    with pytest.raises(ValueError, match="exact"):
        gram_from_edm(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="hollow"):
        gram_from_edm(rational_matrix([[1, 0], [0, 1]]))
    with pytest.raises(ValueError, match="symmetric"):
        gram_from_edm(rational_matrix([[0, 1], [2, 0]]))


@pytest.mark.parametrize("n", range(4, 17))
def test_gram_matches_projector_product_on_gears(n):
    dist = gear_distance_closed(n).astype(object)
    proj = centering_projector(dist.shape[0])
    assert (gram_from_edm(dist) == Fraction(-1, 2) * (proj @ dist @ proj)).all()


def test_gram_matches_projector_product_on_rational_trees(weighted_tree_corpus):
    for tree in weighted_tree_corpus:
        dist = tree_distance(tree)
        proj = centering_projector(dist.shape[0])
        assert (gram_from_edm(dist) == Fraction(-1, 2) * (proj @ dist @ proj)).all()


@pytest.mark.parametrize("m", [20, 30, 40])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_integer_point_edms_decided_exactly(m, dim):
    dist = integer_point_edm(1000 * m + dim, m, dim, reach=3000)
    assert is_edm(dist).is_edm
    i, j = random.Random(m + dim).sample(range(m), 2)
    dist[i, j] += 1
    dist[j, i] += 1
    assert not is_edm(dist).is_edm


@pytest.mark.parametrize("n", [4, 5, 6, 8, 11])
def test_gear_distances_are_edms(n):
    report = is_edm(gear_distance_closed(n))
    assert report.is_edm
    assert report.is_hollow and report.is_symmetric
    assert report.min_gram_eigenvalue >= -1e-9
    assert report.beta == pytest.approx(2 / (n - 1), abs=1e-12)


def test_tree_distances_are_edms(unit_tree_corpus):
    for tree in unit_tree_corpus[:6]:
        assert is_edm(tree_distance(tree)).is_edm


def test_negative_entry_is_not_an_edm():
    report = is_edm(rational_matrix([[0, -1], [-1, 0]]))
    assert not report.is_edm
    assert report.min_gram_eigenvalue < -1e-9
    # 1' D+ 1 is still reported: here D+ = D, so the mass is -2.
    assert report.beta == pytest.approx(-2.0)


def test_is_edm_flags_shape_defects():
    asym = is_edm(rational_matrix([[0, 1], [2, 0]]))
    assert not asym.is_symmetric and not asym.is_edm
    assert np.isnan(asym.min_gram_eigenvalue)
    filled = is_edm(rational_matrix([[1, 1], [1, 1]]))
    assert not filled.is_hollow and not filled.is_edm


@pytest.mark.parametrize("n", range(4, 11))
def test_gram_route_matches_oracle_on_gears(n, gear_oracle):
    got = balaji_bapat_pinv(gear_distance_closed(n))
    want = gear_oracle(n).astype(float)
    assert np.abs(got - want).max() <= 1e-9


def test_gram_route_matches_tree_inverse(unit_tree_corpus, weighted_tree_corpus):
    for tree in unit_tree_corpus[:6]:
        got = balaji_bapat_pinv(tree_distance(tree))
        want = graham_lovasz_inverse(tree).astype(float)
        assert np.abs(got - want).max() <= 1e-9
    for tree in weighted_tree_corpus:
        got = balaji_bapat_pinv(tree_distance(tree))
        want = weighted_tree_inverse(tree).astype(float)
        assert np.abs(got - want).max() <= 1e-9


def test_gram_route_needs_positive_mass():
    with pytest.raises(ValueError, match="1' D\\+ 1 > 0"):
        balaji_bapat_pinv(rational_zeros(3, 3))
    with pytest.raises(ValueError, match="1' D\\+ 1 > 0"):
        balaji_bapat_pinv(rational_matrix([[0, -1], [-1, 0]]))
    # Hollow symmetric but not an EDM; the route used to return a wrong matrix.
    with pytest.raises(ValueError, match="1' D\\+ 1 > 0"):
        balaji_bapat_pinv(rational_matrix([[0, 0, 8], [0, 0, 6], [8, 6, 0]]))
    # Three collinear points: an EDM, but not spherical.
    with pytest.raises(ValueError, match="1' D\\+ 1 > 0"):
        balaji_bapat_pinv(rational_matrix([[0, 1, 4], [1, 0, 1], [4, 1, 0]]))


def test_gram_route_is_right_or_raises_on_hollow_symmetric_input():
    rng = random.Random(5)
    returned = 0
    for _ in range(200):
        m = rng.randint(3, 6)
        dist = np.zeros((m, m), dtype=object)
        for i in range(m):
            for j in range(i + 1, m):
                dist[i, j] = dist[j, i] = rng.randint(-3, 9)
        try:
            got = balaji_bapat_pinv(dist)
        except ValueError:
            continue
        returned += 1
        assert np.abs(got - rational_pinv(dist).astype(float)).max() <= 1e-9
    assert returned >= 100


def _recording(calls):
    def record(matrix):
        calls.append(np.asarray(matrix, dtype=object))
        return rational_pinv(matrix)

    return record


def _count_equal(calls, dist):
    return sum(arg.shape == dist.shape and (arg == dist).all() for arg in calls)


@pytest.mark.parametrize("n", [4, 7, 10])
def test_gram_route_never_takes_the_pseudoinverse_of_d(n, monkeypatch):
    calls = []
    monkeypatch.setattr(gearpinv.edm, "rational_pinv", _recording(calls))
    dist = gear_distance_closed(n)
    balaji_bapat_pinv(dist)
    assert calls and _count_equal(calls, dist) == 0


def test_verify_takes_the_pseudoinverse_of_d_once(monkeypatch):
    calls = []
    monkeypatch.setattr(gearpinv.edm, "rational_pinv", _recording(calls))
    monkeypatch.setattr(gearpinv.verify, "rational_pinv", _recording(calls))
    results = gearpinv.verify.run_checks(8)
    assert all(result.passed for result in results)
    assert _count_equal(calls, gear_distance_closed(8)) == 1
