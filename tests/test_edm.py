"""Distance-matrix recognition and the Gram-route pseudoinverse."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import gearpinv.edm
import gearpinv.pinv
import gearpinv.rational
import gearpinv.verify
from gearpinv.edm import (
    EdmReport,
    _edm_pinv_ints,
    _gram_ints,
    balaji_bapat_pinv,
    centering_projector,
    gram_from_edm,
    is_edm,
)
from gearpinv.eigen import jacobi_eigh
from gearpinv.graphs import gear_distance_closed
from gearpinv.pinv import _pinv_ints, rational_pinv
from gearpinv.rational import is_psd, rational_matrix, rational_zeros, scaled, unscaled
from gearpinv.trees import graham_lovasz_inverse, tree_distance, weighted_tree_inverse


def integer_point_edm(seed: int, m: int, dim: int, reach: int) -> np.ndarray:
    """Squared distances of m seeded integer points in [-reach, reach]^dim."""
    rng = random.Random(seed)
    points = [[rng.randint(-reach, reach) for _ in range(dim)] for _ in range(m)]
    return np.array(
        [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in points] for p in points],
        dtype=object,
    )


def _refuse(ints, scale):
    raise AssertionError("is_edm took a pseudoinverse")


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


@pytest.mark.parametrize("func", [gram_from_edm, is_edm])
def test_empty_matrix_rejected(func):
    with pytest.raises(ValueError, match="positive order"):
        func(rational_zeros(0, 0))


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
def test_integer_point_edms_decided_exactly(m, dim, monkeypatch):
    monkeypatch.setattr(gearpinv.rational, "_pinv_ints", _refuse)
    dist = integer_point_edm(1000 * m + dim, m, dim, reach=3000)
    assert is_edm(dist).is_edm
    i, j = random.Random(m + dim).sample(range(m), 2)
    dist[i, j] += 1
    dist[j, i] += 1
    assert not is_edm(dist).is_edm


@pytest.mark.parametrize("n", range(4, 17))
def test_gear_distances_are_edms(n, monkeypatch):
    monkeypatch.setattr(gearpinv.rational, "_pinv_ints", _refuse)
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


def test_is_edm_matches_the_fraction_gram_route(unit_tree_corpus, weighted_tree_corpus):
    rng = random.Random(3)
    inputs = [gear_distance_closed(n) for n in range(4, 17)]
    inputs += [tree_distance(tree) for tree in unit_tree_corpus + weighted_tree_corpus]
    for seed in range(50):
        m, dim = rng.randint(2, 25), rng.randint(1, 4)
        inputs.append(integer_point_edm(seed, m, dim, reach=rng.choice([3, 10, 100, 3000])))
    inputs += [_hollow_symmetric(rng) for _ in range(20)]
    # Gram numerators far above 2**53, where only exact division rounds right.
    inputs += [integer_point_edm(seed, 12, 3, reach=10**9) * Fraction(1, 7) for seed in range(3)]
    # Gears one symmetric entry off an EDM, in and outside the first row.
    for n in (16, 30):
        for (i, j), delta in (((0, n), 1), ((1, 2 * n - 2), -1)):
            dist = gear_distance_closed(n).astype(object)
            dist[i, j] = dist[j, i] = dist[i, j] + delta
            inputs.append(dist)
    # Schoenberg's matrix of a 1x1 D has order 0, of a 2x2 D order 1.
    inputs += [rational_matrix([[0]]), rational_matrix([[0, "5/2"], ["5/2", 0]])]
    verdicts = set()
    for dist in inputs:
        gram = gram_from_edm(dist)
        min_eig = float(jacobi_eigh(gram.astype(float))[0][0])
        want = EdmReport(len(dist), True, True, min_eig, is_psd(gram), float(rational_pinv(dist).sum()))
        got = is_edm(dist)
        assert got == want
        assert got.min_gram_eigenvalue.hex() == want.min_gram_eigenvalue.hex()
        verdicts.add(got.is_edm)
    assert verdicts == {True, False}


def _hollow_symmetric(rng):
    m = rng.randint(3, 6)
    dist = np.zeros((m, m), dtype=object)
    for i in range(m):
        for j in range(i + 1, m):
            dist[i, j] = dist[j, i] = rng.randint(-3, 9)
    return dist


@pytest.mark.parametrize(
    "rows, beta",
    [
        # Symmetric, but 1 is outside range(D); D+ = D here.
        ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], 2.0),
        # Not symmetric: D^-1 = [[0, 1/2], [1, 0]].
        ([[0, 1], [2, 0]], 1.5),
        # Schoenberg's matrix has order 0, and D = 0 has no pivot column.
        ([[0]], 0.0),
    ],
)
def test_is_edm_falls_back_to_the_pseudoinverse(rows, beta, monkeypatch):
    calls = []
    monkeypatch.setattr(gearpinv.rational, "_pinv_ints", _recording(calls))
    assert is_edm(rational_matrix(rows)).beta == beta
    assert len(calls) == 1


def test_is_edm_beta_equals_pseudoinverse_mass(monkeypatch):
    calls = []
    monkeypatch.setattr(gearpinv.rational, "_pinv_ints", _recording(calls))
    rng = random.Random(11)
    for _ in range(200):
        dist = _hollow_symmetric(rng)
        assert is_edm(dist).beta == float(rational_pinv(dist).sum())
    # Both branches ran: 190 solves and 10 fallbacks.
    assert len(calls) == 10


def _spy(calls, func):
    def spy(*args):
        calls.append(args)
        return func(*args)

    return spy


def _repeated_first_point(dist):
    """The EDM of the same points with the first one listed twice: columns 0 and 1 are equal."""
    order = [0, *range(len(dist))]
    return dist[np.ix_(order, order)]


@pytest.mark.parametrize(
    "dist, rank",
    [
        (gear_distance_closed(12), 12),
        (integer_point_edm(7, 40, 3, reach=1000), 5),
        # Column 1 is no pivot column, so x must be read back on Q, not on the first r columns.
        (_repeated_first_point(integer_point_edm(5, 12, 2, reach=50)), 4),
    ],
    ids=["gear-n12", "points-40x3", "points-repeated"],
)
def test_is_edm_solves_on_the_pivot_block(dist, rank, monkeypatch):
    calls, want = [], float(rational_pinv(dist).sum())
    monkeypatch.setattr(gearpinv.rational, "_pinv_ints", _refuse)
    spy = _spy(calls, gearpinv.rational._gauss_jordan)
    monkeypatch.setattr(gearpinv.rational, "_gauss_jordan", spy)
    assert is_edm(dist).beta == want
    # One fraction-free pass, over [K | s 1] for the r x r pivot block K alone.
    assert len(calls) == 1
    (rows,) = calls[0]
    assert len(rows) == rank
    assert all(len(row) == rank + 1 for row in rows)


@pytest.mark.parametrize(
    "dist", [gear_distance_closed(12), integer_point_edm(7, 40, 3, reach=1000)],
    ids=["gear-n12", "points-40x3"],
)
def test_is_edm_certificate_rejects_a_short_pivot_set(dist, monkeypatch):
    calls, want = [], float(rational_pinv(dist).sum())
    pivots, picked = gearpinv.rational._pivots, []

    def drop_last_pivot_first(ints, p):
        rows, cols, inverse = pivots(ints, p)
        if not picked:
            rows, cols = rows[:-1], cols[:-1]
        picked.append(cols)
        return rows, cols, inverse

    monkeypatch.setattr(gearpinv.rational, "_pivots", drop_last_pivot_first)
    monkeypatch.setattr(gearpinv.rational, "_pinv_ints", _recording(calls))
    # The first pass, as an unlucky prime would, misses a pivot: K y = s 1 still solves on the
    # short block, but A[:, Q] y = s d 1 fails, and D+ is summed instead.
    assert is_edm(dist).beta == want
    assert len(calls) == 1 and len(picked[0]) + 1 == len(picked[1])


@pytest.mark.parametrize(
    "rows, beta",
    [
        # Not hollow: D = J, D+ = J/4, and x = (1, 0) solves D x = 1.
        ([[1, 1], [1, 1]], 1.0),
        # Not hollow, nonsingular: D^-1 = [[-1, 2], [2, -1]]/3.
        ([[1, 2], [2, 1]], 2 / 3),
    ],
)
def test_is_edm_solves_for_beta_on_non_hollow_input(rows, beta, monkeypatch):
    dist = rational_matrix(rows)
    assert float(rational_pinv(dist).sum()) == beta
    monkeypatch.setattr(gearpinv.rational, "_pinv_ints", _refuse)
    report = is_edm(dist)
    assert not report.is_hollow and report.beta == beta


def test_is_edm_flags_shape_defects():
    asym = is_edm(rational_matrix([[0, 1], [2, 0]]))
    assert not asym.is_symmetric and not asym.is_edm
    assert np.isnan(asym.min_gram_eigenvalue)
    filled = is_edm(rational_matrix([[1, 1], [1, 1]]))
    assert not filled.is_hollow and not filled.is_edm


@pytest.mark.parametrize("n", range(4, 11))
def test_gram_route_matches_oracle_on_gears(n, gear_oracle):
    got = balaji_bapat_pinv(gear_distance_closed(n))
    assert (got == gear_oracle(n).astype(float)).all()


def test_gram_route_matches_tree_inverse(unit_tree_corpus, weighted_tree_corpus):
    for tree in unit_tree_corpus[:6]:
        got = balaji_bapat_pinv(tree_distance(tree))
        assert (got == graham_lovasz_inverse(tree).astype(float)).all()
    for tree in weighted_tree_corpus:
        got = balaji_bapat_pinv(tree_distance(tree))
        assert (got == weighted_tree_inverse(tree).astype(float)).all()


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
        dist = _hollow_symmetric(rng)
        try:
            got = balaji_bapat_pinv(dist)
        except ValueError:
            continue
        returned += 1
        assert (got == rational_pinv(dist).astype(float)).all()
    assert returned >= 100


def _recording(calls):
    def record(ints, scale):
        calls.append(unscaled(ints, scale))
        return _pinv_ints(ints, scale)

    return record


def _count_equal(calls, dist):
    return sum(arg.shape == dist.shape and (arg == dist).all() for arg in calls)


@pytest.mark.parametrize("n", [4, 7, 10])
def test_gram_route_never_takes_the_pseudoinverse_of_d(n, monkeypatch):
    calls = []
    monkeypatch.setattr(gearpinv.edm, "_pinv_ints", _recording(calls))
    dist = gear_distance_closed(n)
    balaji_bapat_pinv(dist)
    assert calls and _count_equal(calls, dist) == 0


def test_verify_takes_one_pseudoinverse_of_g_and_none_of_d(monkeypatch):
    # run_checks passes integer pairs (ints, den) between its exact stages, and derives
    # D+ from G+ (_edm_pinv_ints), so its one residue pseudoinverse is of G.
    calls, gram_calls = [], []

    def recording_pinv(ints, den, certificate=None):
        calls.append(unscaled(ints, den))
        return _pinv_ints(ints, den, certificate)

    def counted_gram(ints, den):
        gram_calls.append(ints)
        return _gram_ints(ints, den)

    monkeypatch.setattr(gearpinv.pinv, "_pinv_ints", recording_pinv)
    monkeypatch.setattr(gearpinv.edm, "_pinv_ints", recording_pinv)
    monkeypatch.setattr(gearpinv.verify, "_pinv_ints", recording_pinv)
    monkeypatch.setattr(gearpinv.verify, "_gram_ints", counted_gram)
    results = gearpinv.verify.run_checks(8)
    assert all(result.passed for result in results)
    dist = gear_distance_closed(8)
    assert _count_equal(calls, dist) == 0
    assert _count_equal(calls, gram_from_edm(dist)) == 1
    assert len(calls) == 1
    assert len(gram_calls) == 1


@pytest.mark.parametrize("n", range(4, 31))
def test_d_pinv_from_g_pinv_is_the_residue_pseudoinverse_of_d(n):
    ints, scale = scaled(gear_distance_closed(n))
    got, got_den = _edm_pinv_ints(ints, scale, *_pinv_ints(*_gram_ints(ints, scale)))
    want, want_den = _pinv_ints(ints, scale)
    assert (got * want_den == want * got_den).all()
    assert math.gcd(got_den, *got.flat) == 1 and got_den > 0


def test_d_pinv_from_g_pinv_needs_a_spherical_d():
    # Three collinear points: an EDM, but not spherical, so the identity does not apply.
    ints, scale = scaled(rational_matrix([[0, 1, 4], [1, 0, 1], [4, 1, 0]]))
    with pytest.raises(ValueError, match="1' D\\+ 1 > 0"):
        _edm_pinv_ints(ints, scale, *_pinv_ints(*_gram_ints(ints, scale)))
