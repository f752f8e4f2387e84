"""The exact checks of run_checks against the same checks built from the public routes."""

import math
from fractions import Fraction

import numpy as np
import pytest

import gearpinv.edm
import gearpinv.pinv
import gearpinv.rational
import gearpinv.verify
from gearpinv.edm import (
    _edm_pinv_ints, _gram_ints, _schoenberg_psd, balaji_bapat_pinv, gram_from_edm,
)
from gearpinv.graphs import gear_distance_closed
from gearpinv.laplacian import special_laplacian
from gearpinv.pinv import (
    _penrose_ints, _pinv_ints, beta, gear_pinv_formula, penrose_check, rational_pinv, u_vector,
)
from gearpinv.rational import (
    _pivots, _primes, _psd_certified, _psd_ints, _reconstruct, _residuals_vanish, is_psd, scaled,
    unscaled,
)
from gearpinv.spectral import null_basis
from gearpinv.trees import tree_distance
from gearpinv.verify import CheckResult, _OracleProof, run_checks


def _sup(matrix):
    return float(np.max(np.abs(matrix)))


def reference_exact_checks(n, tol=1e-9):
    """Checks 6 to 9 of run_checks, each from public routes on Fraction matrices."""
    dist = gear_distance_closed(n)
    oracle = rational_pinv(dist)
    lap = special_laplacian(n)
    gram = gram_from_edm(dist)
    identity = _sup(lap - rational_pinv(gram).astype(float))
    formula = _sup(gear_pinv_formula(n) - oracle.astype(float))
    report = penrose_check(dist, oracle)
    edm = _sup(balaji_bapat_pinv(dist) - oracle.astype(float))
    return [
        CheckResult("laplacian-identity", identity <= tol, identity),
        CheckResult("formula-vs-oracle", formula <= tol, formula),
        CheckResult("penrose", report.all_exact, report.max_residual),
        CheckResult("edm", is_psd(gram) and edm <= tol, edm),
    ]


@pytest.mark.parametrize("n", range(4, 21))
def test_run_checks_matches_the_public_routes(n):
    got = run_checks(n)
    assert all(result.passed for result in got)
    want = reference_exact_checks(n)
    assert got[5:] == want
    # Equal floats can still differ in sign of zero: compare the bits.
    assert [result.residual.hex() for result in got[5:]] == [r.residual.hex() for r in want]


@pytest.mark.parametrize("n", [6, 9])
def test_check_8_proves_the_penrose_conditions_itself(n, monkeypatch):
    # D+ is derived from G+ with no certificate of its own: check 8 proves it from D and D+,
    # inside the residue loop from N = 9 and on the skeleton's G+ below.
    calls = []

    def recording(a_ints, b_ints, ab):
        calls.append(a_ints)
        return _residuals_vanish(a_ints, b_ints, ab)

    for module in (gearpinv.pinv, gearpinv.verify):
        monkeypatch.setattr(module, "_residuals_vanish", recording)
    run_checks(n)
    assert len(calls) == 1 and (calls[0] == gear_distance_closed(n)).all()


def test_check_9_tests_the_schoenberg_matrix_for_semidefiniteness(monkeypatch):
    seen = []
    monkeypatch.setattr(gearpinv.edm, "_psd_ints", lambda ints: seen.append(ints) or False)
    results = {result.name: result for result in run_checks(6)}
    assert not results["edm"].passed
    # D is an EDM exactly when S[i, j] = d[0, i] + d[0, j] - d[i, j] (i, j >= 1) is PSD,
    # and any positive multiple of S carries S's verdict.
    dist = gear_distance_closed(6)
    schoenberg = np.array([[dist[0, i] + dist[0, j] - dist[i, j] for j in range(1, 11)]
                           for i in range(1, 11)])
    assert len(seen) == 1 and seen[0].shape == (10, 10)
    assert (seen[0] * schoenberg[0, 0] == schoenberg * seen[0][0, 0]).all()
    assert seen[0][0, 0] * schoenberg[0, 0] > 0


def _failed(results):
    return {result.name for result in results if not result.passed}


@pytest.mark.parametrize("n", [4, 7, 12])
@pytest.mark.parametrize("vertex", ["hub", "rim", "subdivision"])
def test_check_4_rejects_a_wrong_u_vector(n, vertex, monkeypatch):
    u = u_vector(n)
    u[{"hub": 0, "rim": 1, "subdivision": n}[vertex]] += Fraction(1, 7)
    monkeypatch.setattr(gearpinv.verify, "u_vector", lambda size: u.copy())
    results = run_checks(n)
    assert _failed(results) == {"beta"}
    # The largest of |Du - 1|, |Nu| and |1'u - beta|, in Fractions.
    dist, nulls = gear_distance_closed(n).astype(object), np.array(null_basis(n), dtype=object)
    worst = max(abs(x) for x in [*(dist.dot(u) - 1), *nulls.dot(u), u.sum() - beta(n)])
    assert worst > 0
    assert results[3].residual == float(worst)


@pytest.mark.parametrize("n", [4, 7, 12])
def test_check_8_rejects_a_wrong_derived_d_pinv(n, monkeypatch):
    def corrupted(*args):
        ints, den = _edm_pinv_ints(*args)
        ints = ints.copy()
        ints[1, 2] += 1  # off by 1/den
        return ints, den

    monkeypatch.setattr(gearpinv.verify, "_edm_pinv_ints", corrupted)
    assert "penrose" in _failed(run_checks(n))


@pytest.mark.parametrize("n", [4, 7, 12])
def test_checks_6_and_8_reject_a_wrong_g_pinv(n, monkeypatch):
    def corrupted(ints, den, certificate):
        pinv, pinv_den = _pinv_ints(ints, den, certificate)
        pinv = pinv.copy()
        pinv[1, 2] += pinv_den  # off by 1
        return pinv, pinv_den

    monkeypatch.setattr(gearpinv.verify, "_pinv_ints", corrupted)
    assert {"laplacian-identity", "penrose"} <= _failed(run_checks(n))


@pytest.mark.parametrize("n", [7, 12, 20])
def test_check_8_alone_rejects_a_g_pinv_wrong_below_the_tolerance(n, monkeypatch):
    # G+ + E/den with E = vv', v = e1 - e2: rim vertices 1 and 2 have equal row sums R in D,
    # so E R = 0 leaves w and the sphericity guard unchanged, and D+ moves by -E/(2 den).
    def corrupted(ints, den, certificate):
        pinv, pinv_den = _pinv_ints(ints, den, certificate)
        pinv = pinv.copy()
        pinv[1, 1] += 1
        pinv[2, 2] += 1
        pinv[1, 2] -= 1
        pinv[2, 1] -= 1
        return pinv, pinv_den

    monkeypatch.setattr(gearpinv.verify, "_pinv_ints", corrupted)
    results = run_checks(n)
    assert _failed(results) == {"penrose"}
    assert 0 < results[7].residual < math.inf


@pytest.mark.parametrize("n", [6, 7, 12, 20])
def test_check_8_alone_rejects_a_non_symmetric_g_pinv(n, monkeypatch):
    # G+ + E/den with E = e1 (e2 - e3)': E 1 = 0 and E R = 0 for the equal row sums R of
    # rim vertices 2 and 3, so w and the sphericity guard are unchanged, but 1'E is not 0
    # and E is not symmetric, so neither is the derived D+.
    def corrupted(ints, den, certificate):
        pinv, pinv_den = _pinv_ints(ints, den, certificate)
        pinv = pinv.copy()
        pinv[1, 2] += 1
        pinv[1, 3] -= 1
        return pinv, pinv_den

    monkeypatch.setattr(gearpinv.verify, "_pinv_ints", corrupted)
    results = run_checks(n)
    assert _failed(results) == {"penrose"}
    assert 0 < results[7].residual < math.inf


def _counting(calls, name, func):
    def counted(*args):
        calls.append(name)
        return func(*args)

    return counted


def test_one_exact_proof_and_no_elimination_per_run_checks(monkeypatch):
    # From N = 9 the residue loop's certificate for G+ is check 8's proof of D+, and a
    # proved G+ lets check 9 prove G PSD with no exact elimination.
    calls = []
    for module in (gearpinv.rational, gearpinv.pinv, gearpinv.verify):
        monkeypatch.setattr(module, "_residuals_vanish",
                            _counting(calls, "vanish", _residuals_vanish))
    for module in (gearpinv.rational, gearpinv.edm):
        monkeypatch.setattr(module, "_psd_ints", _counting(calls, "psd", _psd_ints))
    for n in range(9, 41):
        calls.clear()
        assert all(result.passed for result in run_checks(n))
        assert calls == ["vanish"], n


def test_the_loop_certificate_refuses_a_wrong_g_pinv(monkeypatch):
    # The first candidate for G+ gets E = vv', v = e1 - e2, over its denominator:
    # E 1 = 0, and rim vertices 1 and 2 have equal row sums in D, so the sphericity
    # guard holds as well.  Only the Penrose proof of Z can refuse it.
    # G is symmetric, so the loop reconstructs its upper triangle alone, and the edit at
    # (1, 1), (2, 2) and (1, 2) is mirrored to (2, 1).
    handed, verdicts, reports, eliminations = [], [], [], []
    upper = {pair: k for k, pair in enumerate(zip(*np.triu_indices(2 * 12 - 1)))}

    def wrong_first(value, modulus):
        found = _reconstruct(value, modulus)
        if found is None or handed:
            return found
        pinv, den = found
        pinv = pinv.copy()
        pinv[upper[1, 1]] += 1
        pinv[upper[2, 2]] += 1
        pinv[upper[1, 2]] -= 1
        handed.append(pinv)
        return pinv, den

    def certified(*args):
        verdicts.append(_residuals_vanish(*args))
        return verdicts[-1]

    def recorded(*args):
        reports.append(_penrose_ints(*args))
        return reports[-1]

    monkeypatch.setattr(gearpinv.rational, "_reconstruct", wrong_first)
    monkeypatch.setattr(gearpinv.verify, "_residuals_vanish", certified)
    monkeypatch.setattr(gearpinv.verify, "_penrose_ints", recorded)
    monkeypatch.setattr(gearpinv.edm, "_psd_ints", _counting(eliminations, "psd", _psd_ints))
    results = run_checks(12)
    assert all(result.passed for result in results)
    assert len(handed) == 1
    # Refused in the loop by the certificate's verdict, G+ comes from its skeleton, which
    # the same certificate proves; check 9 has no pivot columns for it and eliminates.
    assert verdicts == [False, True]
    assert reports == []
    assert eliminations == ["psd"]


@pytest.mark.parametrize("n", [6, 9, 12])
def test_the_certificate_refuses_a_g_pinv_whose_rows_do_not_sum_to_0(n):
    # X = G+ + uu' derives D+ itself: u'R = s u'D 1 = s m for D = A/s with row sums R, so
    # the numerator w of _edm_pinv_ints moves along u, D stays spherical for X and
    # Z = -X/2 + uu'/(1'u) + uu'/2 = D+.  Only X 1 = (1'u) u, not 0, refuses X.
    d_ints, d_den = scaled(gear_distance_closed(n))
    pinv, den = _pinv_ints(*_gram_ints(d_ints, d_den))
    u = u_vector(n)
    wrong, wrong_den = scaled(unscaled(pinv, den) + np.outer(u, u))
    proof = _OracleProof(d_ints, d_den)
    assert proof(pinv, den)
    oracle_ints, oracle_den = proof.oracle
    assert not proof(wrong, wrong_den)
    assert proof.oracle[1] == oracle_den and (proof.oracle[0] == oracle_ints).all()


def _check_9_routes(dist):
    """(fast verdict, exact verdict) of check 9 on D, from the exact G+ and G's pivot columns."""
    d_ints, d_den = scaled(dist)
    gram = _gram_ints(d_ints, d_den)
    cols = _pivots(gram[0], next(_primes()))[1]
    return _psd_certified(*gram, *_pinv_ints(*gram), cols), _schoenberg_psd(d_ints)


def test_check_9_falls_back_when_the_pivot_block_is_below_the_shift():
    # Three integer points off a line by one unit at 10**5: G is PSD of rank 2, but
    # its pivot block K has lambda_min <= 2 det K / tr K, far below c = 2 (r + 2) u tr K.
    points = [(0, 0), (1, 10**5), (2, 2 * 10**5 + 1)]
    dist = np.array([[(p - r) ** 2 + (q - s) ** 2 for r, s in points] for p, q in points],
                    dtype=object)
    gram, _ = _gram_ints(dist, 1)
    cols = _pivots(gram, next(_primes()))[1]
    block = gram[np.ix_(cols, cols)]
    trace, det = block[0, 0] + block[1, 1], block[0, 0] * block[1, 1] - block[0, 1] ** 2
    assert len(cols) == 2 and det > 0
    assert Fraction(2 * det, trace) < 2 * 4 * Fraction(1, 2**53) * trace
    assert _check_9_routes(dist) == (False, True)


@pytest.mark.parametrize("top", [2**53 - 1, 2**53])
def test_check_9_falls_back_from_entries_past_the_doubles(top):
    ints = np.array([[top, 0], [0, top]], dtype=object)
    pinv = np.array([[1, 0], [0, 1]], dtype=object)
    assert _psd_certified(ints, 1, pinv, top, [0, 1]) == (top < 2**53)
    assert _psd_ints(ints)


def test_check_9_falls_back_when_its_columns_miss_the_rank():
    # diag(1, -1) is not PSD though its block on column 0 is: rank 2 is not |Q| = 1.
    ints = np.diag(np.array([1, -1], dtype=object))
    assert not _psd_certified(ints, 1, ints, 1, [0])
    assert not _psd_certified(ints, 1, ints, 1, [0, 1])
    ints[1, 1] = 0
    assert _psd_certified(ints, 1, ints, 1, [0])


def _mutants(dist):
    """D with the pair (0, m - 1) raised by 1, and with the pair (0, 1) negated."""
    raised, negated = dist.astype(object), dist.astype(object)
    m = len(dist)
    raised[0, m - 1] = raised[m - 1, 0] = dist[0, m - 1] + 1
    negated[0, 1] = negated[1, 0] = -dist[0, 1]
    return raised, negated


def test_check_9_routes_agree_and_non_edm_mutants_reach_the_elimination(
        unit_tree_corpus, weighted_tree_corpus):
    trees = [tree_distance(tree) for tree in unit_tree_corpus + weighted_tree_corpus]
    gears = [gear_distance_closed(n) for n in range(4, 31)]
    rejected = 0
    for dist in trees + gears:
        assert _check_9_routes(dist) == (True, True)
        for mutant in _mutants(dist):
            fast, exact = _check_9_routes(mutant)
            # The fast route proves only what the exact one accepts; a non-EDM falls back.
            assert exact or not fast
            rejected += not exact
    # Every negated mutant, and every raised gear, is not an EDM.
    assert rejected >= len(trees) + 2 * len(gears)
