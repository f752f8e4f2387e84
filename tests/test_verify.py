"""The exact checks of run_checks against the same checks built from the public routes."""

import math
from fractions import Fraction

import numpy as np
import pytest

import gearpinv.edm
import gearpinv.pinv
import gearpinv.verify
from gearpinv.edm import _edm_pinv_ints, balaji_bapat_pinv, gram_from_edm
from gearpinv.graphs import gear_distance_closed
from gearpinv.laplacian import special_laplacian
from gearpinv.pinv import _pinv_ints, beta, gear_pinv_formula, penrose_check, rational_pinv, u_vector
from gearpinv.rational import _residuals_vanish, is_psd
from gearpinv.spectral import null_basis
from gearpinv.verify import CheckResult, run_checks


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


def test_check_8_proves_the_penrose_conditions_itself(monkeypatch):
    # D+ is derived from G+ with no certificate of its own: check 8 proves it from D and D+.
    calls = []

    def recording(a_ints, b_ints, ab):
        calls.append(a_ints)
        return _residuals_vanish(a_ints, b_ints, ab)

    monkeypatch.setattr(gearpinv.pinv, "_residuals_vanish", recording)
    run_checks(9)
    assert len(calls) == 1 and (calls[0] == gear_distance_closed(9)).all()


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
    def corrupted(ints, den):
        pinv, pinv_den = _pinv_ints(ints, den)
        pinv = pinv.copy()
        pinv[1, 2] += pinv_den  # off by 1
        return pinv, pinv_den

    monkeypatch.setattr(gearpinv.verify, "_pinv_ints", corrupted)
    assert {"laplacian-identity", "penrose"} <= _failed(run_checks(n))


@pytest.mark.parametrize("n", [7, 12, 20])
def test_check_8_alone_rejects_a_g_pinv_wrong_below_the_tolerance(n, monkeypatch):
    # G+ + E/den with E = vv', v = e1 - e2: rim vertices 1 and 2 have equal row sums R in D,
    # so E R = 0 leaves w and the sphericity guard unchanged, and D+ moves by -E/(2 den).
    def corrupted(ints, den):
        pinv, pinv_den = _pinv_ints(ints, den)
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
