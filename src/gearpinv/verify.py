"""Cross-checks between the closed forms and the exact oracle.

Each check pits an independently computed quantity against the formula
route for one gear size.  Exact checks (integer or rational arithmetic)
pass only on residual zero; floating-point checks compare against the
caller's tolerance, with two documented adjustments: sorted-spectrum
comparison widens the tolerance tenfold (the dense eigensolver's values
are accurate only to a few ulps of the norm of D, which grows with n)
and row-sum checks tighten it tenfold (sums of a few dozen doubles
deserve better).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .edm import balaji_bapat_pinv, gram_from_edm
from .eigen import jacobi_eigh, numerical_rank
from .graphs import bfs_distances, build_gear, gear_distance_closed
from .laplacian import special_laplacian
from .pinv import beta, gear_pinv_formula, penrose_check, rational_pinv, u_vector
from .rational import is_psd
from .spectral import lambda_pairs, max_eigen_residual, null_basis, theta


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float


def _sup(matrix) -> float:
    return float(np.max(np.abs(matrix)))


def run_checks(n: int, tol: float = 1e-9) -> list[CheckResult]:
    """Run the full check suite for one gear size."""
    results: list[CheckResult] = []
    dist = gear_distance_closed(n)
    dist_rational = dist.astype(object)
    oracle = rational_pinv(dist_rational)
    oracle_float = oracle.astype(float)
    lap = special_laplacian(n)

    # 1. Two independent distance constructions agree exactly.
    residual = _sup(bfs_distances(build_gear(n)) - dist)
    results.append(CheckResult("distance-equality", residual == 0.0, residual))

    # 2. Closed-form spectrum against the dense eigensolver.
    analytic = [value for value, _ in lambda_pairs(n)]
    analytic += [theta(n, k) for k in range(1, n - 1)]
    analytic += [0.0] * (n - 1)
    dense_values, _ = jacobi_eigh(dist.astype(float))
    spectrum_gap = _sup(np.sort(np.asarray(analytic)) - dense_values)
    pair_residual = max_eigen_residual(n)
    passed = spectrum_gap <= 10 * tol and pair_residual <= tol
    results.append(CheckResult("spectrum", passed, max(spectrum_gap, pair_residual)))

    # 3. Integer null vectors are killed exactly.
    residual = max(_sup(dist @ vec) for vec in null_basis(n))
    results.append(CheckResult("null-space", residual == 0.0, float(residual)))

    # 4. The u vector solves D u = 1 inside the row space, with mass 2/(n-1).
    u = u_vector(n)
    ones = np.full(2 * n - 1, Fraction(1), dtype=object)
    worst = max(abs(x) for x in (dist_rational @ u - ones))
    for vec in null_basis(n):
        worst = max(worst, abs(vec.astype(object) @ u))
    worst = max(worst, abs((ones @ u) - beta(n)))
    results.append(CheckResult("beta", worst == 0, float(worst)))

    # 5. Assembled matrix is PSD with zero row sums and rank n-1.
    row_sum = _sup(lap @ np.ones(2 * n - 1))
    lap_values, _ = jacobi_eigh(lap)
    negativity = max(0.0, -float(lap_values[0]))
    rank_ok = numerical_rank(lap_values) == n - 1
    passed = row_sum <= tol / 10 and negativity <= tol and rank_ok
    results.append(
        CheckResult("laplacian-properties", passed, max(row_sum, negativity))
    )

    # 6. Assembled matrix equals the exact pseudoinverse of -1/2 P D P.
    gram = gram_from_edm(dist_rational)
    residual = _sup(lap - rational_pinv(gram).astype(float))
    results.append(CheckResult("laplacian-identity", residual <= tol, residual))

    # 7. Formula route against the exact oracle.
    residual = _sup(gear_pinv_formula(n) - oracle_float)
    results.append(CheckResult("formula-vs-oracle", residual <= tol, residual))

    # 8. The oracle satisfies all four Penrose conditions exactly.
    report = penrose_check(dist_rational, oracle)
    results.append(CheckResult("penrose", report.all_exact, report.max_residual))

    # 9. The Gram matrix of check 6 is PSD and the Gram route reproduces the oracle.
    residual = _sup(balaji_bapat_pinv(dist_rational) - oracle_float)
    results.append(CheckResult("edm", is_psd(gram) and residual <= tol, residual))

    return results
