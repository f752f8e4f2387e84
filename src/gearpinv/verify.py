"""Cross-checks between the closed forms and the exact oracle.

Each check pits an independently computed quantity against the formula
route for one gear size.  Exact checks (integer or rational arithmetic)
pass only on residual zero, and the distance-matrix test (check 9) is an
exact verdict that reports residual 0.0.  Floating-point checks (2, 5, 6
and 7) compare against the caller's tolerance, with two documented
adjustments: sorted-spectrum comparison widens the tolerance tenfold (the
dense eigensolver's values are accurate only to a few ulps of the norm
of D, which grows with n) and row-sum checks tighten it tenfold (sums of
a few dozen doubles deserve better).

The exact oracle takes one residue pseudoinverse, of the centered Gram
matrix G (check 6).  D+ follows from G+ in integers by the Balaji-Bapat
identity, which holds for every spherical distance matrix, so no gear
structure enters it.  One proof object (``_OracleProof``) derives D+ and
proves it by check 8's Penrose conditions for every G+ judged: each
candidate of the residue loop, as its certificate, and the G+ that loop
returned when it is not the last pair judged (for n <= 8 the skeleton's,
which draws no residues).  The proof of D+ and G+ 1 = 0 make one of G+.
A G+ proved in the loop comes with G's pivot columns and gives rank G,
so check 9 proves G PSD from a verified float Cholesky of one pivot block
(``rational._psd_certified``) and runs the exact Schoenberg elimination
only when that proves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edm import _edm_pinv_ints, _gram_ints, _schoenberg_psd
from .eigen import jacobi_eigh, numerical_rank
from .graphs import bfs_distances, build_gear, gear_distance_closed
from .laplacian import special_laplacian
from .pinv import PenroseReport, _penrose_ints, beta, gear_pinv_formula, u_vector
from .rational import _floats, _pinv_ints, _psd_certified, _residuals_vanish, scaled
from .spectral import _eigenvalues, max_eigen_residual, null_basis


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float


def _sup(matrix) -> float:
    return float(np.max(np.abs(matrix)))


class _OracleProof:
    """The one derivation and proof of D+ in ``verify``, and ``_pinv_ints``'s certificate for G+.

    Each call judges a candidate X for G+ and records it, the Z that
    ``_edm_pinv_ints`` derives from it (None when D is not spherical for
    X), G's pivot columns ``cols`` and the verdict.  X is accepted when
    X 1 = 0 and Z meets the four Penrose conditions with D exactly, proved
    from residues (``_residuals_vanish``): a refused candidate's residuals
    are never formed in full.  Then Z = D+, which is symmetric, so X is
    too, and X 1 = 0 gives 1'X = 0.  That makes 1'w = w_den for the
    numerator w of ``_edm_pinv_ints``, so Z 1 = s w / k = u and
    Z = -X/2 + uu'/(1'u) with 1'u > 0.  For every symmetric D with 1 in
    its range and 1'D+ 1 nonzero, -2 (D+ - uu'/(1'u)) is (-1/2 PDP)+: so
    X = G+ (Balaji and Bapat's identity read backwards).  X 1 = 0 is
    needed: X = G+ + uu' derives D+ as well.
    """

    def __init__(self, d_ints, d_den: int):
        self.d_ints, self.d_den, self.pair = d_ints, d_den, None

    def __call__(self, pinv, den: int, cols=None) -> bool:
        self.pair, self.oracle, self.cols, self.proved = (pinv, den), None, cols, False
        try:
            self.oracle = _edm_pinv_ints(self.d_ints, self.d_den, pinv, den)
        except ValueError:
            return False
        self.proved = not pinv.sum(axis=1).any() and _residuals_vanish(
            self.d_ints, self.oracle[0], self.d_den * self.oracle[1])
        return self.proved

    def judged(self, pinv, den: int) -> bool:
        """Whether (pinv, den) is the last pair judged."""
        return self.pair is not None and den == self.pair[1] and (pinv == self.pair[0]).all()


def run_checks(n: int, tol: float = 1e-9) -> list[CheckResult]:
    """Run the full check suite for one gear size; D, D+, G and G+ pass as ``(ints, den)``."""
    results: list[CheckResult] = []
    dist = gear_distance_closed(n)
    d_ints, d_den = scaled(dist)
    lap = special_laplacian(n)

    # 1. Two independent distance constructions agree exactly.
    residual = _sup(bfs_distances(build_gear(n)) - dist)
    results.append(CheckResult("distance-equality", residual == 0.0, residual))

    # 2. Closed-form spectrum against the dense eigensolver.
    analytic = np.concatenate([_eigenvalues(n), np.zeros(n - 1)])
    dense_values, _ = jacobi_eigh(dist.astype(float))
    spectrum_gap = _sup(np.sort(analytic) - dense_values)
    pair_residual = max_eigen_residual(n)
    passed = spectrum_gap <= 10 * tol and pair_residual <= tol
    results.append(CheckResult("spectrum", passed, max(spectrum_gap, pair_residual)))

    # 3. Integer null vectors are killed exactly.
    nulls = np.array(null_basis(n))
    residual = _sup(dist @ nulls.T)
    results.append(CheckResult("null-space", residual == 0.0, float(residual)))

    # 4. The u vector solves D u = 1 inside the row space, with mass 2/(n-1).
    u, t = scaled(np.append(u_vector(n), -beta(n)))  # u, then -beta, as integers over one t
    residuals = [*d_ints.dot(u[:-1]) - d_den * t, *d_den * nulls.dot(u[:-1]), d_den * sum(u)]
    worst = max(map(abs, residuals))
    results.append(CheckResult("beta", worst == 0, worst / (d_den * t)))

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
    proof = _OracleProof(d_ints, d_den)
    gram = _gram_ints(d_ints, d_den)
    gram_pinv = _pinv_ints(*gram, proof)
    residual = _sup(lap - _floats(*gram_pinv))
    results.append(CheckResult("laplacian-identity", residual <= tol, residual))

    # The exact D+ from G+ in integers, the oracle of checks 7 and 8, as derived and
    # proved by the certificate: the G+ that _pinv_ints returned is handed to it once
    # more, with no pivot columns, unless it was the last pair judged.  A D that is not
    # spherical for that G+ leaves no D+ to judge: checks 7 to 9 fail.
    if not proof.judged(*gram_pinv):
        proof(*gram_pinv)
    oracle = proof.oracle
    if oracle is None:
        names = ("formula-vs-oracle", "penrose", "edm")
        return results + [CheckResult(name, False, math.inf) for name in names]

    # 7. Formula route against the exact oracle.
    residual = _sup(gear_pinv_formula(n) - _floats(*oracle))
    results.append(CheckResult("formula-vs-oracle", residual <= tol, residual))

    # 8. The oracle satisfies all four Penrose conditions exactly, which D+
    # alone does: the one certificate of D+, and through _OracleProof of G+.
    # Only a refused pair has its residuals computed, to report them.
    if proof.proved:
        report = PenroseReport(True, 0.0, 0.0, 0.0, 0.0)
    else:
        report = _penrose_ints(d_ints, d_den, *oracle)
    results.append(CheckResult("penrose", report.all_exact, report.max_residual))

    # 9. D is an EDM (Schoenberg) exactly when G is PSD: proved from the proved
    # G+ and its pivot columns when the residue loop proved it, else by exact
    # elimination of Schoenberg's matrix.
    edm = proof.cols is not None and proof.proved and _psd_certified(*gram, *gram_pinv, proof.cols)
    results.append(CheckResult("edm", edm or _schoenberg_psd(d_ints), 0.0))

    return results
