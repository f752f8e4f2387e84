"""Correctness gate for benchmark outputs.

Every check here is computed from the benchmark's own inputs with plain
Python integers or numpy, never by calling the gearpinv function whose
output is being judged.  Exact outputs are judged exactly: rational
matrices are scaled to a common integer denominator and compared with
integer arithmetic, so no float tolerance decides an exact verdict.
Float outputs are compared with numpy references under a relative
tolerance, in a child process (``FloatChecker``) so that the gate's
memory does not count in the measured process's peak RSS.  The exact
checks are small next to the programs they judge and run in-process.
"""

from __future__ import annotations

import json
import subprocess
import sys
import traceback
from collections import deque
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import numpy as np

OK = "ok"
REJECTED = "rejected"  # the program raised, exited non-zero or refused the input
WRONG = "wrong"  # the program returned a value the gate disproves

FLOAT_RTOL = 1e-9


def as_integer(matrix) -> tuple[np.ndarray, int]:
    """Split an exact matrix into an integer object array and one denominator."""
    mat = np.asarray(matrix, dtype=object)
    entries = [Fraction(x) for x in mat.flat]
    den = lcm(*(e.denominator for e in entries)) if entries else 1
    ints = [e.numerator * (den // e.denominator) for e in entries]
    return np.array(ints, dtype=object).reshape(mat.shape), den


def penrose_exact(matrix, candidate) -> bool:
    """True iff ``candidate`` is the Moore-Penrose inverse of ``matrix``.

    With M = Mi/dm and X = Xi/dx the four conditions become integer
    identities: Mi Xi Mi = dm dx Mi, Xi Mi Xi = dm dx Xi, and symmetry
    of Mi Xi and Xi Mi.
    """
    mi, dm = as_integer(matrix)
    xi, dx = as_integer(candidate)
    if xi.shape != mi.T.shape:
        return False
    mx = mi.dot(xi)
    xm = xi.dot(mi)
    scale = dm * dx
    return bool(
        (mx == mx.T).all()
        and (xm == xm.T).all()
        and (mx.dot(mi) == scale * mi).all()
        and (xm.dot(xi) == scale * xi).all()
    )


def is_exact_inverse(matrix, candidate) -> bool:
    """True iff ``matrix @ candidate`` is exactly the identity."""
    mi, dm = as_integer(matrix)
    xi, dx = as_integer(candidate)
    if mi.shape[0] != mi.shape[1] or xi.shape != mi.shape:
        return False
    return bool((mi.dot(xi) == dm * dx * np.eye(mi.shape[0], dtype=int)).all())


def tree_distances(num_vertices: int, edges) -> np.ndarray:
    """Path-weight matrix of a weighted tree by breadth-first search."""
    nbrs: list[list[tuple[int, Fraction]]] = [[] for _ in range(num_vertices + 1)]
    for a, b, w in edges:
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    out = np.empty((num_vertices, num_vertices), dtype=object)
    for source in range(1, num_vertices + 1):
        dist = {source: Fraction(0)}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w, weight in nbrs[v]:
                if w not in dist:
                    dist[w] = dist[v] + weight
                    queue.append(w)
        out[source - 1, :] = [dist[v] for v in range(1, num_vertices + 1)]
    return out


def tree_determinant(weights) -> Fraction:
    """Weighted Graham-Pollak value ``(-1)^(m-1) 2^(m-2) (sum w) (prod w)``."""
    m = len(weights) + 1
    return (-1) ** (m - 1) * Fraction(2) ** (m - 2) * sum(weights) * prod(weights)


def gear_distances(n: int) -> np.ndarray:
    """Gear graph distance matrix from vertex classes, in float.

    Vertex 0 is the hub, ``1 + i`` the rim vertices and ``n + i`` the
    vertex subdividing rim edge ``(i, i + 1 mod n-1)``.  Rim vertices
    sit at distance 2 from each other through the hub; a subdivision
    vertex is 1 from its two rim ends and 3 from every other rim vertex;
    two subdivision vertices are 2 apart when their edges share a rim
    vertex and 4 apart otherwise.
    """
    size = n - 1
    idx = np.arange(size)
    rim = np.full((size, size), 2.0)
    np.fill_diagonal(rim, 0.0)
    # Subdivision j touches rim vertices j and j + 1.
    touches = (idx[:, None] == idx[None, :]) | (idx[:, None] == (idx[None, :] + 1) % size)
    rim_sub = np.where(touches, 1.0, 3.0)
    gap = (idx[:, None] - idx[None, :]) % size
    sub = np.where(gap == 0, 0.0, np.where((gap == 1) | (gap == size - 1), 2.0, 4.0))
    out = np.zeros((2 * n - 1, 2 * n - 1))
    out[0, 1:n] = out[1:n, 0] = 1.0
    out[0, n:] = out[n:, 0] = 2.0
    out[1:n, 1:n] = rim
    out[1:n, n:] = rim_sub
    out[n:, 1:n] = rim_sub.T
    out[n:, n:] = sub
    return out


def close(actual, reference, rtol: float = FLOAT_RTOL) -> bool:
    actual = np.asarray(actual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if actual.shape != reference.shape or not np.isfinite(actual).all():
        return False
    return bool(np.max(np.abs(actual - reference)) <= rtol * np.max(np.abs(reference)))


class GearReference:
    """numpy pseudoinverse and spectrum of gear distance matrices, cached by n."""

    def __init__(self):
        self._pinv: dict[int, np.ndarray] = {}
        self._eig: dict[int, np.ndarray] = {}

    def pinv(self, n: int) -> np.ndarray:
        if n not in self._pinv:
            # Nonzero eigenvalues have magnitude at least 2; the null ones
            # come out near 1e-12, so a 1e-8 relative cut separates them.
            self._pinv[n] = np.linalg.pinv(gear_distances(n), rtol=1e-8, hermitian=True)
        return self._pinv[n]

    def spectrum(self, n: int) -> np.ndarray:
        if n not in self._eig:
            self._eig[n] = np.linalg.eigvalsh(gear_distances(n))
        return self._eig[n]


def check_pinv_document(doc, n: int, reference: GearReference) -> str:
    if doc["kind"] != "matrix" or doc["n"] != n or doc["format"] != "decimal":
        return WRONG
    return OK if close(doc["payload"], reference.pinv(n)) else WRONG


def check_spectrum_document(doc, n: int, reference: GearReference) -> str:
    payload = doc["payload"]
    if doc["kind"] != "spectrum" or doc["n"] != n or payload["null_multiplicity"] != n - 1:
        return WRONG
    values = payload["lambda"] + payload["theta"] + [0.0] * payload["null_multiplicity"]
    if len(values) != 2 * n - 1:
        return WRONG
    return OK if close(np.sort(values), reference.spectrum(n)) else WRONG


def check_float_result(kind: str, n: int, code: int, text: str, reference: GearReference) -> str:
    """Judge ``gearpinv pinv|spectrum --n n``; any non-zero exit is a refusal."""
    if code != 0:
        return REJECTED
    check = check_pinv_document if kind == "pinv" else check_spectrum_document
    return check(json.loads(text), n, reference)


def check_verify_result(code: int, text: str, n: int) -> str:
    """Judge ``gearpinv verify --n n``.

    Exit 0 with every check passed is right.  Exit 1 still prints the
    report, and a report with a failed check is a wrong result.  Any
    other exit code is a refusal.
    """
    if code not in (0, 1):
        return REJECTED
    doc = json.loads(text)
    payload = doc["payload"]
    if doc["kind"] != "verify-report" or doc["n"] != n:
        return WRONG
    passed = [check["pass"] for check in doc["checks"]]
    consistent = (payload["checks_total"] == len(passed) and payload["checks_passed"] == sum(passed)
                  and code == (0 if all(passed) else 1))
    return OK if consistent and all(passed) else WRONG


def serve(stdin, stdout) -> None:
    """Judge float results sent by ``FloatChecker`` until ``stdin`` ends.

    Each request is a line ``<kind> <n> <code> <characters>`` followed
    by that many characters of output; each answer is a verdict line.
    """
    reference = GearReference()
    for header in iter(stdin.readline, ""):
        kind, n, code, size = header.split()
        text = stdin.read(int(size))
        try:
            verdict = check_float_result(kind, int(n), int(code), text, reference)
        except Exception:  # output too malformed to check is wrong
            traceback.print_exc(file=sys.stderr)
            verdict = WRONG
        del text
        stdout.write(verdict + "\n")
        stdout.flush()


class FloatChecker:
    """The float gate, run in a child process.

    Parsing a document of up to ~10 MB into Python floats and holding
    numpy references would otherwise raise the measured process's peak
    RSS.  The output is streamed to the child in slices, so the measured
    process holds nothing beyond the output itself and one slice.
    """

    SLICE = 1 << 20

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, encoding="utf-8")

    def __call__(self, kind: str, n: int, code: int, parts: list[str]) -> str:
        stdin = self.proc.stdin
        stdin.write(f"{kind} {n} {code} {sum(len(part) for part in parts)}\n")
        for part in parts:
            for start in range(0, len(part), self.SLICE):
                stdin.write(part[start:start + self.SLICE])
        stdin.flush()
        verdict = self.proc.stdout.readline().strip()
        if verdict not in (OK, WRONG, REJECTED):
            raise RuntimeError(f"the float checker stopped (exit code {self.proc.poll()})")
        return verdict

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
