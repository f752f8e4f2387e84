"""Time gearpinv's exact stages at fixed sizes and write BENCH_<LABEL>.json.

Usage, from anywhere:

    python3 tools/bench_stages.py LABEL [N ...]

The script times the gearpinv source of the checkout it sits in
(``src/`` beside ``tools/``), builds its oracle ops with that checkout's
``perfbench/`` and writes ``BENCH_<LABEL>.json`` at its root.  N are gear
sizes, 40 and 60 by default; CI runs ``ci 40 60 100`` (about 20 s on
2 cores).  For each N, with D the gear distance
matrix (order 2N - 1) and G its Gram matrix, it takes the best of three
in-process runs of rational_pinv(D), gram_from_edm(D), rational_pinv(G),
is_psd(G), is_edm(D), penrose_check(D, D+), balaji_bapat_pinv(D) (the
exact D+ from G+, rounded, of ``pinv --method k4``), the whole check
suite run_checks(N), and rational_pinv(T) for the distance matrix T of a
seeded rational-weight tree of the same order, built by the benchmark's
own tree op.  Once, it times rational_pinv(H) for the Hilbert matrix H
of order 30, whose inverse needs many primes.  At N = 300 and 1000 it
times max_eigen_residual(N), the float check of the closed-form
spectrum, and ``cli pinv --n N``: the whole ``gearpinv pinv --n N``
(formula, decimal JSON) through ``cli.main`` into a stream that counts
the characters written and keeps none.  With fifteen runs each
(``ORACLE_REPEATS``), since one takes only 5 to 16 ms, it times
the ``run`` of three of the benchmark's own ``oracle`` ops, built by
``perfbench/workloads.py`` at that workload's largest sizes: a
rational-weight tree on 40 vertices, the EDM of 40 integer points within
+-1000 in 3 dimensions and a rank-10 40x30 product.

Each stage runs only in its timed runs; only T is also built, by
the tree op's run, outside them.  Later stages and the checks take the
last run's result, and the primes each run draws from
``rational._primes`` are counted as it runs.  Every result is checked
exactly after timing: the benchmark's gate (``perfbench/gate.py``,
plain-integer references that call no gearpinv code) judges the oracle
ops, rational_pinv(T) and rational_pinv(H); balaji_bapat_pinv(D) must
equal D+ rounded; at each N, is_edm and is_psd of the Gram matrix must
both reject D with one symmetric pair of entries raised by 1.  The
script exits 1 if one is wrong, if the runs of a stage draw different
numbers of primes, if a check of run_checks(N) fails or a
max_eigen_residual(N) exceeds 1e-9, if ``cli pinv --n N`` writes a
text whose size is not that of its document around
``serialize_matrix(gear_pinv_formula(N), "decimal")``, if a record is
missing, or if a rational_pinv(D), rational_pinv(G) or
penrose_check(D, D+) record counts no prime.  Each record carries the best and the median of its runs'
times beside all of them, the input's order and rank, the largest
numerator and denominator bit lengths over the input and the result
and, for a stage that draws primes, how many one run draws, certificates
included.  The file also records the commit of the checkout, whether its
``src/`` differs from that commit, nproc, and the Python and numpy
versions.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import gearpinv.rational  # noqa: E402
from gearpinv import __version__, cli  # noqa: E402
from gearpinv.edm import balaji_bapat_pinv, gram_from_edm, is_edm  # noqa: E402
from gearpinv.graphs import gear_distance_closed  # noqa: E402
from gearpinv.pinv import (  # noqa: E402
    beta, gear_pinv_formula, penrose_check, rational_pinv, u_vector,
)
from gearpinv.rational import is_psd, rational  # noqa: E402
from gearpinv.spectral import max_eigen_residual  # noqa: E402
from gearpinv.verify import run_checks  # noqa: E402

import gate  # noqa: E402
from workloads import _edm_op, _product_op, _tree_op  # noqa: E402

DEFAULT_SIZES = (40, 60)
GEAR_STAGES = ("gram_from_edm(D)", "rational_pinv(D)", "rational_pinv(G)", "is_psd(G)",
               "is_edm(D)", "penrose_check(D, D+)", "balaji_bapat_pinv(D)", "run_checks(N)")
ORACLE_OPS = ("oracle tree op", "oracle edm op", "oracle product op")
REPEATS = 3
ORACLE_REPEATS = 15
OP_SIZE = 40
HILBERT_ORDER = 30
RESIDUAL_SIZES = (300, 1000)


def _bits(*values) -> tuple[int, int]:
    """Largest numerator and denominator bit lengths over the matrices given."""
    num = den = 0
    for value in values:
        if isinstance(value, np.ndarray):
            for x in map(rational, value.flat):
                num = max(num, x.numerator.bit_length())
                den = max(den, x.denominator.bit_length())
    return num, den


def _rank(matrix, pinv) -> int:
    """rank M = trace(M M+), exact for an exact pseudoinverse."""
    return int(sum(rational(x) * y for x, y in zip(matrix.flat, pinv.T.flat)))


class Bench:
    def __init__(self):
        self.records: list[dict] = []
        self.wrong: list[str] = []

    def time(self, name: str, func, *args, size, order: int, repeats: int = REPEATS):
        """Run func(*args) ``repeats`` times, the stage's only runs, and return the last result.

        The record it appends counts the primes one run draws from
        ``rational._primes``, when there are any; the runs are
        deterministic, so they must all draw the same number.  ``describe``
        adds the rank and bit lengths, read from the result.
        """
        times, drawn, primes = [], [], gearpinv.rational._primes

        def counting():
            for p in primes():
                drawn[-1] += 1
                yield p

        gearpinv.rational._primes = counting
        try:
            for _ in range(repeats):
                drawn.append(0)
                start = time.perf_counter()
                result = func(*args)
                times.append(time.perf_counter() - start)
        finally:
            gearpinv.rational._primes = primes
        self.records.append({"name": name, "size": size, "order": order, "best_s": min(times),
                             "median_s": statistics.median(times), "times_s": times,
                             **({"primes": drawn[0]} if drawn[0] else {})})
        self.check(f"{name} at size {size}: its runs drew {drawn} primes", len(set(drawn)) == 1)
        return result

    def describe(self, rank: int, *matrices) -> None:
        """Give the last record its input's rank and the largest bit lengths over the matrices."""
        num, den = _bits(*matrices)
        self.records[-1].update(rank=rank, max_num_bits=num, max_den_bits=den)

    def check(self, name: str, ok: bool) -> None:
        if not ok:
            self.wrong.append(name)
            print(f"wrong result: {name}", file=sys.stderr)


def gear_stages(bench: Bench, n: int) -> None:
    dist = gear_distance_closed(n)
    label = f"gear n={n}"

    stage = functools.partial(bench.time, size=n, order=2 * n - 1)
    dist_pinv = stage("rational_pinv(D)", rational_pinv, dist)
    rank_d = _rank(dist, dist_pinv)
    bench.describe(rank_d, dist, dist_pinv)
    gram = stage("gram_from_edm(D)", gram_from_edm, dist)
    bench.describe(rank_d, dist, gram)
    gram_pinv = stage("rational_pinv(G)", rational_pinv, gram)
    rank_g = _rank(gram, gram_pinv)
    bench.describe(rank_g, gram, gram_pinv)
    psd = stage("is_psd(G)", is_psd, gram)
    bench.describe(rank_g, gram)
    report = stage("is_edm(D)", is_edm, dist)
    bench.describe(rank_d, dist)
    penrose = stage("penrose_check(D, D+)", penrose_check, dist, dist_pinv)
    bench.describe(rank_d, dist, dist_pinv)
    route = stage("balaji_bapat_pinv(D)", balaji_bapat_pinv, dist)
    bench.describe(rank_d, dist)
    checks = stage("run_checks(N)", run_checks, n)
    bench.describe(rank_d, dist, dist_pinv)

    # The paper's identity D+ = -G+/2 + ((n-1)/2) u u' ties the two pseudoinverses together.
    u = u_vector(n)
    bench.check(f"{label}: D+ = -G+/2 + ((n-1)/2) u u'",
                (dist_pinv == -gram_pinv / 2 + Fraction(n - 1, 2) * np.outer(u, u)).all())
    bench.check(f"{label}: penrose_check(D, D+) all exact", penrose.all_exact)
    bench.check(f"{label}: balaji_bapat_pinv(D) is D+ rounded",
                (route == dist_pinv.astype(float)).all())
    bench.check(f"{label}: every check of run_checks({n}) passed",
                all(result.passed for result in checks))
    bench.check(f"{label}: ranks n and n - 1", (rank_d, rank_g) == (n, n - 1))
    bench.check(f"{label}: G has zero row sums", not gram.sum(axis=1).any())
    bench.check(f"{label}: is_psd(G)", psd is True)
    bench.check(f"{label}: is_edm(D) with beta = 2/(n-1)",
                report.is_edm and report.beta == float(beta(n)) and report.order == 2 * n - 1)
    off = dist.astype(object)
    off[1, 2 * n - 2] = off[2 * n - 2, 1] = off[1, 2 * n - 2] + 1
    bench.check(f"{label}: is_edm rejects D with one entry pair +1, as is_psd of its G does",
                not is_edm(off).is_edm and not is_psd(gram_from_edm(off)))

    # The tree op's own run builds T, so rational_pinv(T) runs once more than it is timed.
    tree = _tree_op(random.Random(f"bench_stages/tree/{n}"), 2 * n - 1)
    tree_dist, _, tree_inverse, tree_det = tree.run()
    tree_pinv = stage("rational_pinv(T)", rational_pinv, tree_dist)
    bench.describe(2 * n - 1, tree_dist, tree_pinv)
    bench.check(f"{label}: rational_pinv(T) passes the gate's tree op check",
                tree.check((tree_dist, tree_pinv, tree_inverse, tree_det)) == gate.OK)


def hilbert_stage(bench: Bench) -> None:
    order = HILBERT_ORDER
    hilbert = np.array([[Fraction(1, i + j + 1) for j in range(order)] for i in range(order)],
                       dtype=object)
    pinv = bench.time("rational_pinv(H)", rational_pinv, hilbert, size=order, order=order)
    bench.describe(_rank(hilbert, pinv), hilbert, pinv)
    # gate.is_exact_inverse would scale np.eye (int64) by H's and H+'s denominators, past int64.
    bench.check(f"hilbert order {order}: rational_pinv(H) passes the gate's Penrose check",
                gate.penrose_exact(hilbert, pinv))


def residual_stage(bench: Bench) -> None:
    for n in RESIDUAL_SIZES:
        residual = bench.time("max_eigen_residual(N)", max_eigen_residual, n, size=n,
                              order=2 * n - 1)
        bench.describe(n)
        bench.records[-1]["residual"] = residual
        bench.check(f"gear n={n}: max_eigen_residual(N) = {residual:.3g} is at most 1e-9",
                    residual <= 1e-9)


class _Counter:
    """A stdout that counts the characters written to it and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def _cli_pinv(n: int) -> int:
    out = _Counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["pinv", "--n", str(n)])
    return out.chars if code == 0 else -1


def cli_stage(bench: Bench) -> None:
    for n in RESIDUAL_SIZES:
        chars = bench.time("cli pinv --n N", _cli_pinv, n, size=n, order=2 * n - 1)
        bench.describe(n)
        bench.records[-1]["chars"] = chars
        # The document's frame with a null payload, in the CLI's compact separators,
        # plus the payload's text in place of the null and the closing newline.
        frame = json.dumps({"kind": "matrix", "n": n, "format": "decimal", "payload": None,
                            "metadata": {"version": __version__,
                                         "parity": "even" if n % 2 == 0 else "odd",
                                         "tolerance": None},
                            "checks": []})
        payload = cli.serialize_matrix(gear_pinv_formula(n), "decimal")
        want = len(frame) - len("null") + len(payload) + 1
        bench.check(f"cli pinv --n {n} wrote {chars} characters, not {want}", chars == want)


def oracle_ops(bench: Bench, rng: random.Random) -> None:
    m = OP_SIZE
    tree, edm, product = _tree_op(rng, m), _edm_op(rng, m, 1000, 3), _product_op(rng, m, 30, 10)
    dist, pinv = _op_record(bench, "oracle tree op", tree, size=m)[:2]
    bench.describe(m, dist, pinv)
    pinv = _op_record(bench, "oracle edm op", edm, size=m)[1]
    bench.describe(_rank(edm.inputs, pinv), edm.inputs, pinv)
    pinv = _op_record(bench, "oracle product op", product, size=f"{m}x30")
    bench.describe(_rank(product.inputs, pinv), product.inputs, pinv)


def _op_record(bench: Bench, name: str, op, size):
    """Time op.run, record the benchmark gate's verdict on the last result and return it."""
    result = bench.time(name, op.run, size=size, order=OP_SIZE, repeats=ORACLE_REPEATS)
    bench.check(name, op.check(result) == gate.OK)
    return result


def check_records(bench: Bench, sizes) -> None:
    """Every gear stage at every size, the other records, and primes in D, G and D+."""
    have = {(record["name"], record["size"]) for record in bench.records}
    for n in sizes:
        for name in GEAR_STAGES:
            bench.check(f"missing record {name} at n = {n}", (name, n) in have)
    for name in ("rational_pinv(T)", "rational_pinv(H)") + ORACLE_OPS:
        bench.check(f"missing record {name}", any(record[0] == name for record in have))
    for n in RESIDUAL_SIZES:
        for name in ("max_eigen_residual(N)", "cli pinv --n N"):
            bench.check(f"missing record {name} at N = {n}", (name, n) in have)
    for name in ("rational_pinv(D)", "rational_pinv(G)", "penrose_check(D, D+)"):
        bench.check(f"a {name} record counts no prime",
                    all(record.get("primes", 0) >= 1 for record in bench.records
                        if record["name"] == name))


def _git(*args) -> str:
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def main(argv: list[str]) -> int:
    if not argv or not re.fullmatch(r"[\w.-]+", argv[0]) or not all(a.isdigit() for a in argv[1:]):
        print("usage: bench_stages.py LABEL [N ...]  (LABEL of letters, digits, '.', '-', '_')",
              file=sys.stderr)
        return 2
    label, sizes = argv[0], [int(a) for a in argv[1:]] or list(DEFAULT_SIZES)
    if min(sizes) < 4:
        print("error: gear sizes start at 4", file=sys.stderr)
        return 2
    bench = Bench()
    for n in sizes:
        gear_stages(bench, n)
        print(f"n = {n} done", file=sys.stderr)
    hilbert_stage(bench)
    residual_stage(bench)
    cli_stage(bench)
    oracle_ops(bench, random.Random(f"bench_stages/{OP_SIZE}"))
    check_records(bench, sizes)
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps({
        "label": label,
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": REPEATS,
        "oracle_repeats": ORACLE_REPEATS,
        "correct": not bench.wrong,
        "wrong": bench.wrong,
        "records": bench.records,
    }, indent=1) + "\n")
    for record in bench.records:
        print(f"{record['name']:22s} {str(record['size']):6s} order {record['order']!s:4s} "
              f"rank {record['rank']!s:4s} best {record['best_s']:.4f} s  "
              f"median {record['median_s']:.4f} s  "
              f"bits {record['max_num_bits']}/{record['max_den_bits']}"
              + (f"  primes {record['primes']}" if "primes" in record else ""))
    print(f"wrote {out}")
    return 1 if bench.wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
