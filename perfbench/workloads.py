"""Seeded workloads: the ops each benchmark pass runs and how each is checked.

A workload hands out passes.  A pass is a fixed multiset of op sizes in
a seeded order, so every run of a workload sees the same size mix,
whatever its seed and however many passes fit in its time; the seed
picks the order and, for ``oracle``, the random matrices themselves.
That keeps medians comparable across seeds and across commits.

Each op's ``run`` calls gearpinv through module attributes looked up at
call time, so the span recorder's wrappers see it.  Inputs are built
before ``run`` and checked after it, both outside the timed region.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import gearpinv.cli
import gearpinv.edm
import gearpinv.pinv
import gearpinv.trees

import gate


@dataclass
class Op:
    kind: str
    size: str
    inputs: Any  # what the program receives: argv or the input matrix or tree edges
    run: Callable[[], Any]
    check: Callable[[Any], str]


class _Sink:
    """Stands in for stdout and keeps the strings written to it, uncopied."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def _cli(argv: list[str]) -> Callable[[], tuple[int, list[str]]]:
    def run():
        out = _Sink()
        with contextlib.redirect_stdout(out):
            code = gearpinv.cli.main(argv)
        return code, out.parts

    return run


class Workload:
    name = ""
    # Tail percentile reported for this workload.  A run measures at
    # least 10 / (1 - tail_q) ops so that 10 samples lie beyond it.
    tail_q = Fraction(1, 2)

    def __init__(self, seed: int):
        self.seed = seed

    def make_pass(self, pass_index: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/{pass_index}")
        ops = self.ops(rng)
        rng.shuffle(ops)
        return ops

    def ops(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """Small ops run untimed first, so lazy imports and caches are warm."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop any process the workload started."""


class Verify(Workload):
    """``gearpinv verify --n N`` in-process, N = 6..16 once per pass."""

    name = "verify"
    tail_q = Fraction(2, 3)
    sizes = range(6, 17)

    def _op(self, n: int) -> Op:
        argv = ["verify", "--n", str(n)]
        return Op("verify", str(n), argv, _cli(argv),
                  lambda result: gate.check_verify_result(result[0], "".join(result[1]), n))

    def ops(self, rng):
        return [self._op(n) for n in self.sizes]

    def warmup(self):
        return [self._op(6)]


class Float(Workload):
    """``pinv`` (formula, decimal JSON) and ``spectrum`` at each N per pass."""

    name = "float"
    tail_q = Fraction(1, 2)
    sizes = (150, 175, 200, 251, 300)

    def __init__(self, seed: int):
        super().__init__(seed)
        self._checker = None

    def _check(self, kind: str, n: int, result) -> str:
        if self._checker is None:
            self._checker = gate.FloatChecker()
        code, parts = result
        return self._checker(kind, n, code, parts)

    def _op(self, kind: str, n: int) -> Op:
        argv = [kind, "--n", str(n)]
        return Op(kind, str(n), argv, _cli(argv), lambda result: self._check(kind, n, result))

    def ops(self, rng):
        return [self._op(kind, n) for n in self.sizes for kind in ("pinv", "spectrum")]

    def warmup(self):
        return [self._op("pinv", 20), self._op("spectrum", 20)]

    def close(self):
        if self._checker is not None:
            self._checker.close()
            self._checker = None


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _tree_op(rng: random.Random, m: int) -> Op:
    # The weight multiset is fixed by m and only its placement is seeded:
    # path bit lengths, which set the exact kernel's cost, then vary with
    # the seed's tree shape alone.
    weights = [Fraction(1 + i % 9, 1 + 4 * i % 9) for i in range(m - 1)]
    rng.shuffle(weights)
    labels = list(range(1, m + 1))
    rng.shuffle(labels)
    edges = [(labels[rng.randrange(v)], labels[v], weights[v - 1]) for v in range(1, m)]
    tree = gearpinv.trees.weighted_tree(edges)
    distances = gate.tree_distances(m, edges)
    determinant = gate.tree_determinant(weights)

    def run():
        dist = gearpinv.trees.tree_distance(tree)
        return (dist, gearpinv.pinv.rational_pinv(dist), gearpinv.trees.weighted_tree_inverse(tree),
                gearpinv.trees.graham_pollak_det(tree))

    def check(result):
        dist, pinv, inverse, det = result
        exact = ((dist == distances).all() and gate.is_exact_inverse(distances, pinv)
                 and (inverse == pinv).all() and det == determinant)
        return gate.OK if exact else gate.WRONG

    return Op("tree", str(m), edges, run, check)


def _edm_op(rng: random.Random, m: int, reach: int, dim: int) -> Op:
    points = [[rng.randint(-reach, reach) for _ in range(dim)] for _ in range(m)]
    matrix = np.array([[sum((a - b) ** 2 for a, b in zip(p, q)) for q in points] for p in points],
                      dtype=object)

    def run():
        return gearpinv.edm.is_edm(matrix), gearpinv.pinv.rational_pinv(matrix)

    def check(result):
        report, pinv = result
        if not gate.penrose_exact(matrix, pinv):
            return gate.WRONG
        if report.order != m or not (report.is_hollow and report.is_symmetric):
            return gate.WRONG
        return gate.OK if report.is_edm else gate.REJECTED

    return Op("edm", f"{m}@{reach}d{dim}", matrix, run, check)


def _product_op(rng: random.Random, rows: int, cols: int, rank: int) -> Op:
    left = np.array([[_fraction(rng) for _ in range(rank)] for _ in range(rows)], dtype=object)
    right = np.array([[_fraction(rng) for _ in range(cols)] for _ in range(rank)], dtype=object)
    matrix = left.dot(right)

    def run():
        return gearpinv.pinv.rational_pinv(matrix)

    def check(pinv):
        return gate.OK if gate.penrose_exact(matrix, pinv) else gate.WRONG

    return Op("product", f"{rows}x{cols}", matrix, run, check)


class Oracle(Workload):
    """Exact library calls on non-gear inputs: trees, point-set EDMs, low-rank products."""

    name = "oracle"
    tail_q = Fraction(3, 4)
    tree_sizes = (20, 25, 30, 35, 40)
    edm_sizes = (20, 30, 40)
    # Squared distances of integer points within +-reach; is_edm's float
    # tolerance rejects the larger reaches (an expected, measured failure).
    edm_reaches = (10, 100, 1000, 3000)
    product_shapes = ((20, 15), (30, 20), (40, 30))
    product_rank = 10

    def ops(self, rng):
        ops = [_tree_op(rng, m) for m in self.tree_sizes]
        cells = [(m, reach) for m in self.edm_sizes for reach in self.edm_reaches]
        ops += [_edm_op(rng, m, reach, 2 + i % 3) for i, (m, reach) in enumerate(cells)]
        ops += [_product_op(rng, r, c, self.product_rank) for r, c in self.product_shapes]
        return ops

    def warmup(self):
        rng = random.Random("oracle/warmup")
        return [_tree_op(rng, 6), _edm_op(rng, 6, 10, 2), _product_op(rng, 5, 4, 2)]


WORKLOADS = {cls.name: cls for cls in (Verify, Float, Oracle)}
