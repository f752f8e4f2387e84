"""Distance matrices of trees and their closed-form inverses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import _walk
from .rational import rational, unscaled


@dataclass(frozen=True)
class WeightedTree:
    """Tree on 1-based vertices with positive rational edge weights.

    Exactly ``num_vertices - 1`` edges and connectivity are enforced, so
    acyclicity is automatic.
    """

    num_vertices: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self) -> None:
        m = self.num_vertices
        if m < 1:
            raise ValueError("a tree needs at least one vertex")
        if len(self.edges) != m - 1:
            raise ValueError("a tree on m vertices has exactly m-1 edges")
        for a, b, w in self.edges:
            if not (1 <= a <= m and 1 <= b <= m) or a == b:
                raise ValueError(f"bad edge ({a}, {b})")
            if w <= 0:
                raise ValueError("edge weights must be positive")
        if None in _walk(self.adjacency(), 1):
            raise ValueError("edges do not connect all vertices")

    def adjacency(self) -> list[list[tuple[int, Fraction]]]:
        """Neighbor lists of (vertex, weight) pairs, indexed by vertex id."""
        nbrs: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.num_vertices + 1)]
        for a, b, w in self.edges:
            nbrs[a].append((b, w))
            nbrs[b].append((a, w))
        return nbrs

    def degrees(self) -> list[int]:
        return [len(lst) for lst in self.adjacency()[1:]]

    def is_unit(self) -> bool:
        return all(w == 1 for _, _, w in self.edges)


def unit_tree(edges) -> WeightedTree:
    """Tree with all weights 1 from (a, b) pairs; m is the largest id."""
    return weighted_tree([(a, b, 1) for a, b in edges])


def weighted_tree(edges) -> WeightedTree:
    """Tree from (a, b, weight) triples; weights may be ints or strings."""
    triples = [(a, b, rational(w)) for a, b, w in edges]
    m = max((max(a, b) for a, b, _ in triples), default=1)
    return WeightedTree(m, tuple(triples))


def tree_distance(tree: WeightedTree) -> np.ndarray:
    """Rational matrix of path weights between all vertex pairs.

    The walks sum integer weights over the lcm of the weight
    denominators; ``unscaled`` builds one Fraction per distinct distance.
    """
    den = math.lcm(*(w.denominator for _, _, w in tree.edges))
    nbrs = [[(v, w.numerator * (den // w.denominator)) for v, w in lst] for lst in tree.adjacency()]
    rows = [_walk(nbrs, source) for source in range(1, tree.num_vertices + 1)]
    return unscaled(np.array(rows, dtype=object), den)


def graham_lovasz_inverse(tree: WeightedTree) -> np.ndarray:
    """Exact inverse of the distance matrix of a unit-weight tree.

    ``-L/2 + t t' / (2(m-1))`` where L is the graph Laplacian and t has
    entry ``2 - degree`` at each vertex: :func:`weighted_tree_inverse`
    with every weight 1, so the total weight is m - 1.
    """
    if not tree.is_unit():
        raise ValueError("tree has non-unit weights: use weighted_tree_inverse")
    return weighted_tree_inverse(tree)


def weighted_tree_inverse(tree: WeightedTree) -> np.ndarray:
    """Exact inverse of the distance matrix of a weighted tree.

    ``-L/2 + t t' / (2T)``: the Laplacian L carries reciprocal weights, t
    has entry ``2 - degree`` at each vertex and T = tn/td is the total
    edge weight.  With q the lcm of the weight numerators, Lq = q L has
    integer entries, and the inverse is the integer matrix ``q td t t' -
    tn Lq`` over ``2 q tn``, one shared Fraction per distinct entry.
    """
    m = tree.num_vertices
    if m < 2:
        raise ValueError("the inverse needs at least two vertices")
    weights = [w for _, _, w in tree.edges]
    q = math.lcm(*(w.numerator for w in weights))
    total = sum(weights)
    tau = np.array([2 - d for d in tree.degrees()])
    ints = np.outer(tau, tau).astype(object) * (q * total.denominator)
    a, b = np.array([(u - 1, v - 1) for u, v, _ in tree.edges]).T
    x = total.numerator * np.array([q // w.numerator * w.denominator for w in weights],
                                   dtype=object)
    # Unbuffered scatters: a vertex repeated in a or b takes every edge's update.
    np.subtract.at(ints, (a, a), x)
    np.subtract.at(ints, (b, b), x)
    np.add.at(ints, (a, b), x)
    np.add.at(ints, (b, a), x)
    return unscaled(ints, 2 * q * total.numerator)


def graham_pollak_det(tree: WeightedTree) -> Fraction:
    """Exact determinant of the tree distance matrix, from its closed form.

    On m vertices with edge weights w it is ``(-1)**(m-1) * 2**(m-2) *
    sum(w) * prod(w)`` (Bapat, Kirkland & Neumann, 2005), zero for a
    single vertex.  For unit weights this is ``(-1)**(m-1) * (m-1) *
    2**(m-2)``: it depends on the size of the tree but not on its shape.
    """
    m = tree.num_vertices
    weights = [w for _, _, w in tree.edges]
    return (-1) ** (m - 1) * Fraction(2) ** (m - 2) * sum(weights) * math.prod(weights)
