"""Tree distance matrices, closed-form inverses, and the determinant law."""

from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from gearpinv.graphs import Graph, bfs_distances
from gearpinv.pinv import rational_pinv
from gearpinv.rational import det, invert, rational_identity, rational_matrix
from gearpinv.trees import (
    WeightedTree,
    graham_lovasz_inverse,
    graham_pollak_det,
    tree_distance,
    unit_tree,
    weighted_tree,
    weighted_tree_inverse,
)


def test_path_distance_golden():
    dist = tree_distance(unit_tree([(1, 2), (2, 3)]))
    assert (dist == rational_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])).all()


def test_weighted_path_distance_golden():
    dist = tree_distance(weighted_tree([(1, 2, 1), (2, 3, 2)]))
    assert (dist == rational_matrix([[0, 1, 3], [1, 0, 2], [3, 2, 0]])).all()


def test_star_distance():
    dist = tree_distance(unit_tree([(1, 2), (1, 3), (1, 4)]))
    assert (dist[0, 1:] == Fraction(1)).all()
    assert dist[1, 2] == 2


def test_tree_validation():
    with pytest.raises(ValueError, match="at least one vertex"):
        WeightedTree(0, ())
    with pytest.raises(ValueError, match="m-1 edges"):
        WeightedTree(3, ((1, 2, Fraction(1)),))
    with pytest.raises(ValueError, match="connect"):
        WeightedTree(4, ((1, 2, Fraction(1)), (1, 2, Fraction(2)), (3, 4, Fraction(1))))
    with pytest.raises(ValueError, match="positive"):
        weighted_tree([(1, 2, -1)])
    with pytest.raises(ValueError, match="bad edge"):
        WeightedTree(2, ((1, 1, Fraction(1)),))
    with pytest.raises(ValueError, match="bad edge"):
        WeightedTree(2, ((1, 5, Fraction(1)),))


def test_single_vertex_tree():
    t = WeightedTree(1, ())
    assert tree_distance(t).shape == (1, 1)
    assert graham_pollak_det(t) == 0
    with pytest.raises(ValueError, match="two vertices"):
        graham_lovasz_inverse(t)


def test_graham_lovasz_star_corner():
    inv = graham_lovasz_inverse(unit_tree([(1, 2), (1, 3), (1, 4)]))
    assert inv[0, 0] == Fraction(-4, 3)


def test_graham_lovasz_two_vertices():
    t = unit_tree([(1, 2)])
    inv = graham_lovasz_inverse(t)
    assert (inv == rational_matrix([[0, 1], [1, 0]])).all()


def test_graham_lovasz_exact_inverse_on_corpus(unit_tree_corpus):
    for tree in unit_tree_corpus:
        dist = tree_distance(tree)
        inv = graham_lovasz_inverse(tree)
        eye = rational_identity(tree.num_vertices)
        assert (dist @ inv == eye).all()
        assert (inv == inv.T).all()


def test_graham_lovasz_rejects_weighted():
    t = weighted_tree([(1, 2, 2)])
    with pytest.raises(ValueError, match="weighted_tree_inverse"):
        graham_lovasz_inverse(t)


def test_weighted_inverse_exact_on_corpus(weighted_tree_corpus):
    for tree in weighted_tree_corpus:
        dist = tree_distance(tree)
        inv = weighted_tree_inverse(tree)
        eye = rational_identity(tree.num_vertices)
        assert (dist @ inv == eye).all()


def _unit_closed_form(tree):
    """-L/2 + tau tau' / (2(m-1)) entry by entry, read off the edge list."""
    m = tree.num_vertices
    degree = [0] * (m + 1)
    adjacent = set()
    for a, b, _ in tree.edges:
        degree[a] += 1
        degree[b] += 1
        adjacent |= {(a, b), (b, a)}

    def entry(i, j):
        lap = degree[i] if i == j else -int((i, j) in adjacent)
        tau_i, tau_j = 2 - degree[i], 2 - degree[j]
        return Fraction(-lap, 2) + Fraction(tau_i * tau_j, 2 * (m - 1))

    return np.array(
        [[entry(i, j) for j in range(1, m + 1)] for i in range(1, m + 1)], dtype=object
    )


def test_weighted_inverse_reduces_to_unit_form(unit_tree_corpus):
    for tree in unit_tree_corpus:
        assert (graham_lovasz_inverse(tree) == _unit_closed_form(tree)).all()


def _fraction_closed_form(tree):
    """-L/2 + tau tau' / (2 sum(w)), assembled with per-entry Fraction arithmetic."""
    m = tree.num_vertices
    tau = np.array([Fraction(2 - d) for d in tree.degrees()], dtype=object)
    lap = np.full((m, m), Fraction(0), dtype=object)
    total = Fraction(0)
    for a, b, w in tree.edges:
        total += w
        lap[a - 1, a - 1] += 1 / w
        lap[b - 1, b - 1] += 1 / w
        lap[a - 1, b - 1] -= 1 / w
        lap[b - 1, a - 1] -= 1 / w
    return -Fraction(1, 2) * lap + Fraction(1, 2) / total * np.outer(tau, tau)


def test_weighted_inverse_matches_fraction_assembly(unit_tree_corpus, weighted_tree_corpus):
    pairs = [unit_tree([(1, 2)]), weighted_tree([(1, 2, "3/7")])]
    for tree in unit_tree_corpus + weighted_tree_corpus + pairs:
        got, want = weighted_tree_inverse(tree), _fraction_closed_form(tree)
        assert got.shape == want.shape
        assert all(type(x) is Fraction and x == y for x, y in zip(got.flat, want.flat))


def test_graham_pollak_small_cases():
    assert graham_pollak_det(unit_tree([(1, 2)])) == -1
    assert graham_pollak_det(unit_tree([(1, 2), (2, 3)])) == 4
    # Shape independence: every tree on 4 vertices gives -12.
    assert graham_pollak_det(unit_tree([(1, 2), (2, 3), (3, 4)])) == -12
    assert graham_pollak_det(unit_tree([(1, 2), (1, 3), (1, 4)])) == -12


def test_graham_pollak_closed_form_on_corpus(unit_tree_corpus):
    for tree in unit_tree_corpus:
        m = tree.num_vertices
        expected = Fraction((-1) ** (m - 1) * (m - 1) * 2 ** (m - 2))
        assert graham_pollak_det(tree) == expected


def test_graham_pollak_equals_eliminated_determinant(weighted_tree_corpus):
    for tree in weighted_tree_corpus:
        got = graham_pollak_det(tree)
        assert type(got) is Fraction
        assert got == det(tree_distance(tree))


def test_distance_depends_only_on_weights_along_path():
    t = weighted_tree([(1, 2, "1/2"), (2, 3, "1/2"), (3, 4, 3)])
    dist = tree_distance(t)
    assert dist[0, 3] == Fraction(4)
    assert dist[0, 2] == Fraction(1)


def _fraction_walk(tree):
    """Path weights by Fraction additions from every source: the reference for tree_distance."""
    m = tree.num_vertices
    nbrs = tree.adjacency()
    out = np.full((m, m), Fraction(0), dtype=object)
    for source in range(1, m + 1):
        dist = {source: Fraction(0)}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w, weight in nbrs[v]:
                if w not in dist:
                    dist[w] = dist[v] + weight
                    queue.append(w)
        out[source - 1] = [dist[v] for v in range(1, m + 1)]
    return out


def _same_fractions(got, want):
    return got.shape == want.shape and all(
        type(x) is Fraction and x == y for x, y in zip(got.flat, want.flat)
    )


def test_tree_distance_matches_fraction_walk(unit_tree_corpus, weighted_tree_corpus):
    mixed = weighted_tree([(1, 2, "3/7"), (2, 3, "5/6"), (2, 4, 2), (4, 5, "1/9")])
    for tree in unit_tree_corpus + weighted_tree_corpus + [mixed, WeightedTree(1, ())]:
        assert _same_fractions(tree_distance(tree), _fraction_walk(tree))


def test_rational_pinv_equals_closed_form_and_bareiss(unit_tree_corpus, weighted_tree_corpus):
    for tree in unit_tree_corpus + weighted_tree_corpus:
        dist = tree_distance(tree)
        inverse = rational_pinv(dist)
        assert _same_fractions(inverse, weighted_tree_inverse(tree))
        assert _same_fractions(inverse, invert(dist))


def test_tree_distance_equals_bfs_distances_on_unit_trees(unit_tree_corpus):
    paths = [[(v, v + 1) for v in range(1, m)] for m in range(2, 61)]
    stars = [[(1, v) for v in range(2, m + 1)] for m in range(2, 61)]
    edge_lists = [[(a, b) for a, b, _ in tree.edges] for tree in unit_tree_corpus]
    for edges in edge_lists + paths + stars:
        m = max(max(edge) for edge in edges)
        walked = bfs_distances(Graph(m, tuple(edges)))
        assert walked.dtype == np.int64
        assert (tree_distance(unit_tree(edges)) == walked).all()
