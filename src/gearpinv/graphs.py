"""Gear and wheel graphs with their distance matrices.

A gear graph is built from a wheel on ``n`` vertices (hub plus an
``(n-1)``-cycle) by subdividing every cycle edge once, giving ``2n - 1``
vertices in total.  Vertex ids are 1-based: the hub is 1, the cycle
vertices are ``2..n`` in cyclic order, and ``n + i - 1`` is the new
vertex on the former cycle edge between ``i`` and its cyclic successor
(``i + 1``, wrapping back to 2 after ``n``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Undirected graph on 1-based vertex ids.

    Parameters
    ----------
    num_vertices : int
        Vertices are exactly ``1..num_vertices``.
    edges : tuple of (int, int)
        Each pair is stored with the smaller id first.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists indexed by vertex id (index 0 unused)."""
        nbrs: list[list[int]] = [[] for _ in range(self.num_vertices + 1)]
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return nbrs

    def degrees(self) -> list[int]:
        """Degree of every vertex, in id order."""
        return [len(lst) for lst in self.adjacency()[1:]]


@dataclass(frozen=True)
class GearGraph(Graph):
    """Gear graph; ``n`` is the size of the underlying wheel."""

    n: int


def _require_wheel_size(n: int) -> None:
    if n < 4:
        raise ValueError("n must be ≥ 4")


def _require_pair_index(n: int, k: int) -> None:
    _require_wheel_size(n)
    if not 1 <= k <= n - 2:
        raise ValueError("k must satisfy 1 ≤ k ≤ n-2")


def build_wheel(n: int) -> Graph:
    """Wheel on ``n`` vertices: hub 1 joined to the cycle ``2..n``.

    ``build_wheel(4)`` is the complete graph on four vertices.
    """
    _require_wheel_size(n)
    edges = [(1, i) for i in range(2, n + 1)]
    edges += [(i, i + 1) for i in range(2, n)]
    edges.append((2, n))
    return Graph(num_vertices=n, edges=tuple(sorted(tuple(sorted(e)) for e in edges)))


def build_gear(n: int) -> GearGraph:
    """Gear graph obtained by subdividing every cycle edge of the wheel.

    Parameters
    ----------
    n : int
        Wheel size, at least 4.

    Returns
    -------
    GearGraph
        ``2n - 1`` vertices and ``3(n - 1)`` edges.
    """
    _require_wheel_size(n)
    edges = [(1, i) for i in range(2, n + 1)]
    for i in range(2, n + 1):
        successor = i + 1 if i < n else 2
        sub = n + i - 1
        edges.append(tuple(sorted((i, sub))))
        edges.append(tuple(sorted((successor, sub))))
    return GearGraph(
        num_vertices=2 * n - 1,
        edges=tuple(sorted(tuple(sorted(e)) for e in edges)),
        n=n,
    )


def bfs_distances(graph: Graph) -> np.ndarray:
    """All-pairs shortest path lengths by breadth-first search.

    Returns
    -------
    numpy.ndarray
        Integer matrix indexed by ``vertex id - 1``.

    Raises
    ------
    ValueError
        If the graph is not connected.
    """
    m = graph.num_vertices
    nbrs = graph.adjacency()
    out = np.zeros((m, m), dtype=np.int64)
    for source in range(1, m + 1):
        dist = [-1] * (m + 1)
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in nbrs[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if min(dist[1:]) < 0:
            raise ValueError("graph is not connected")
        out[source - 1, :] = dist[1:]
    return out


def rim_to_sub_row(n: int) -> list[int]:
    """First row of the cycle-to-subdivision distance block: 1, 3...3, 1."""
    return [1] + [3] * (n - 3) + [1]


def sub_to_sub_row(n: int) -> list[int]:
    """First row of the subdivision-to-subdivision block: 0, 2, 4...4, 2."""
    return [0, 2] + [4] * (n - 4) + [2]


def gear_distance_closed(n: int) -> np.ndarray:
    """Distance matrix of the gear graph from its block pattern.

    The hub row is ``(0, 1...1, 2...2)``; cycle vertices sit at mutual
    distance 2; the mixed and subdivision blocks are circulants built
    from :func:`rim_to_sub_row` and :func:`sub_to_sub_row`.
    """
    from .circulant import circulant

    _require_wheel_size(n)
    size = n - 1
    s_block = circulant(rim_to_sub_row(n))
    t_block = circulant(sub_to_sub_row(n))
    rim_block = 2 * (np.ones((size, size), dtype=np.int64) - np.eye(size, dtype=np.int64))
    column = np.ones((size, 1), dtype=np.int64)
    top = np.hstack([np.zeros((1, 1), dtype=np.int64), column.T, 2 * column.T])
    middle = np.hstack([column, rim_block, s_block])
    bottom = np.hstack([2 * column, s_block.T, t_block])
    return np.vstack([top, middle, bottom])
