"""Gear and wheel construction plus the two distance routes."""

import numpy as np
import pytest

from gearpinv.circulant import _circulant_blocks
from gearpinv.graphs import (
    Graph,
    _wheel_distance_rows,
    bfs_distances,
    build_gear,
    build_wheel,
    gear_distance_closed,
    rim_to_sub_row,
    sub_to_sub_row,
)

GEAR_4_DISTANCES = np.array(
    [
        [0, 1, 1, 1, 2, 2, 2],
        [1, 0, 2, 2, 1, 3, 1],
        [1, 2, 0, 2, 1, 1, 3],
        [1, 2, 2, 0, 3, 1, 1],
        [2, 1, 1, 3, 0, 2, 2],
        [2, 3, 1, 1, 2, 0, 2],
        [2, 1, 3, 1, 2, 2, 0],
    ]
)


def test_wheel_4_is_complete():
    wheel = build_wheel(4)
    assert wheel.num_vertices == 4
    assert len(wheel.edges) == 6
    assert set(wheel.edges) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}


def test_wheel_distances_hub_and_rim():
    dist = bfs_distances(build_wheel(7))
    assert (dist[0, 1:] == 1).all()
    # Non-adjacent rim vertices reach each other through the hub.
    assert dist[1, 3] == 2
    assert dist[1, 2] == 1


def test_gear_counts():
    for n in range(4, 12):
        gear = build_gear(n)
        assert gear.num_vertices == 2 * n - 1
        assert len(gear.edges) == 3 * (n - 1)


def test_gear_7_adjacency():
    edges = set(build_gear(7).edges)
    for hub_edge in [(1, i) for i in range(2, 8)]:
        assert hub_edge in edges
    for pair in [(2, 8), (3, 8), (3, 9), (4, 9), (6, 12), (7, 12), (7, 13), (2, 13)]:
        assert pair in edges
    assert (2, 3) not in edges
    assert (1, 8) not in edges


def test_gear_degrees():
    n = 9
    degs = build_gear(n).degrees()
    assert degs[0] == n - 1
    assert all(d == 3 for d in degs[1:n])
    assert all(d == 2 for d in degs[n:])


def test_gear_is_bipartite():
    gear = build_gear(8)
    color = {1: 0}
    stack = [1]
    nbrs = gear.adjacency()
    while stack:
        v = stack.pop()
        for w in nbrs[v]:
            if w not in color:
                color[w] = 1 - color[v]
                stack.append(w)
            else:
                assert color[w] != color[v]


def test_small_n_rejected():
    for builder in (build_gear, build_wheel, gear_distance_closed):
        with pytest.raises(ValueError, match="≥ 4"):
            builder(3)


def test_bfs_on_path_graph():
    path = Graph(num_vertices=3, edges=((1, 2), (2, 3)))
    expected = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert np.array_equal(bfs_distances(path), expected)


def test_bfs_rejects_disconnected():
    lonely = Graph(num_vertices=3, edges=((1, 2),))
    with pytest.raises(ValueError, match="connected"):
        bfs_distances(lonely)


def test_block_rows():
    assert rim_to_sub_row(4) == [1, 3, 1]
    assert rim_to_sub_row(6) == [1, 3, 3, 3, 1]
    assert sub_to_sub_row(4) == [0, 2, 2]
    assert sub_to_sub_row(6) == [0, 2, 4, 4, 2]


def test_gear_4_distance_golden():
    assert np.array_equal(gear_distance_closed(4), GEAR_4_DISTANCES)


def test_closed_form_blocks_n5():
    dist = gear_distance_closed(5)
    assert (dist[0, 1:5] == 1).all()
    assert (dist[0, 5:] == 2).all()
    assert np.array_equal(dist[1, 5:], [1, 3, 3, 1])
    assert np.array_equal(dist[5, 5:], [0, 2, 4, 2])
    assert np.array_equal(dist, dist.T)


def test_bfs_matches_closed_form():
    for n in range(4, 17):
        gear = build_gear(n)
        assert np.array_equal(bfs_distances(gear), gear_distance_closed(n))


def test_wheel_distance_is_the_gather_of_its_hub_and_cycle_rows():
    for n in range(4, 61):
        rows = _wheel_distance_rows(n)
        assert rows.dtype == np.int64
        assert np.array_equal(_circulant_blocks(rows), bfs_distances(build_wheel(n)))


def test_distance_matrix_symmetry_and_hollowness():
    for n in (4, 7, 10):
        dist = gear_distance_closed(n)
        assert np.array_equal(dist, dist.T)
        assert not np.diag(dist).any()
        assert dist.max() == (4 if n > 4 else 3)
