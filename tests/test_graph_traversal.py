"""Unit tests for repro.graph.traversal."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.collections.meshes import grid2d_pattern, path_pattern, star_pattern
from repro.graph.traversal import (
    bfs_order,
    breadth_first_levels,
    distance_from,
    rooted_level_structure,
)
from tests.conftest import small_connected_patterns


class TestBreadthFirstLevels:
    def test_path_levels_are_distances(self, path10):
        structure = breadth_first_levels(path10, 0)
        np.testing.assert_array_equal(structure.level_of, np.arange(10))
        assert structure.height == 9
        assert structure.width == 1
        assert structure.depth == 10

    def test_path_from_middle(self, path10):
        structure = breadth_first_levels(path10, 5)
        assert structure.height == 5  # max(5, 4) hops to the ends... farthest end is 0..5 -> 5 and 9-5=4
        assert structure.level_of[0] == 5
        assert structure.level_of[9] == 4

    def test_star_two_levels(self, star9):
        structure = breadth_first_levels(star9, 0)
        assert structure.height == 1
        assert structure.width == 8

    def test_unreachable_vertices_marked(self, disconnected_pattern):
        structure = breadth_first_levels(disconnected_pattern, 0)
        assert structure.level_of[8] == -1
        assert structure.level_of[16] == -1
        assert structure.num_reached == 8

    def test_sequence_root_rejected(self, path10):
        for roots in ([0, 9], (0,), np.array([0, 9])):
            with pytest.raises(TypeError):
                breadth_first_levels(path10, roots)

    def test_level_widths_sum_to_reached(self, grid_8x6):
        structure = breadth_first_levels(grid_8x6, 0)
        assert structure.level_widths.sum() == grid_8x6.n

    def test_out_of_range_root(self, path10):
        with pytest.raises(ValueError):
            breadth_first_levels(path10, 99)

    def test_vertices_returns_all_levels(self, grid_8x6):
        structure = breadth_first_levels(grid_8x6, 3)
        assert sorted(structure.vertices().tolist()) == list(range(grid_8x6.n))

    def test_rooted_level_structure_alias(self, path10):
        a = rooted_level_structure(path10, 2)
        b = breadth_first_levels(path10, 2)
        np.testing.assert_array_equal(a.level_of, b.level_of)


class TestBfsOrder:
    def test_covers_component(self, grid_8x6):
        order = bfs_order(grid_8x6, 0)
        assert sorted(order.tolist()) == list(range(grid_8x6.n))

    def test_starts_at_root(self, grid_8x6):
        assert bfs_order(grid_8x6, 17)[0] == 17

    def test_levels_are_nondecreasing_along_order(self, grid_8x6):
        order = bfs_order(grid_8x6, 0)
        levels = breadth_first_levels(grid_8x6, 0).level_of
        assert np.all(np.diff(levels[order]) >= 0)

    def test_degree_sorted_enqueue(self):
        # Star with an extra pendant: from the centre, neighbours should be
        # enqueued lowest-degree first.
        pattern = star_pattern(5)
        order = bfs_order(pattern, 0, sort_by_degree=True)
        assert order[0] == 0
        assert sorted(order[1:].tolist()) == [1, 2, 3, 4]

    def test_only_component_returned(self, disconnected_pattern):
        order = bfs_order(disconnected_pattern, 0)
        assert sorted(order.tolist()) == list(range(8))

    def test_invalid_root(self, path10):
        with pytest.raises(ValueError):
            bfs_order(path10, -1)


class TestDistanceFrom:
    def test_path_distances(self, path10):
        np.testing.assert_array_equal(distance_from(path10, 0), np.arange(10))

    def test_grid_distance_is_manhattan(self):
        grid = grid2d_pattern(5, 7)
        dist = distance_from(grid, 0)
        # vertex (i, j) has index i*7+j; distance from (0,0) is i+j
        for i in range(5):
            for j in range(7):
                assert dist[i * 7 + j] == i + j

    def test_unreachable_is_minus_one(self, disconnected_pattern):
        assert distance_from(disconnected_pattern, 0)[16] == -1


class TestTraversalProperties:
    @given(small_connected_patterns())
    @settings(max_examples=30, deadline=None)
    def test_bfs_levels_differ_by_at_most_one_across_edges(self, pattern):
        structure = breadth_first_levels(pattern, 0)
        levels = structure.level_of
        for u, v in pattern.edges():
            assert abs(int(levels[u]) - int(levels[v])) <= 1

    @given(small_connected_patterns())
    @settings(max_examples=30, deadline=None)
    def test_bfs_order_is_permutation_of_component(self, pattern):
        order = bfs_order(pattern, 0, sort_by_degree=True)
        assert sorted(order.tolist()) == list(range(pattern.n))

    @given(small_connected_patterns())
    @settings(max_examples=30, deadline=None)
    def test_path_property_of_levels(self, pattern):
        # every vertex at level k>0 has a neighbour at level k-1
        structure = breadth_first_levels(pattern, 0)
        levels = structure.level_of
        for v in range(pattern.n):
            if levels[v] > 0:
                nbr_levels = levels[pattern.neighbors(v)]
                assert (nbr_levels == levels[v] - 1).any()
