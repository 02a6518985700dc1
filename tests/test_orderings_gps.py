"""Unit tests for the Gibbs-Poole-Stockmeyer ordering (repro.orderings.gps)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.collections.meshes import grid2d_pattern
from repro.envelope.metrics import bandwidth, envelope_size
from repro.orderings.base import random_ordering
from repro.orderings.cuthill_mckee import rcm_ordering
from repro.orderings.gps import combined_level_structure, gps_ordering, number_by_levels
from tests.conftest import small_connected_patterns


class TestCombinedLevelStructure:
    def test_path_levels_are_positions(self, path10):
        levels, height, start, end = combined_level_structure(path10)
        assert height == 9
        assert {start, end} == {0, 9}
        # levels along a path must be exactly the distance from the start
        expected = np.abs(np.arange(10) - start)
        np.testing.assert_array_equal(levels, expected)

    def test_every_vertex_assigned(self, grid_12x9):
        levels, height, start, end = combined_level_structure(grid_12x9)
        assert levels.min() >= 0
        assert levels.max() == height
        assert start != end

    def test_adjacent_levels_differ_by_at_most_one_on_grid(self, grid_8x6):
        levels, _, _, _ = combined_level_structure(grid_8x6)
        violations = sum(
            1 for u, v in grid_8x6.edges() if abs(int(levels[u]) - int(levels[v])) > 1
        )
        # The combined structure is not a BFS leveling, but on a regular grid
        # almost every edge should stay within adjacent levels.
        assert violations <= grid_8x6.num_edges // 10

    def test_start_has_level_zero(self, grid_8x6):
        levels, _, start, _ = combined_level_structure(grid_8x6)
        assert levels[start] == 0

    def test_single_vertex(self):
        from repro.sparse.pattern import SymmetricPattern

        levels, height, start, end = combined_level_structure(SymmetricPattern.empty(1))
        assert height == 0 and start == 0 and end == 0


class TestNumberByLevels:
    def test_produces_permutation(self, grid_8x6):
        levels, _, start, _ = combined_level_structure(grid_8x6)
        order = number_by_levels(grid_8x6, levels, start)
        assert sorted(order.tolist()) == list(range(grid_8x6.n))

    def test_level_values_nondecreasing_along_numbering(self, grid_8x6):
        levels, _, start, _ = combined_level_structure(grid_8x6)
        order = number_by_levels(grid_8x6, levels, start)
        assert np.all(np.diff(levels[order]) >= 0)

    def test_king_rule_also_valid(self, grid_8x6):
        levels, _, start, _ = combined_level_structure(grid_8x6)
        order = number_by_levels(grid_8x6, levels, start, tie_break="king")
        assert sorted(order.tolist()) == list(range(grid_8x6.n))

    def test_unknown_tie_break(self, path10):
        levels, _, start, _ = combined_level_structure(path10)
        with pytest.raises(ValueError):
            number_by_levels(path10, levels, start, tie_break="nope")


class TestGPSOrdering:
    def test_path_is_optimal(self, path10):
        ordering = gps_ordering(path10)
        assert bandwidth(path10, ordering.perm) == 1
        assert envelope_size(path10, ordering.perm) == 9

    def test_grid_bandwidth_close_to_short_dimension(self):
        grid = grid2d_pattern(25, 7)
        ordering = gps_ordering(grid)
        assert bandwidth(grid, ordering.perm) <= 10

    def test_beats_random_ordering(self, geometric200):
        gps = gps_ordering(geometric200)
        rand = random_ordering(geometric200.n, rng=2)
        assert envelope_size(geometric200, gps.perm) < envelope_size(geometric200, rand.perm)
        assert bandwidth(geometric200, gps.perm) < bandwidth(geometric200, rand.perm)

    def test_bandwidth_competitive_with_rcm(self, geometric200):
        # The paper: "Generally the GPS algorithm yields a lower bandwidth".
        # Allow slack but require the same order of magnitude.
        gps_bw = bandwidth(geometric200, gps_ordering(geometric200).perm)
        rcm_bw = bandwidth(geometric200, rcm_ordering(geometric200).perm)
        assert gps_bw <= 1.5 * rcm_bw

    def test_disconnected_handled(self, disconnected_pattern):
        ordering = gps_ordering(disconnected_pattern)
        assert sorted(ordering.perm.tolist()) == list(range(17))

    def test_algorithm_name(self, path10):
        assert gps_ordering(path10).algorithm == "gps"

    @given(small_connected_patterns())
    @settings(max_examples=25, deadline=None)
    def test_always_valid_permutation(self, pattern):
        ordering = gps_ordering(pattern)
        assert sorted(ordering.perm.tolist()) == list(range(pattern.n))
