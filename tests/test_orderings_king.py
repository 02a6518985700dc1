"""Unit tests for King's ordering (repro.orderings.king)."""

import numpy as np
from hypothesis import given, settings

from repro.collections.meshes import grid2d_pattern
from repro.envelope.metrics import envelope_size, frontwidths
from repro.orderings.base import random_ordering
from repro.orderings.king import king_ordering, reverse_king_ordering
from tests.conftest import small_connected_patterns


class TestKingOrdering:
    def test_path_is_optimal(self, path10):
        ordering = king_ordering(path10)
        assert envelope_size(path10, ordering.perm) == 9

    def test_valid_permutation(self, grid_12x9):
        ordering = king_ordering(grid_12x9)
        assert sorted(ordering.perm.tolist()) == list(range(grid_12x9.n))

    def test_beats_random(self, geometric200):
        king = king_ordering(geometric200)
        rand = random_ordering(geometric200.n, rng=4)
        assert envelope_size(geometric200, king.perm) < envelope_size(geometric200, rand.perm)

    def test_front_growth_is_controlled(self):
        grid = grid2d_pattern(18, 6)
        ordering = king_ordering(grid)
        assert frontwidths(grid, ordering.perm).max() <= 4 * 6

    def test_reverse_king_is_reverse(self, grid_8x6):
        king = king_ordering(grid_8x6)
        reverse = reverse_king_ordering(grid_8x6)
        np.testing.assert_array_equal(reverse.perm, king.perm[::-1])

    def test_disconnected_handled(self, disconnected_pattern):
        ordering = king_ordering(disconnected_pattern)
        assert sorted(ordering.perm.tolist()) == list(range(17))

    def test_algorithm_names(self, path10):
        assert king_ordering(path10).algorithm == "king"
        assert reverse_king_ordering(path10).algorithm == "reverse-king"

    def test_registered(self):
        from repro.orderings.registry import ORDERING_ALGORITHMS

        assert "king" in ORDERING_ALGORITHMS
        assert "reverse-king" in ORDERING_ALGORITHMS

    @given(small_connected_patterns())
    @settings(max_examples=25, deadline=None)
    def test_always_valid_permutation(self, pattern):
        ordering = king_ordering(pattern)
        assert sorted(ordering.perm.tolist()) == list(range(pattern.n))
