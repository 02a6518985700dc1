"""Unit tests for the Gibbs-King ordering (repro.orderings.gibbs_king)."""

import numpy as np
from hypothesis import given, settings

from repro.collections.generators import annulus_pattern
from repro.collections.meshes import grid2d_pattern
from repro.envelope.metrics import bandwidth, envelope_size
from repro.orderings.base import random_ordering
from repro.orderings.gibbs_king import gibbs_king_ordering
from repro.orderings.gps import gps_ordering
from tests.conftest import small_connected_patterns


class TestGibbsKing:
    def test_path_is_optimal(self, path10):
        ordering = gibbs_king_ordering(path10)
        assert envelope_size(path10, ordering.perm) == 9
        assert bandwidth(path10, ordering.perm) == 1

    def test_valid_permutation(self, grid_12x9):
        ordering = gibbs_king_ordering(grid_12x9)
        assert sorted(ordering.perm.tolist()) == list(range(grid_12x9.n))

    def test_beats_random(self, geometric200):
        gk = gibbs_king_ordering(geometric200)
        rand = random_ordering(geometric200.n, rng=5)
        assert envelope_size(geometric200, gk.perm) < envelope_size(geometric200, rand.perm)

    def test_envelope_competitive_with_gps(self):
        # The paper: "the GK algorithm yields a lower envelope size" than GPS;
        # our implementations should at least be comparable (within 25%).
        pattern = annulus_pattern(8, 40)
        gk = envelope_size(pattern, gibbs_king_ordering(pattern).perm)
        gps = envelope_size(pattern, gps_ordering(pattern).perm)
        assert gk <= 1.25 * gps

    def test_grid_envelope_reasonable(self):
        grid = grid2d_pattern(15, 8)
        gk = gibbs_king_ordering(grid)
        # lower bound: each interior row needs width >= min dimension - small constant
        assert envelope_size(grid, gk.perm) <= 15 * 8 * 10

    def test_disconnected_handled(self, disconnected_pattern):
        ordering = gibbs_king_ordering(disconnected_pattern)
        assert sorted(ordering.perm.tolist()) == list(range(17))
        assert ordering.metadata["num_components"] == 3

    def test_algorithm_name(self, path10):
        assert gibbs_king_ordering(path10).algorithm == "gk"

    def test_deterministic(self, geometric200):
        a = gibbs_king_ordering(geometric200)
        b = gibbs_king_ordering(geometric200)
        np.testing.assert_array_equal(a.perm, b.perm)

    @given(small_connected_patterns())
    @settings(max_examples=25, deadline=None)
    def test_always_valid_permutation(self, pattern):
        ordering = gibbs_king_ordering(pattern)
        assert sorted(ordering.perm.tolist()) == list(range(pattern.n))
