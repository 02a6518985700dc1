"""Unit tests for Cuthill-McKee and RCM (repro.orderings.cuthill_mckee)."""

import numpy as np
from hypothesis import given, settings
from scipy.sparse.csgraph import reverse_cuthill_mckee

from repro.collections.meshes import grid2d_pattern
from repro.envelope.metrics import bandwidth, envelope_size
from repro.envelope.theory import is_adjacency_ordering
from repro.orderings.cuthill_mckee import cuthill_mckee_ordering, rcm_ordering
from tests.conftest import small_connected_patterns


class TestCuthillMcKee:
    def test_path_natural_bandwidth(self, path10):
        ordering = cuthill_mckee_ordering(path10)
        assert bandwidth(path10, ordering.perm) == 1

    def test_is_adjacency_ordering(self, grid_8x6):
        ordering = cuthill_mckee_ordering(grid_8x6)
        assert is_adjacency_ordering(grid_8x6, ordering.perm)

    def test_start_vertex_honoured(self, grid_8x6):
        ordering = cuthill_mckee_ordering(grid_8x6, start=17)
        assert ordering.perm[0] == 17

    def test_permutation_valid(self, geometric200):
        ordering = cuthill_mckee_ordering(geometric200)
        assert sorted(ordering.perm.tolist()) == list(range(geometric200.n))

    def test_algorithm_name(self, path10):
        assert cuthill_mckee_ordering(path10).algorithm == "cuthill-mckee"

    @given(small_connected_patterns())
    @settings(max_examples=30, deadline=None)
    def test_cm_is_always_adjacency_ordering(self, pattern):
        ordering = cuthill_mckee_ordering(pattern)
        assert is_adjacency_ordering(pattern, ordering.perm)


class TestRCM:
    def test_is_reverse_of_cm(self, grid_8x6):
        cm = cuthill_mckee_ordering(grid_8x6, start=0)
        rcm = rcm_ordering(grid_8x6, start=0)
        np.testing.assert_array_equal(rcm.perm, cm.perm[::-1])

    def test_reduces_grid_bandwidth(self):
        # natural ordering of a 20x6 grid (row-major over the long axis) has
        # bandwidth 6; RCM should give bandwidth about min(nx, ny).
        grid = grid2d_pattern(20, 6)
        ordering = rcm_ordering(grid)
        assert bandwidth(grid, ordering.perm) <= 8

    def test_reduces_envelope_vs_random(self, geometric200):
        from repro.orderings.base import random_ordering

        rcm = rcm_ordering(geometric200)
        rand = random_ordering(geometric200.n, rng=0)
        assert envelope_size(geometric200, rcm.perm) < envelope_size(geometric200, rand.perm)

    def test_comparable_to_scipy_rcm(self, geometric200):
        """Our RCM and SciPy's must produce envelopes of the same order."""
        ours = envelope_size(geometric200, rcm_ordering(geometric200).perm)
        scipy_perm = reverse_cuthill_mckee(geometric200.to_scipy("pattern"), symmetric_mode=True)
        theirs = envelope_size(geometric200, np.asarray(scipy_perm, dtype=np.intp))
        assert ours <= 1.5 * theirs

    def test_handles_disconnected(self, disconnected_pattern):
        ordering = rcm_ordering(disconnected_pattern)
        assert sorted(ordering.perm.tolist()) == list(range(17))
        assert ordering.metadata["num_components"] == 3

    def test_algorithm_name(self, path10):
        assert rcm_ordering(path10).algorithm == "rcm"

    def test_single_vertex(self):
        from repro.sparse.pattern import SymmetricPattern

        ordering = rcm_ordering(SymmetricPattern.empty(1))
        np.testing.assert_array_equal(ordering.perm, [0])

    @given(small_connected_patterns())
    @settings(max_examples=30, deadline=None)
    def test_rcm_perm_is_valid(self, pattern):
        ordering = rcm_ordering(pattern)
        assert sorted(ordering.perm.tolist()) == list(range(pattern.n))
