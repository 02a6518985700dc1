"""Unit tests for Sloan's ordering (repro.orderings.sloan)."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings

from repro.collections.meshes import grid2d_pattern, path_pattern
from repro.envelope.metrics import envelope_size, frontwidths
from repro.orderings.base import random_ordering
from repro.orderings.sloan import sloan_ordering
from tests.conftest import small_connected_patterns
from tests.test_kernels_reference import _patch_reference_kernels


class TestSloan:
    def test_path_is_optimal(self, path10):
        ordering = sloan_ordering(path10)
        assert envelope_size(path10, ordering.perm) == 9

    def test_valid_permutation(self, grid_12x9):
        ordering = sloan_ordering(grid_12x9)
        assert sorted(ordering.perm.tolist()) == list(range(grid_12x9.n))

    def test_beats_random(self, geometric200):
        sloan = sloan_ordering(geometric200)
        rand = random_ordering(geometric200.n, rng=8)
        assert envelope_size(geometric200, sloan.perm) < envelope_size(geometric200, rand.perm)

    def test_front_stays_small_on_grid(self):
        grid = grid2d_pattern(20, 6)
        ordering = sloan_ordering(grid)
        fronts = frontwidths(grid, ordering.perm)
        assert fronts.max() <= 3 * 6  # close to the short grid dimension

    def test_weights_affect_result(self, geometric200):
        default = sloan_ordering(geometric200)
        distance_heavy = sloan_ordering(geometric200, w1=1, w2=8)
        # different weight profiles should normally give different orderings
        assert not np.array_equal(default.perm, distance_heavy.perm)

    def test_metadata_records_weights(self, path10):
        ordering = sloan_ordering(path10, w1=3, w2=2)
        assert ordering.metadata["w1"] == 3
        assert ordering.metadata["w2"] == 2

    @pytest.mark.parametrize("kernels", ["production", "reference"])
    def test_weights_must_be_integers(self, kernels, geometric200):
        with _patch_reference_kernels() if kernels == "reference" else nullcontext():
            for weights in ({"w1": 1.5}, {"w2": 0.5}):
                with pytest.raises(TypeError):
                    sloan_ordering(geometric200, **weights)
            plain = sloan_ordering(geometric200, w1=3, w2=2)
            numpy_ints = sloan_ordering(geometric200, w1=np.int64(3), w2=np.int64(2))
        np.testing.assert_array_equal(plain.perm, numpy_ints.perm)
        assert type(numpy_ints.metadata["w1"]) is int

    def test_disconnected_handled(self, disconnected_pattern):
        ordering = sloan_ordering(disconnected_pattern)
        assert sorted(ordering.perm.tolist()) == list(range(17))

    def test_algorithm_name(self, path10):
        assert sloan_ordering(path10).algorithm == "sloan"

    def test_deterministic(self, geometric200):
        a = sloan_ordering(geometric200)
        b = sloan_ordering(geometric200)
        np.testing.assert_array_equal(a.perm, b.perm)

    @given(small_connected_patterns())
    @settings(max_examples=25, deadline=None)
    def test_always_valid_permutation(self, pattern):
        ordering = sloan_ordering(pattern)
        assert sorted(ordering.perm.tolist()) == list(range(pattern.n))
