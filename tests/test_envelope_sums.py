"""Unit tests for the 1-sum / 2-sum (repro.envelope.sums)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.collections.meshes import path_pattern
from repro.envelope.sums import one_sum, two_sum
from repro.envelope.theory import permutation_vector_from_ordering
from repro.graph.laplacian import laplacian_quadratic_form
from tests.conftest import small_patterns


class TestOneSum:
    def test_path_natural(self, path10):
        assert one_sum(path10) == 9  # each edge contributes |i - (i+1)| = 1

    def test_star_natural(self, star9):
        assert one_sum(star9) == sum(range(1, 9))

    def test_complete_graph(self, k6):
        expected = sum(j - i for i in range(6) for j in range(i + 1, 6))
        assert one_sum(k6) == expected

    def test_permutation_changes_value(self, star9):
        centre_last = np.array(list(range(1, 9)) + [0])
        assert one_sum(star9, centre_last) == sum(range(1, 9))
        centre_middle = np.array([1, 2, 3, 4, 0, 5, 6, 7, 8])
        assert one_sum(star9, centre_middle) == sum(range(1, 5)) + sum(range(1, 5))


class TestTwoSum:
    def test_path_natural(self, path10):
        assert two_sum(path10) == 9

    def test_relation_to_laplacian_quadratic_form(self, geometric200, rng):
        # For odd n the centered permutation vector reproduces the 2-sum
        # exactly; for even n (where the paper's value set skips zero) the
        # quadratic form can only be larger.
        perm = rng.permutation(geometric200.n)
        p_vec = permutation_vector_from_ordering(perm)
        quad = laplacian_quadratic_form(geometric200, p_vec)
        if geometric200.n % 2 == 1:
            assert two_sum(geometric200, perm) == pytest.approx(quad)
        else:
            assert quad >= two_sum(geometric200, perm) - 1e-9

    def test_equals_quadratic_form_for_odd_n(self, rng):
        pattern = path_pattern(31)
        perm = rng.permutation(31)
        p_vec = permutation_vector_from_ordering(perm)
        assert two_sum(pattern, perm) == pytest.approx(
            laplacian_quadratic_form(pattern, p_vec)
        )

    def test_greater_equal_one_sum(self, geometric200, rng):
        # every per-edge difference is >= 1, so squaring can only increase it
        perm = rng.permutation(geometric200.n)
        assert two_sum(geometric200, perm) >= one_sum(geometric200, perm)


class TestSumProperties:
    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_two_sum_vs_quadratic_form(self, pattern):
        rng = np.random.default_rng(2)
        perm = rng.permutation(pattern.n)
        p_vec = permutation_vector_from_ordering(perm)
        quad = laplacian_quadratic_form(pattern, p_vec)
        if pattern.n % 2 == 1:
            assert two_sum(pattern, perm) == pytest.approx(quad)
        else:
            assert quad >= two_sum(pattern, perm) - 1e-9

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_sums_nonnegative_and_ordered(self, pattern):
        s1 = one_sum(pattern)
        s2 = two_sum(pattern)
        assert 0 <= s1 <= s2
