"""Unit tests for Section 2.3/2.4 theory (repro.envelope.theory)."""

import itertools

import numpy as np
import pytest

from repro.eigen.fiedler import fiedler_vector
from repro.envelope.theory import (
    adjacency_ordering_violations,
    centered_permutation_values,
    closest_permutation_vector,
    is_adjacency_ordering,
    permutation_vector_from_ordering,
    spectral_adjacency_violations,
)
from repro.orderings.cuthill_mckee import cuthill_mckee_ordering, rcm_ordering
from repro.orderings.spectral import spectral_ordering


class TestCenteredPermutationValues:
    def test_odd_n(self):
        np.testing.assert_array_equal(centered_permutation_values(5), [-2, -1, 0, 1, 2])

    def test_even_n(self):
        np.testing.assert_array_equal(centered_permutation_values(4), [-2, -1, 1, 2])

    def test_sum_is_zero(self):
        for n in range(1, 12):
            assert centered_permutation_values(n).sum() == pytest.approx(0.0)

    def test_norm_formula(self):
        for n in range(2, 12):
            values = centered_permutation_values(n)
            if n % 2 == 1:
                expected = n * (n * n - 1) / 12.0
            else:
                expected = n * (n + 1) * (n + 2) / 12.0
            assert np.dot(values, values) == pytest.approx(expected)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            centered_permutation_values(0)


class TestPermutationVectorFromOrdering:
    def test_orthogonal_to_ones(self):
        p = permutation_vector_from_ordering([2, 0, 1, 3, 4])
        assert p.sum() == pytest.approx(0.0)

    def test_order_reflected(self):
        perm = np.array([2, 0, 1])
        p = permutation_vector_from_ordering(perm)
        # vertex 2 is first (value -1), vertex 0 second (0), vertex 1 last (+1)
        np.testing.assert_array_equal(p, [0.0, 1.0, -1.0])


class TestClosestPermutationVector:
    def test_preserves_order_of_input(self):
        x = np.array([0.5, -0.2, 0.1, 2.0])
        p = closest_permutation_vector(x)
        assert np.array_equal(np.argsort(p), np.argsort(x))

    def test_theorem_2_3_optimality_small(self):
        """Exhaustively verify the closest-vector property (Theorem 2.3) for small n."""
        rng = np.random.default_rng(0)
        for n in (2, 3, 4, 5):
            values = centered_permutation_values(n)
            for _ in range(10):
                x = rng.standard_normal(n)
                best = closest_permutation_vector(x)
                best_dist = np.linalg.norm(best - x)
                for assignment in itertools.permutations(values):
                    dist = np.linalg.norm(np.asarray(assignment) - x)
                    assert best_dist <= dist + 1e-12

    def test_empty_input(self):
        assert closest_permutation_vector([]).size == 0

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            closest_permutation_vector(np.zeros((2, 2)))

    def test_matches_spectral_ordering_positions(self, grid_8x6):
        result = fiedler_vector(grid_8x6, method="dense")
        closest = closest_permutation_vector(result.eigenvector)
        ordering = spectral_ordering(grid_8x6, method="dense")
        # when the winning direction is nondecreasing and there are no ties,
        # the spectral ordering sorts exactly like the closest permutation vector
        if ordering.metadata["direction"] == "nondecreasing":
            vec = result.eigenvector
            if np.unique(vec).size == vec.size:
                np.testing.assert_array_equal(np.argsort(closest), np.argsort(vec))


class TestAdjacencyOrderings:
    def test_path_natural_is_adjacency(self, path10):
        assert is_adjacency_ordering(path10)

    def test_path_interleaved_is_not(self, path10):
        perm = np.array([0, 2, 4, 6, 8, 1, 3, 5, 7, 9])
        assert not is_adjacency_ordering(path10, perm)

    def test_cm_is_adjacency_rcm_is_not(self, star9, grid_12x9):
        """Section 2.4: 'The Cuthill-McKee ordering is an adjacency ordering,
        but RCM is not an adjacency ordering.'  (RCM can coincidentally be one
        on very symmetric graphs, so the negative half uses the star graph.)"""
        assert is_adjacency_ordering(grid_12x9, cuthill_mckee_ordering(grid_12x9).perm)
        assert is_adjacency_ordering(star9, cuthill_mckee_ordering(star9).perm)
        assert not is_adjacency_ordering(star9, rcm_ordering(star9).perm)

    def test_violations_positions(self, path10):
        perm = np.array([0, 5, 1, 2, 3, 4, 6, 7, 8, 9])
        violations = adjacency_ordering_violations(path10, perm)
        assert 1 in violations.tolist()  # vertex 5 placed second has no numbered neighbour

    def test_star_any_order_starting_center_is_adjacency(self, star9):
        assert is_adjacency_ordering(star9, np.arange(9))

    def test_disconnected_never_adjacency(self, disconnected_pattern):
        assert not is_adjacency_ordering(disconnected_pattern, np.arange(17))


class TestSpectralAdjacencyProperty:
    def test_theorem_2_5_one_sided_property(self, geometric200):
        """Theorem 2.5 consequence: adding positive-entry vertices in increasing
        order after N and Z gives vertices adjacent to the numbered set (exact
        when the eigenvector has no ties, which a generic irregular graph has)."""
        result = fiedler_vector(geometric200, method="dense")
        ordering = spectral_ordering(geometric200, method="dense")
        report = spectral_adjacency_violations(geometric200, result.eigenvector, ordering.perm)
        assert report["total_checked"] > 0
        assert report["positive_side"] == 0
        assert report["negative_side"] == 0

    def test_on_path(self, path10):
        result = fiedler_vector(path10, method="dense")
        ordering = spectral_ordering(path10, method="dense")
        report = spectral_adjacency_violations(path10, result.eigenvector, ordering.perm)
        assert report["positive_side"] == 0
        assert report["negative_side"] == 0
