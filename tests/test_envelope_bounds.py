"""Unit and property tests for the Theorem 2.1 / 2.2 bounds (repro.envelope.bounds)."""

import numpy as np
from hypothesis import given, settings

from repro.collections.generators import airfoil_pattern
from repro.collections.meshes import grid2d_pattern, path_pattern
from repro.envelope.bounds import (
    envelope_size_bounds,
    envelope_work_bounds,
    theorem_2_1_relations,
    two_sum_lower_bound,
)
from repro.envelope.metrics import envelope_size, envelope_work
from repro.envelope.sums import two_sum
from repro.graph.laplacian import laplacian_matrix
from repro.orderings.registry import ORDERING_ALGORITHMS
from tests.conftest import small_connected_patterns, small_patterns


def _lambda_extremes_dense(pattern):
    values = np.linalg.eigvalsh(laplacian_matrix(pattern).toarray())
    return float(values[1]), float(values[-1])


class TestTheorem21Relations:
    def test_holds_on_grid_natural_order(self, grid_12x9):
        relations = theorem_2_1_relations(grid_12x9)
        assert relations.all_hold

    def test_holds_under_random_permutations(self, geometric200, rng):
        for _ in range(5):
            perm = rng.permutation(geometric200.n)
            assert theorem_2_1_relations(geometric200, perm).all_hold

    def test_values_match_metric_functions(self, grid_8x6, rng):
        perm = rng.permutation(grid_8x6.n)
        relations = theorem_2_1_relations(grid_8x6, perm)
        assert relations.envelope_size == envelope_size(grid_8x6, perm)
        assert relations.envelope_work == envelope_work(grid_8x6, perm)
        assert relations.two_sum == two_sum(grid_8x6, perm)
        assert relations.max_degree == grid_8x6.max_degree()

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_property_chain_always_holds(self, pattern):
        rng = np.random.default_rng(0)
        perm = rng.permutation(pattern.n)
        assert theorem_2_1_relations(pattern, perm).all_hold


class TestTwoSumLowerBound:
    def test_path_bound_below_natural_value(self, path10):
        lambda2, _ = _lambda_extremes_dense(path10)
        bound = two_sum_lower_bound(path10, lambda2=lambda2)
        assert bound <= two_sum(path10) + 1e-9

    def test_bound_below_every_ordering(self, geometric200, rng):
        lambda2, _ = _lambda_extremes_dense(geometric200)
        bound = two_sum_lower_bound(geometric200, lambda2=lambda2)
        for _ in range(5):
            perm = rng.permutation(geometric200.n)
            assert bound <= two_sum(geometric200, perm) + 1e-6

    def test_reasonably_tight_on_airfoil_spectral_ordering(self):
        """The paper: "These bounds appear to be reasonably tight"."""
        from repro.orderings.spectral import spectral_ordering

        pattern = airfoil_pattern(350, seed=3)
        lambda2, _ = _lambda_extremes_dense(pattern)
        bound = two_sum_lower_bound(pattern, lambda2=lambda2)
        achieved = two_sum(pattern, spectral_ordering(pattern, method="lanczos").perm)
        assert bound <= achieved
        assert achieved <= 60 * bound  # same order of magnitude

    def test_trivial_sizes(self):
        assert two_sum_lower_bound(path_pattern(1)) == 0.0

    @given(small_connected_patterns(min_n=3))
    @settings(max_examples=20, deadline=None)
    def test_property_bound_below_identity_two_sum(self, pattern):
        lambda2, _ = _lambda_extremes_dense(pattern)
        bound = two_sum_lower_bound(pattern, lambda2=lambda2)
        assert bound <= two_sum(pattern) + 1e-6


class TestEnvelopeBounds:
    def test_work_bounds_bracket_computed_orderings(self, geometric200):
        lambda2, lambda_max = _lambda_extremes_dense(geometric200)
        lower, upper = envelope_work_bounds(geometric200, lambda2, lambda_max)
        assert 0 <= lower <= upper
        for name in ("rcm", "gps", "spectral"):
            ework = envelope_work(geometric200, ORDERING_ALGORITHMS[name](geometric200).perm)
            assert lower <= ework + 1e-6

    def test_size_bounds_bracket_computed_orderings(self, geometric200):
        lambda2, lambda_max = _lambda_extremes_dense(geometric200)
        lower, upper = envelope_size_bounds(geometric200, lambda2, lambda_max)
        assert 0 <= lower <= upper
        for name in ("rcm", "gps", "spectral"):
            esize = envelope_size(geometric200, ORDERING_ALGORITHMS[name](geometric200).perm)
            assert lower <= esize + 1e-6

    def test_complete_graph_bounds(self, k6):
        lambda2, lambda_max = _lambda_extremes_dense(k6)
        lower, upper = envelope_work_bounds(k6, lambda2, lambda_max)
        # for K_n every ordering has the same envelope work
        work = envelope_work(k6)
        assert lower <= work <= upper + 1e-9

    def test_small_sizes_return_zero(self):
        assert envelope_size_bounds(path_pattern(1)) == (0.0, 0.0)
        assert envelope_work_bounds(path_pattern(1)) == (0.0, 0.0)

    def test_bounds_computed_without_supplied_eigenvalues(self):
        pattern = grid2d_pattern(6, 5)
        lower, upper = envelope_work_bounds(pattern)
        assert 0 < lower < upper

    @given(small_connected_patterns(min_n=3))
    @settings(max_examples=20, deadline=None)
    def test_property_lower_bounds_valid(self, pattern):
        lambda2, lambda_max = _lambda_extremes_dense(pattern)
        work_lower, _ = envelope_work_bounds(pattern, lambda2, lambda_max)
        size_lower, _ = envelope_size_bounds(pattern, lambda2, lambda_max)
        rng = np.random.default_rng(4)
        perm = rng.permutation(pattern.n)
        assert work_lower <= envelope_work(pattern, perm) + 1e-6
        assert size_lower <= envelope_size(pattern, perm) + 1e-6
