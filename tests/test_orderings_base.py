"""Unit tests for repro.orderings.base."""

import numpy as np
import pytest

from repro.orderings.base import (
    Ordering,
    forward_or_reverse,
    identity_ordering,
    order_by_components,
    random_ordering,
)
from repro.sparse.pattern import SymmetricPattern


class TestOrdering:
    def test_validates_permutation(self):
        with pytest.raises(ValueError):
            Ordering(np.array([0, 0, 1]))

    def test_positions_is_inverse(self):
        ordering = Ordering(np.array([2, 0, 3, 1]))
        positions = ordering.positions
        np.testing.assert_array_equal(positions[ordering.perm], np.arange(4))

    def test_reversed(self):
        ordering = Ordering(np.array([2, 0, 1]), algorithm="cm")
        rev = ordering.reversed()
        np.testing.assert_array_equal(rev.perm, [1, 0, 2])
        assert rev.algorithm == "reverse-cm"

    def test_compose(self):
        a = Ordering(np.array([1, 2, 0]))
        b = Ordering(np.array([2, 0, 1]))
        composed = a.compose(b)
        np.testing.assert_array_equal(composed.perm, b.perm[a.perm])

    def test_compose_size_mismatch(self):
        with pytest.raises(ValueError):
            Ordering(np.arange(3)).compose(Ordering(np.arange(4)))

    def test_apply_to_pattern(self):
        pattern = SymmetricPattern.from_edges(3, [(0, 1)])
        ordering = Ordering(np.array([2, 1, 0]))
        permuted = ordering.apply_to(pattern)
        assert permuted.has_edge(1, 2)

    def test_apply_to_matrix(self, spd_grid_matrix):
        n = spd_grid_matrix.shape[0]
        ordering = random_ordering(n, rng=1)
        permuted = ordering.apply_to(spd_grid_matrix)
        expected = spd_grid_matrix[ordering.perm][:, ordering.perm]
        np.testing.assert_allclose(permuted.toarray(), expected.toarray())

    def test_is_identity(self):
        assert identity_ordering(5).is_identity()
        assert not Ordering(np.array([1, 0])).is_identity()

    def test_len_and_repr(self):
        ordering = identity_ordering(7)
        assert len(ordering) == 7
        assert "n=7" in repr(ordering)

    def test_metadata_default_independent(self):
        a = Ordering(np.arange(2))
        b = Ordering(np.arange(2))
        a.metadata["x"] = 1
        assert "x" not in b.metadata


class TestFactories:
    def test_identity(self):
        np.testing.assert_array_equal(identity_ordering(4).perm, np.arange(4))

    def test_random_is_permutation_and_deterministic(self):
        a = random_ordering(20, rng=3)
        b = random_ordering(20, rng=3)
        np.testing.assert_array_equal(a.perm, b.perm)
        assert sorted(a.perm.tolist()) == list(range(20))


class TestForwardOrReverse:
    def test_tie_keeps_forward(self):
        path = SymmetricPattern.from_edges(5, [(i, i + 1) for i in range(4)])
        forward = np.arange(5)
        assert forward_or_reverse(path, forward) is forward

    def test_smaller_reverse_wins(self):
        # centre first: envelope 1 + 2 + 3 + 4; centre last: 4
        star = SymmetricPattern.from_edges(5, [(0, leaf) for leaf in range(1, 5)])
        np.testing.assert_array_equal(forward_or_reverse(star, np.arange(5)), [4, 3, 2, 1, 0])


class TestOrderByComponents:
    def test_single_component_passthrough(self, path10):
        ordering = order_by_components(path10, lambda sub: np.arange(sub.n)[::-1], "rev")
        np.testing.assert_array_equal(ordering.perm, np.arange(10)[::-1])
        assert ordering.metadata["num_components"] == 1

    def test_components_ordered_independently(self, disconnected_pattern):
        ordering = order_by_components(
            disconnected_pattern, lambda sub: np.arange(sub.n), "identity-per-component"
        )
        assert ordering.metadata["num_components"] == 3
        # the per-component identity keeps original vertex order within each component
        np.testing.assert_array_equal(ordering.perm, np.arange(17))

    def test_component_ordering_is_applied_locally(self, disconnected_pattern):
        ordering = order_by_components(
            disconnected_pattern, lambda sub: np.arange(sub.n)[::-1], "rev"
        )
        # first component (vertices 0..7) reversed, then second reversed, then the singleton
        expected = list(range(7, -1, -1)) + list(range(15, 7, -1)) + [16]
        np.testing.assert_array_equal(ordering.perm, expected)

    def test_result_is_valid_permutation(self, disconnected_pattern):
        ordering = order_by_components(
            disconnected_pattern, lambda sub: np.random.default_rng(0).permutation(sub.n), "rand"
        )
        assert sorted(ordering.perm.tolist()) == list(range(17))

    def test_empty_pattern(self):
        ordering = order_by_components(SymmetricPattern.empty(0), lambda sub: np.arange(sub.n), "x")
        assert ordering.n == 0

    def test_invalid_component_ordering_rejected(self, path10):
        with pytest.raises(ValueError):
            order_by_components(path10, lambda sub: np.zeros(sub.n, dtype=int), "broken")
