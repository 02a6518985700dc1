"""Unit and property tests for the envelope parameters (repro.envelope.metrics)."""

import numpy as np
from hypothesis import given, settings

from repro.collections.meshes import grid2d_pattern
from repro.envelope.metrics import (
    bandwidth,
    envelope_size,
    envelope_statistics,
    envelope_work,
    first_nonzero_columns,
    frontwidths,
    row_widths,
)
from repro.sparse.pattern import SymmetricPattern
from tests.conftest import small_patterns


def _reference_metrics(pattern, perm=None):
    """Brute-force envelope parameters from the dense permuted structure."""
    dense = pattern.to_dense_pattern()
    if perm is not None:
        perm = np.asarray(perm)
        dense = dense[np.ix_(perm, perm)]
    n = dense.shape[0]
    widths = np.zeros(n, dtype=int)
    for i in range(n):
        nz = np.flatnonzero(dense[i, : i + 1])
        widths[i] = i - nz[0] if nz.size else 0
    return widths


class TestRowWidthsAndFirsts:
    def test_path_natural_order(self, path10):
        widths = row_widths(path10)
        np.testing.assert_array_equal(widths, [0] + [1] * 9)
        firsts = first_nonzero_columns(path10)
        np.testing.assert_array_equal(firsts, [0] + list(range(9)))

    def test_diagonal_matrix_zero_widths(self):
        p = SymmetricPattern.empty(6)
        np.testing.assert_array_equal(row_widths(p), np.zeros(6, dtype=int))

    def test_star_natural_order(self, star9):
        # centre is vertex 0; every leaf row i has its first nonzero in column 0
        widths = row_widths(star9)
        np.testing.assert_array_equal(widths, np.arange(9))

    def test_matches_bruteforce_with_permutation(self, grid_8x6, rng):
        perm = rng.permutation(grid_8x6.n)
        np.testing.assert_array_equal(
            row_widths(grid_8x6, perm), _reference_metrics(grid_8x6, perm)
        )

    def test_first_nonzero_at_most_row_index(self, geometric200, rng):
        perm = rng.permutation(geometric200.n)
        firsts = first_nonzero_columns(geometric200, perm)
        assert np.all(firsts <= np.arange(geometric200.n))


class TestScalarMetrics:
    def test_path_values(self, path10):
        assert envelope_size(path10) == 9
        assert envelope_work(path10) == 9
        assert bandwidth(path10) == 1

    def test_complete_graph_any_order_same(self, k6):
        expected = sum(range(6))  # 0+1+2+3+4+5
        assert envelope_size(k6) == expected
        perm = np.array([3, 5, 0, 2, 4, 1])
        assert envelope_size(k6, perm) == expected

    def test_star_center_first_vs_center_last(self, star9):
        # centre first (natural): row i has width i -> Esize = 36
        assert envelope_size(star9) == 36
        # centre last: every earlier row is a lone diagonal, centre row spans all
        centre_last = np.array(list(range(1, 9)) + [0])
        assert envelope_size(star9, centre_last) == 8
        assert bandwidth(star9, centre_last) == 8

    def test_grid_natural_bandwidth(self):
        grid = grid2d_pattern(7, 4)  # index = i*4 + j; neighbours differ by 4 or 1
        assert bandwidth(grid) == 4

    def test_envelope_size_not_reversal_invariant_in_general(self, star9):
        # Reversing an ordering does NOT preserve the envelope size in general
        # (that is why RCM reverses CM): the star graph is the classic example.
        centre_last = np.array(list(range(1, 9)) + [0])
        assert envelope_size(star9, centre_last) == 8
        assert envelope_size(star9, centre_last[::-1]) == 36

    def test_bandwidth_reversal_invariance(self, geometric200, rng):
        perm = rng.permutation(geometric200.n)
        assert bandwidth(geometric200, perm) == bandwidth(geometric200, perm[::-1])

    def test_envelope_work_ge_envelope_size(self, geometric200):
        assert envelope_work(geometric200) >= envelope_size(geometric200)


class TestFrontwidths:
    def test_sum_equals_envelope_size(self, grid_12x9, rng):
        perm = rng.permutation(grid_12x9.n)
        fronts = frontwidths(grid_12x9, perm)
        assert fronts.sum() == envelope_size(grid_12x9, perm)

    def test_path_fronts_are_one(self, path10):
        fronts = frontwidths(path10)
        np.testing.assert_array_equal(fronts, [1] * 9 + [0])

    def test_last_front_is_zero(self, geometric200):
        assert frontwidths(geometric200)[-1] == 0

    def test_matches_bruteforce(self, grid_8x6, rng):
        perm = rng.permutation(grid_8x6.n)
        positions = np.empty(grid_8x6.n, dtype=int)
        positions[perm] = np.arange(grid_8x6.n)
        fronts = frontwidths(grid_8x6, perm)
        for j in (1, 5, 17, grid_8x6.n):
            v_j = set(perm[:j].tolist())
            adj = {
                int(w)
                for v in v_j
                for w in grid_8x6.neighbors(v)
                if int(w) not in v_j
            }
            assert fronts[j - 1] == len(adj)


class TestEnvelopeStatistics:
    def test_bundle_consistent_with_scalars(self, geometric200, rng):
        perm = rng.permutation(geometric200.n)
        stats = envelope_statistics(geometric200, perm)
        assert stats.envelope_size == envelope_size(geometric200, perm)
        assert stats.envelope_work == envelope_work(geometric200, perm)
        assert stats.bandwidth == bandwidth(geometric200, perm)
        assert stats.n == geometric200.n
        assert stats.nnz == geometric200.nnz
        assert stats.max_frontwidth == int(frontwidths(geometric200, perm).max())

    def test_as_dict_round_trip(self, path10):
        d = envelope_statistics(path10).as_dict()
        assert d["envelope_size"] == 9
        assert set(d) >= {"n", "nnz", "bandwidth", "envelope_size", "envelope_work"}


class TestMetricProperties:
    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_row_widths_match_bruteforce(self, pattern):
        rng = np.random.default_rng(0)
        perm = rng.permutation(pattern.n)
        np.testing.assert_array_equal(
            row_widths(pattern, perm), _reference_metrics(pattern, perm)
        )

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_frontwidth_identity(self, pattern):
        rng = np.random.default_rng(1)
        perm = rng.permutation(pattern.n)
        assert frontwidths(pattern, perm).sum() == envelope_size(pattern, perm)

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_bandwidth_le_envelope_le_work_plus(self, pattern):
        esize = envelope_size(pattern)
        assert bandwidth(pattern) <= esize
        assert esize <= envelope_work(pattern) + pattern.n  # r_i <= r_i^2 except r_i in {0,1}
