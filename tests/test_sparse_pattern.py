"""Unit and property tests for repro.sparse.pattern.SymmetricPattern."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from repro.sparse.pattern import SymmetricPattern
from tests.conftest import small_patterns


class TestConstruction:
    def test_from_edges_basic(self):
        p = SymmetricPattern.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert p.n == 4
        assert p.num_edges == 3
        assert p.nnz_offdiag == 6
        assert p.nnz == 10  # 6 off-diagonal + 4 diagonal

    def test_from_edges_ignores_self_loops(self):
        p = SymmetricPattern.from_edges(3, [(0, 0), (0, 1)])
        assert p.num_edges == 1

    def test_from_edges_merges_duplicates(self):
        p = SymmetricPattern.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert p.num_edges == 1

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SymmetricPattern.from_edges(3, [(0, 3)])

    def test_from_scipy_symmetrizes(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 3.0, 1.0]]))
        p = SymmetricPattern.from_scipy(a)
        assert p.has_edge(0, 1) and p.has_edge(1, 0)
        assert p.has_edge(1, 2) and p.has_edge(2, 1)
        assert not p.has_edge(0, 2)

    def test_from_scipy_drops_small_entries_with_tol(self):
        a = sp.csr_matrix(np.array([[1.0, 1e-15], [1e-15, 1.0]]))
        p = SymmetricPattern.from_scipy(a, tol=1e-12)
        assert p.num_edges == 0

    def test_from_scipy_rejects_rectangular(self):
        with pytest.raises(ValueError):
            SymmetricPattern.from_scipy(sp.csr_matrix(np.zeros((2, 3))))

    def test_from_adjacency_lists_roundtrip(self):
        adj = [[1, 2], [0], [0]]
        p = SymmetricPattern.from_adjacency_lists(adj)
        assert p.to_adjacency_lists() == [[1, 2], [0], [0]]

    def test_from_dense_array(self):
        dense = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        p = SymmetricPattern.from_scipy(dense)
        assert p.num_edges == 2

    def test_empty_pattern(self):
        p = SymmetricPattern.empty(5)
        assert p.n == 5
        assert p.num_edges == 0
        assert p.degree().sum() == 0

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            SymmetricPattern(3, [0, 1], [0])


class TestQueries:
    def test_degree_matches_neighbors(self):
        p = SymmetricPattern.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        assert p.degree(0) == 3
        assert p.degree(4) == 1
        np.testing.assert_array_equal(p.degree(), [3, 1, 1, 2, 1])

    def test_neighbors_sorted(self):
        p = SymmetricPattern.from_edges(5, [(2, 4), (2, 0), (2, 3)])
        np.testing.assert_array_equal(p.neighbors(2), [0, 3, 4])

    def test_has_edge_diagonal_always_true(self):
        p = SymmetricPattern.empty(3)
        assert p.has_edge(1, 1)

    def test_max_degree(self):
        p = SymmetricPattern.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert p.max_degree() == 3

    def test_edges_iterates_each_once(self):
        p = SymmetricPattern.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        edges = sorted(p.edges())
        assert edges == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_row_slices_cover_all(self):
        p = SymmetricPattern.from_edges(4, [(0, 1), (2, 3)])
        rows = dict(p.row_slices())
        assert set(rows) == {0, 1, 2, 3}
        assert list(rows[0]) == [1]


class TestConversions:
    def test_to_scipy_pattern_has_unit_diagonal(self):
        p = SymmetricPattern.from_edges(3, [(0, 1)])
        m = p.to_scipy("pattern").toarray()
        np.testing.assert_array_equal(np.diag(m), [1, 1, 1])
        assert m[0, 1] == 1 and m[1, 0] == 1

    def test_to_scipy_laplacian_rows_sum_to_zero(self):
        p = SymmetricPattern.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        lap = p.to_scipy("laplacian").toarray()
        np.testing.assert_allclose(lap.sum(axis=1), 0.0)
        np.testing.assert_allclose(lap, lap.T)

    def test_to_scipy_spd_is_positive_definite(self):
        p = SymmetricPattern.from_edges(5, [(i, i + 1) for i in range(4)])
        m = p.to_scipy("spd").toarray()
        eigenvalues = np.linalg.eigvalsh(m)
        assert eigenvalues.min() > 0

    def test_to_scipy_adjacency_zero_diagonal(self):
        p = SymmetricPattern.from_edges(3, [(0, 2)])
        adj = p.to_scipy("adjacency").toarray()
        np.testing.assert_array_equal(np.diag(adj), 0)

    def test_to_scipy_invalid_mode(self):
        with pytest.raises(ValueError):
            SymmetricPattern.empty(2).to_scipy("bogus")

    def test_to_dense_pattern(self):
        p = SymmetricPattern.from_edges(3, [(0, 1)])
        dense = p.to_dense_pattern()
        assert dense[0, 1] and dense[1, 0]
        assert dense[0, 0] and dense[2, 2]
        assert not dense[0, 2]


class TestOperations:
    def test_permute_identity_is_noop(self):
        p = SymmetricPattern.from_edges(5, [(0, 1), (1, 4), (2, 3)])
        assert p.permute(np.arange(5)) == p

    def test_permute_relabels_edges(self):
        p = SymmetricPattern.from_edges(3, [(0, 1)])
        # new-to-old perm: position 0 <- old 2, 1 <- old 0, 2 <- old 1
        q = p.permute([2, 0, 1])
        # old edge (0,1) -> new labels (1, 2)
        assert q.has_edge(1, 2)
        assert not q.has_edge(0, 1)

    def test_permute_matches_scipy_permutation(self):
        p = SymmetricPattern.from_edges(6, [(0, 1), (1, 2), (2, 5), (3, 4), (0, 5)])
        perm = np.array([3, 1, 4, 0, 5, 2])
        expected = p.to_scipy("adjacency")[perm][:, perm].toarray() > 0
        got = p.permute(perm).to_scipy("adjacency").toarray() > 0
        np.testing.assert_array_equal(got, expected)

    def test_subpattern_induced_edges(self):
        p = SymmetricPattern.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub = p.subpattern([1, 2, 3])
        assert sub.n == 3
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_subpattern_rejects_duplicates(self):
        p = SymmetricPattern.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            p.subpattern([0, 0])

    def test_subpattern_rejects_out_of_range(self):
        p = SymmetricPattern.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            p.subpattern([0, 5])

    def test_copy_is_independent(self):
        p = SymmetricPattern.from_edges(3, [(0, 1)])
        q = p.copy()
        q.indices[0] = 2
        assert p.indices[0] == 1

    def test_equality(self):
        a = SymmetricPattern.from_edges(3, [(0, 1)])
        b = SymmetricPattern.from_edges(3, [(1, 0)])
        c = SymmetricPattern.from_edges(3, [(0, 2)])
        assert a == b
        assert a != c

    def test_validate_passes_on_well_formed(self):
        SymmetricPattern.from_edges(6, [(0, 1), (2, 3), (4, 5)]).validate()

    def test_validate_detects_asymmetry(self):
        p = SymmetricPattern(2, [0, 1, 1], [1])  # edge 0->1 without 1->0
        with pytest.raises(ValueError, match="symmetric"):
            p.validate()

    def test_repr_mentions_size(self):
        assert "n=3" in repr(SymmetricPattern.empty(3))


class TestPatternProperties:
    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_generated_patterns_are_valid(self, pattern):
        pattern.validate()

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_degree_sum_equals_twice_edges(self, pattern):
        assert int(pattern.degree().sum()) == 2 * pattern.num_edges

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_permute_preserves_edge_count(self, pattern):
        rng = np.random.default_rng(0)
        perm = rng.permutation(pattern.n)
        assert pattern.permute(perm).num_edges == pattern.num_edges

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_edges_are_the_upper_triangle_row_by_row(self, pattern):
        expected = [(i, int(j)) for i in range(pattern.n)
                    for j in pattern.neighbors(i) if i < j]
        assert list(pattern.edges()) == expected
        rows, cols = pattern.edge_arrays()
        assert list(zip(rows.tolist(), cols.tolist())) == expected
        assert SymmetricPattern.from_edge_arrays(pattern.n, rows, cols) == pattern

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_double_permutation_roundtrip(self, pattern):
        rng = np.random.default_rng(1)
        perm = rng.permutation(pattern.n)
        # permuting by perm then by its inverse relabelling returns the original
        assert pattern.permute(perm).permute(_inverse_of(perm)) == pattern


def _inverse_of(perm: np.ndarray) -> np.ndarray:
    """The permutation that undoes a new-to-old relabelling when applied after it."""
    perm = np.asarray(perm)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    return inverse
