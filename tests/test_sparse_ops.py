"""Unit tests for repro.sparse.ops."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.ops import permute_symmetric, structure_from_matrix
from repro.sparse.pattern import SymmetricPattern


class TestStructureFromMatrix:
    def test_pattern_passthrough(self):
        p = SymmetricPattern.from_edges(3, [(0, 1)])
        assert structure_from_matrix(p) is p

    def test_from_sparse(self):
        a = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        p = structure_from_matrix(a)
        assert p.n == 2 and p.num_edges == 1

    def test_from_dense(self):
        p = structure_from_matrix(np.eye(4))
        assert p.num_edges == 0

    def test_tolerance(self):
        a = np.array([[1.0, 1e-13], [1e-13, 1.0]])
        assert structure_from_matrix(a, tol=1e-10).num_edges == 0
        assert structure_from_matrix(a, tol=0.0).num_edges == 1

    def test_structure_is_the_union_with_the_transpose(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        s = structure_from_matrix(a).to_scipy("pattern").toarray()
        np.testing.assert_array_equal(s, [[1.0, 1.0], [1.0, 1.0]])

    def test_symmetric_input_keeps_its_structure(self):
        a = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        s = structure_from_matrix(a).to_scipy("pattern").toarray()
        np.testing.assert_array_equal(s, a != 0)


class TestPermuteSymmetric:
    def test_values_follow_permutation(self):
        a = np.diag([1.0, 2.0, 3.0])
        p = permute_symmetric(a, [2, 0, 1]).toarray()
        np.testing.assert_allclose(np.diag(p), [3.0, 1.0, 2.0])

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(3)
        dense = rng.random((5, 5))
        dense = dense + dense.T
        perm = np.array([4, 2, 0, 1, 3])
        expected = dense[np.ix_(perm, perm)]
        np.testing.assert_allclose(permute_symmetric(dense, perm).toarray(), expected)

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            permute_symmetric(np.eye(3), [0, 0, 1])
