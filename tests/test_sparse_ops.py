"""Unit tests for repro.sparse.ops."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.ops import permute_symmetric, structure_from_matrix, symmetrize
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


class TestSymmetrize:
    def test_or_mode_unions_patterns(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        s = symmetrize(a, mode="or").toarray()
        assert s[0, 1] == pytest.approx(1.0)
        assert s[1, 0] == pytest.approx(1.0)
        np.testing.assert_allclose(s, s.T)

    def test_and_mode_intersects_patterns(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [4.0, 1.0, 5.0], [0.0, 0.0, 1.0]]))
        s = symmetrize(a, mode="and").toarray()
        assert s[0, 1] == pytest.approx(3.0)  # (2+4)/2, present in both patterns
        assert s[1, 2] == 0.0  # only one triangle had the entry
        np.testing.assert_allclose(s, s.T)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            symmetrize(np.eye(2), mode="xor")

    def test_symmetric_input_unchanged(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(symmetrize(a).toarray(), a)


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
