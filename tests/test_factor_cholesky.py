"""Unit tests for the envelope Cholesky factorization (repro.factor.cholesky)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.collections.generators import random_geometric_pattern
from repro.envelope.metrics import row_widths
from repro.factor.cholesky import envelope_cholesky, estimate_factor_work
from repro.factor.storage import EnvelopeStorage
from repro.orderings.cuthill_mckee import rcm_ordering
from repro.orderings.spectral import spectral_ordering


def _spd_from_pattern(pattern):
    return pattern.to_scipy("spd")


class TestEnvelopeCholesky:
    def test_tridiagonal_exact(self):
        n = 8
        main = 2.0 * np.ones(n)
        off = -1.0 * np.ones(n - 1)
        a = sp.diags([off, main, off], [-1, 0, 1], format="csr")
        chol = envelope_cholesky(a)
        l_dense = np.tril(chol.factor.to_dense(symmetric=False))
        np.testing.assert_allclose(l_dense @ l_dense.T, a.toarray(), atol=1e-12)

    def test_matches_numpy_cholesky(self, spd_grid_matrix):
        chol = envelope_cholesky(spd_grid_matrix)
        expected = np.linalg.cholesky(spd_grid_matrix.toarray())
        got = np.tril(chol.factor.to_dense(symmetric=False))
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_factor_stays_inside_envelope(self, grid_8x6, spd_grid_matrix):
        """No fill outside the envelope (George & Liu Thm 4.1.1)."""
        chol = envelope_cholesky(spd_grid_matrix)
        np.testing.assert_array_equal(
            chol.factor.first, EnvelopeStorage.from_matrix(spd_grid_matrix).first
        )

    def test_solve_recovers_solution(self, spd_grid_matrix, rng):
        x_true = rng.standard_normal(spd_grid_matrix.shape[0])
        b = spd_grid_matrix @ x_true
        chol = envelope_cholesky(spd_grid_matrix)
        np.testing.assert_allclose(chol.solve(b), x_true, atol=1e-8)

    def test_forward_backward_consistency(self, spd_grid_matrix, rng):
        chol = envelope_cholesky(spd_grid_matrix)
        b = rng.standard_normal(spd_grid_matrix.shape[0])
        y = chol.forward_substitution(b)
        x = chol.backward_substitution(y)
        np.testing.assert_allclose(spd_grid_matrix @ x, b, atol=1e-8)

    def test_log_determinant(self, spd_grid_matrix):
        chol = envelope_cholesky(spd_grid_matrix)
        sign, expected = np.linalg.slogdet(spd_grid_matrix.toarray())
        assert sign > 0
        assert chol.log_determinant() == pytest.approx(expected, rel=1e-10)

    def test_permutation_argument(self, grid_8x6, spd_grid_matrix, rng):
        ordering = rcm_ordering(grid_8x6)
        chol = envelope_cholesky(spd_grid_matrix, perm=ordering.perm)
        x_true = rng.standard_normal(grid_8x6.n)
        permuted = spd_grid_matrix[ordering.perm][:, ordering.perm]
        b = permuted @ x_true
        np.testing.assert_allclose(chol.solve(b), x_true, atol=1e-8)

    def test_not_positive_definite_raises(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(np.linalg.LinAlgError):
            envelope_cholesky(a)

    def test_check_false_does_not_raise(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        chol = envelope_cholesky(a, check=False)
        assert np.isfinite(chol.factor.values).all()

    def test_operation_count_positive_and_consistent(self, grid_8x6, spd_grid_matrix):
        chol = envelope_cholesky(spd_grid_matrix)
        widths = row_widths(grid_8x6).astype(float)
        upper_bound = 0.5 * np.sum(widths * (widths + 3.0)) + grid_8x6.n
        assert 0 < chol.operations <= upper_bound + 1e-9

    def test_operations_grow_with_envelope(self):
        """The quadratic cost law behind Table 4.4: more envelope, more work."""
        pattern = random_geometric_pattern(150, seed=12)
        matrix = _spd_from_pattern(pattern)
        good = spectral_ordering(pattern, method="lanczos")
        from repro.orderings.base import random_ordering

        bad = random_ordering(pattern.n, rng=0)
        ops_good = envelope_cholesky(matrix, perm=good.perm).operations
        ops_bad = envelope_cholesky(matrix, perm=bad.perm).operations
        assert ops_good < ops_bad

    def test_accepts_existing_storage(self, spd_grid_matrix):
        storage = EnvelopeStorage.from_matrix(spd_grid_matrix)
        chol = envelope_cholesky(storage)
        # input storage must not be clobbered
        np.testing.assert_allclose(storage.to_dense(), spd_grid_matrix.toarray())
        assert chol.n == storage.n

    def test_rhs_shape_validation(self, spd_grid_matrix):
        chol = envelope_cholesky(spd_grid_matrix)
        with pytest.raises(ValueError):
            chol.solve(np.ones(3))


class TestEstimateFactorWork:
    def test_formula(self, grid_8x6):
        widths = row_widths(grid_8x6).astype(float)
        expected = 0.5 * np.sum(widths * (widths + 3.0))
        assert estimate_factor_work(grid_8x6) == pytest.approx(expected)

    def test_ordering_dependence(self, geometric200):
        natural = estimate_factor_work(geometric200)
        rcm = estimate_factor_work(geometric200, rcm_ordering(geometric200).perm)
        assert rcm < natural
