"""Unit tests for the envelope storage scheme (repro.factor.storage)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.envelope.metrics import envelope_size
from repro.factor.storage import EnvelopeStorage
from repro.orderings.cuthill_mckee import rcm_ordering


def _tridiagonal(n):
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


class TestEnvelopeStorage:
    def test_tridiagonal_layout(self):
        a = _tridiagonal(5)
        storage = EnvelopeStorage.from_matrix(a)
        assert storage.n == 5
        assert storage.envelope_size == 4
        assert storage.storage_size == 9
        np.testing.assert_array_equal(storage.first, [0, 0, 1, 2, 3])

    def test_roundtrip_dense(self, spd_grid_matrix):
        storage = EnvelopeStorage.from_matrix(spd_grid_matrix)
        np.testing.assert_allclose(storage.to_dense(), spd_grid_matrix.toarray())

    def test_get_honours_symmetry_and_envelope(self):
        a = _tridiagonal(4)
        storage = EnvelopeStorage.from_matrix(a)
        assert storage.get(1, 0) == pytest.approx(-1.0)
        assert storage.get(0, 1) == pytest.approx(-1.0)
        assert storage.get(3, 0) == 0.0  # outside the envelope
        with pytest.raises(IndexError):
            storage.get(0, 7)

    def test_envelope_size_matches_metric(self, spd_grid_matrix, grid_8x6):
        storage = EnvelopeStorage.from_matrix(spd_grid_matrix)
        assert storage.envelope_size == envelope_size(grid_8x6)

    def test_permutation_applied(self, spd_grid_matrix, grid_8x6):
        ordering = rcm_ordering(grid_8x6)
        storage = EnvelopeStorage.from_matrix(spd_grid_matrix, perm=ordering.perm)
        expected = spd_grid_matrix[ordering.perm][:, ordering.perm].toarray()
        np.testing.assert_allclose(storage.to_dense(), expected)
        assert storage.envelope_size == envelope_size(grid_8x6, ordering.perm)

    def test_row_view_writable_in_place(self):
        storage = EnvelopeStorage.from_matrix(_tridiagonal(4))
        storage.row(2)[0] = 42.0
        assert storage.get(2, 1) == 42.0

    def test_diagonal(self):
        storage = EnvelopeStorage.from_matrix(_tridiagonal(6))
        np.testing.assert_allclose(storage.diagonal(), 2.0 * np.ones(6))

    def test_copy_independent(self):
        storage = EnvelopeStorage.from_matrix(_tridiagonal(4))
        other = storage.copy()
        other.values[:] = 0.0
        assert storage.values.max() > 0

    def test_explicit_zero_inside_envelope_is_stored(self):
        # a 3x3 matrix with a_20 != 0 forces a_21's slot to exist even if zero
        dense = np.array([[4.0, 0.0, 1.0], [0.0, 4.0, 0.0], [1.0, 0.0, 4.0]])
        storage = EnvelopeStorage.from_matrix(sp.csr_matrix(dense))
        assert storage.get(2, 1) == 0.0
        assert storage.storage_size == 3 + 2  # diagonal + row 2 spans columns 0..2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            EnvelopeStorage(3, np.zeros(2, dtype=int), np.zeros(4, dtype=int), np.zeros(3))

    def test_repr(self):
        storage = EnvelopeStorage.from_matrix(_tridiagonal(3))
        assert "envelope_size=2" in repr(storage)
