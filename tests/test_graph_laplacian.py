"""Unit tests for repro.graph.laplacian."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.collections.meshes import cycle_pattern, path_pattern
from repro.graph.laplacian import (
    adjacency_matrix,
    laplacian_matrix,
    laplacian_quadratic_form,
)
from repro.sparse.pattern import SymmetricPattern
from tests.conftest import small_patterns


class TestAdjacencyMatrix:
    def test_symmetric_zero_diagonal(self, grid_8x6):
        b = adjacency_matrix(grid_8x6).toarray()
        np.testing.assert_allclose(b, b.T)
        np.testing.assert_allclose(np.diag(b), 0.0)

    def test_entries_are_unit(self, path10):
        b = adjacency_matrix(path10).toarray()
        assert set(np.unique(b)) <= {0.0, 1.0}

    def test_custom_weights(self):
        p = SymmetricPattern.from_edges(2, [(0, 1)])
        b = adjacency_matrix(p, weights=[2.5, 2.5]).toarray()
        assert b[0, 1] == 2.5

    def test_weight_shape_checked(self):
        p = SymmetricPattern.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            adjacency_matrix(p, weights=[1.0])


class TestLaplacianMatrix:
    def test_matches_paper_definition(self, grid_8x6):
        lap = laplacian_matrix(grid_8x6).toarray()
        adj = adjacency_matrix(grid_8x6).toarray()
        degrees = adj.sum(axis=1)
        np.testing.assert_allclose(lap, np.diag(degrees) - adj)

    def test_rows_sum_to_zero(self, geometric200):
        lap = laplacian_matrix(geometric200)
        np.testing.assert_allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0, atol=1e-12)

    def test_positive_semidefinite(self, cycle12):
        values = np.linalg.eigvalsh(laplacian_matrix(cycle12).toarray())
        assert values.min() > -1e-10

    def test_constant_vector_in_null_space(self, grid_8x6):
        lap = laplacian_matrix(grid_8x6)
        np.testing.assert_allclose(lap @ np.ones(grid_8x6.n), 0.0, atol=1e-12)

    def test_second_eigenvalue_positive_iff_connected(self, path10, disconnected_pattern):
        lap_connected = laplacian_matrix(path10).toarray()
        lap_disconnected = laplacian_matrix(disconnected_pattern).toarray()
        assert np.linalg.eigvalsh(lap_connected)[1] > 1e-10
        assert np.linalg.eigvalsh(lap_disconnected)[1] < 1e-10

    def test_path_eigenvalues_closed_form(self):
        # Laplacian eigenvalues of P_n are 2 - 2 cos(pi k / n), k = 0..n-1.
        n = 8
        lap = laplacian_matrix(path_pattern(n)).toarray()
        got = np.sort(np.linalg.eigvalsh(lap))
        expected = np.sort(2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n))
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_cycle_eigenvalues_closed_form(self):
        # Laplacian eigenvalues of C_n are 2 - 2 cos(2 pi k / n).
        n = 9
        lap = laplacian_matrix(cycle_pattern(n)).toarray()
        got = np.sort(np.linalg.eigvalsh(lap))
        expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_matches_networkx(self, geometric200):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(geometric200.n))
        graph.add_edges_from(geometric200.edges())
        reference = nx.laplacian_matrix(graph, nodelist=range(geometric200.n)).toarray()
        np.testing.assert_allclose(laplacian_matrix(geometric200).toarray(), reference)


class TestQuadraticForm:
    def test_matches_matrix_product(self, grid_8x6, rng):
        x = rng.standard_normal(grid_8x6.n)
        lap = laplacian_matrix(grid_8x6)
        np.testing.assert_allclose(
            laplacian_quadratic_form(grid_8x6, x), float(x @ (lap @ x)), rtol=1e-12
        )

    def test_zero_on_constant_vectors(self, cycle12):
        assert laplacian_quadratic_form(cycle12, np.full(12, 3.7)) == pytest.approx(0.0)

    def test_shape_mismatch(self, path10):
        with pytest.raises(ValueError):
            laplacian_quadratic_form(path10, np.ones(3))

    @given(small_patterns(min_n=2))
    @settings(max_examples=30, deadline=None)
    def test_always_nonnegative(self, pattern):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(pattern.n)
        assert laplacian_quadratic_form(pattern, x) >= -1e-12
