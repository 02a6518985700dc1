"""Unit tests for the multilevel Fiedler solver (repro.eigen.multilevel)."""

import numpy as np
import pytest

from repro.collections.generators import airfoil_pattern, random_geometric_pattern
from repro.collections.meshes import grid2d_pattern, path_pattern
from repro.eigen.multilevel import multilevel_fiedler
from repro.graph.laplacian import laplacian_matrix


def _dense_lambda2(pattern):
    return float(np.linalg.eigvalsh(laplacian_matrix(pattern).toarray())[1])


class TestMultilevelFiedler:
    def test_small_graph_no_contraction(self, grid_8x6):
        result = multilevel_fiedler(grid_8x6, coarsest_size=100)
        assert result.levels == 0
        assert result.eigenvalue == pytest.approx(_dense_lambda2(grid_8x6), rel=1e-5)

    def test_large_grid_uses_hierarchy(self):
        pattern = grid2d_pattern(20, 20)
        result = multilevel_fiedler(pattern, coarsest_size=50)
        assert result.levels >= 1
        assert result.level_sizes[0] == 400
        assert result.level_sizes[-1] <= result.level_sizes[0]
        assert result.eigenvalue == pytest.approx(_dense_lambda2(pattern), rel=1e-4)

    def test_airfoil_matches_dense(self):
        pattern = airfoil_pattern(350, seed=1)
        result = multilevel_fiedler(pattern, coarsest_size=60)
        assert result.converged
        assert result.eigenvalue == pytest.approx(_dense_lambda2(pattern), rel=1e-4)

    def test_geometric_graph_lands_in_low_cluster(self):
        # Random geometric graphs have tightly clustered low Laplacian
        # eigenvalues; the multilevel solver is only guaranteed to land in the
        # low cluster there (which is what the ordering application needs).
        pattern = random_geometric_pattern(300, seed=4)
        result = multilevel_fiedler(pattern, coarsest_size=40)
        values = np.linalg.eigvalsh(laplacian_matrix(pattern).toarray())
        assert values[1] - 1e-8 <= result.eigenvalue <= values[4] + 1e-8
        assert result.eigenvalue <= 2.0 * values[1]

    def test_residual_is_small(self):
        pattern = grid2d_pattern(18, 14)
        lap = laplacian_matrix(pattern)
        result = multilevel_fiedler(pattern, coarsest_size=40, tol=1e-9)
        residual = np.linalg.norm(lap @ result.eigenvector - result.eigenvalue * result.eigenvector)
        assert residual < 1e-6

    def test_vector_is_deflated_and_normalized(self):
        pattern = grid2d_pattern(15, 15)
        result = multilevel_fiedler(pattern, coarsest_size=30)
        assert abs(result.eigenvector.sum()) < 1e-6
        assert np.linalg.norm(result.eigenvector) == pytest.approx(1.0, abs=1e-8)

    def test_level_sizes_decreasing(self):
        pattern = random_geometric_pattern(350, seed=6)
        result = multilevel_fiedler(pattern, coarsest_size=40)
        sizes = result.level_sizes
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_refinement_iterations_counted(self):
        pattern = grid2d_pattern(20, 18)
        result = multilevel_fiedler(pattern, coarsest_size=40)
        if result.levels:
            assert result.refinement_iterations >= 0

    def test_deterministic_given_seed(self):
        pattern = random_geometric_pattern(250, seed=8)
        a = multilevel_fiedler(pattern, coarsest_size=50, rng=3)
        b = multilevel_fiedler(pattern, coarsest_size=50, rng=3)
        assert a.eigenvalue == pytest.approx(b.eigenvalue, rel=1e-12)

    def test_path_graph(self):
        pattern = path_pattern(150)
        result = multilevel_fiedler(pattern, coarsest_size=20)
        expected = 2.0 - 2.0 * np.cos(np.pi / 150)
        assert result.eigenvalue == pytest.approx(expected, rel=1e-3)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            multilevel_fiedler(path_pattern(1))
