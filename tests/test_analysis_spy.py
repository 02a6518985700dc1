"""Unit tests for the spy-plot / band-profile reporting (repro.analysis.spy)."""

import numpy as np
import pytest

from repro.analysis.spy import ascii_spy, band_profile, density_grid
from repro.collections.generators import airfoil_pattern
from repro.collections.meshes import path_pattern
from repro.envelope.metrics import bandwidth, envelope_size
from repro.orderings.cuthill_mckee import rcm_ordering
from repro.orderings.spectral import spectral_ordering
from repro.sparse.pattern import SymmetricPattern


class TestDensityGrid:
    def test_total_count_equals_nnz(self, grid_12x9, rng):
        grid = density_grid(grid_12x9, resolution=16)
        assert grid.sum() == grid_12x9.nnz
        perm = rng.permutation(grid_12x9.n)
        assert density_grid(grid_12x9, perm, resolution=16).sum() == grid_12x9.nnz

    def test_symmetric(self, geometric200):
        grid = density_grid(geometric200, resolution=20)
        np.testing.assert_array_equal(grid, grid.T)

    def test_diagonal_blocks_populated(self, path10):
        grid = density_grid(path10, resolution=5)
        assert np.all(np.diag(grid) > 0)

    def test_banded_matrix_concentrates_near_diagonal(self, path10):
        grid = density_grid(path10, resolution=10)
        off_band = grid[np.abs(np.subtract.outer(range(10), range(10))) > 1]
        assert off_band.sum() == 0

    def test_resolution_capped_at_n(self):
        grid = density_grid(path_pattern(3), resolution=64)
        assert grid.shape == (3, 3)


class TestAsciiSpy:
    def test_dimensions(self, grid_12x9):
        art = ascii_spy(grid_12x9, resolution=24)
        lines = art.splitlines()
        assert len(lines) == 24
        assert all(len(line) == 24 for line in lines)

    def test_empty_matrix_blank(self):
        art = ascii_spy(SymmetricPattern.empty(5), resolution=5)
        # only the diagonal is nonzero: corners must be blank
        lines = art.splitlines()
        assert lines[0][-1] == " "
        assert lines[-1][0] == " "

    def test_band_structure_visible(self, path10):
        art = ascii_spy(path10, resolution=10)
        lines = art.splitlines()
        assert lines[0][0] != " "      # diagonal populated
        assert lines[0][-1] == " "     # far off-diagonal empty

    def test_spectral_vs_rcm_render_differently(self):
        """The Figure 4.2-4.5 message: the reorderings look different."""
        pattern = airfoil_pattern(400, seed=4)
        spec = ascii_spy(pattern, spectral_ordering(pattern, method="lanczos").perm, resolution=24)
        rcm = ascii_spy(pattern, rcm_ordering(pattern).perm, resolution=24)
        assert spec != rcm


class TestBandProfile:
    def test_consistent_with_metrics(self, geometric200, rng):
        perm = rng.permutation(geometric200.n)
        profile = band_profile(geometric200, perm)
        assert profile["bandwidth"] == bandwidth(geometric200, perm)
        assert profile["envelope_size"] == envelope_size(geometric200, perm)
        assert profile["n"] == geometric200.n
        assert 0 <= profile["median_row_width"] <= profile["p95_row_width"] <= profile["bandwidth"]

    def test_spectral_vs_local_band_shape(self):
        """Numerical form of Figures 4.1-4.5: RCM gives a narrow band
        (small bandwidth); the spectral ordering gives a smaller envelope on
        unstructured meshes even when its bandwidth is larger."""
        pattern = airfoil_pattern(500, seed=4)
        spec = band_profile(pattern, spectral_ordering(pattern, method="lanczos").perm)
        rcm = band_profile(pattern, rcm_ordering(pattern).perm)
        assert spec["envelope_size"] < rcm["envelope_size"]
        assert spec["bandwidth"] >= rcm["bandwidth"] * 0.5  # usually larger, never tiny

    def test_mean_row_width_relation(self, path10):
        profile = band_profile(path10)
        assert profile["mean_row_width"] == pytest.approx(0.9)  # 9 widths of 1 over 10 rows
