"""Unit tests for the multilevel coarsener (repro.graph.coarsen)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.collections.generators import random_geometric_pattern
from repro.collections.meshes import grid2d_pattern
import repro.graph.coarsen as coarsen
from repro.graph.coarsen import (
    coarsen_graph,
    coarsening_hierarchy,
    interpolate_block,
    maximal_independent_set,
)
from repro.graph.components import connected_components, is_connected
from tests.conftest import small_connected_patterns, small_patterns


def _assert_independent_and_maximal(pattern, mis):
    selected = np.zeros(pattern.n, dtype=bool)
    selected[mis] = True
    # independence: no edge inside the set
    for u, v in pattern.edges():
        assert not (selected[u] and selected[v])
    # maximality: every unselected vertex has a selected neighbour
    for v in range(pattern.n):
        if not selected[v]:
            assert selected[pattern.neighbors(v)].any()


class TestMaximalIndependentSet:
    def test_path(self, path10):
        _assert_independent_and_maximal(path10, maximal_independent_set(path10))

    def test_star_contains_all_leaves_or_center(self, star9):
        mis = maximal_independent_set(star9)
        _assert_independent_and_maximal(star9, mis)

    def test_grid(self, grid_12x9):
        _assert_independent_and_maximal(grid_12x9, maximal_independent_set(grid_12x9))

    def test_valid_under_relabelling(self, geometric200):
        n = geometric200.n
        for perm in (np.arange(n)[::-1], np.random.default_rng(3).permutation(n)):
            relabelled = geometric200.permute(perm)
            _assert_independent_and_maximal(relabelled, maximal_independent_set(relabelled))

    def test_empty_graph_selects_everything(self):
        from repro.sparse.pattern import SymmetricPattern

        mis = maximal_independent_set(SymmetricPattern.empty(5))
        np.testing.assert_array_equal(mis, np.arange(5))

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_property_independent_and_maximal(self, pattern):
        _assert_independent_and_maximal(pattern, maximal_independent_set(pattern))


class TestCoarsenGraph:
    def test_domains_partition_vertices(self, grid_12x9):
        level = coarsen_graph(grid_12x9)
        assert level.domain_of.min() >= 0
        assert level.domain_of.max() < level.coarse_pattern.n
        # every coarse vertex owns its own seed
        np.testing.assert_array_equal(
            level.domain_of[level.coarse_vertices],
            np.arange(level.coarse_pattern.n),
        )

    def test_coarse_graph_smaller(self, geometric200):
        level = coarsen_graph(geometric200)
        assert 0 < level.coarse_pattern.n < geometric200.n

    def test_connectivity_preserved(self, geometric200):
        assert is_connected(geometric200)
        level = coarsen_graph(geometric200)
        assert is_connected(level.coarse_pattern)

    def test_component_count_preserved(self, disconnected_pattern):
        before, _ = connected_components(disconnected_pattern)
        level = coarsen_graph(disconnected_pattern)
        after, _ = connected_components(level.coarse_pattern)
        assert after == before

    def test_coarse_edges_come_from_fine_edges(self, grid_8x6):
        level = coarsen_graph(grid_8x6)
        dom = level.domain_of
        fine_cross = {
            (min(dom[u], dom[v]), max(dom[u], dom[v]))
            for u, v in grid_8x6.edges()
            if dom[u] != dom[v]
        }
        coarse_edges = set(level.coarse_pattern.edges())
        assert coarse_edges == fine_cross

    @given(small_connected_patterns(min_n=3))
    @settings(max_examples=30, deadline=None)
    def test_property_connected_stays_connected(self, pattern):
        level = coarsen_graph(pattern)
        assert is_connected(level.coarse_pattern)


class TestCoarseningHierarchy:
    def test_reaches_target_size(self):
        big = grid2d_pattern(25, 25)
        hierarchy = coarsening_hierarchy(big, coarsest_size=50)
        assert hierarchy
        assert hierarchy[-1].coarse_pattern.n <= 50 or len(hierarchy) == 50

    def test_small_graph_needs_no_levels(self, path10):
        assert coarsening_hierarchy(path10, coarsest_size=100) == []

    def test_sizes_strictly_decrease(self):
        big = random_geometric_pattern(400, seed=11)
        hierarchy = coarsening_hierarchy(big, coarsest_size=30)
        sizes = [big.n] + [lvl.coarse_pattern.n for lvl in hierarchy]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_max_levels_respected(self, monkeypatch):
        monkeypatch.setattr(coarsen, "MAX_LEVELS", 3)
        big = grid2d_pattern(20, 20)
        hierarchy = coarsening_hierarchy(big, coarsest_size=2)
        assert len(hierarchy) == 3


class TestInterpolateBlock:
    def test_piecewise_constant(self, grid_8x6):
        level = coarsen_graph(grid_8x6)
        for k in (1, 3):
            coarse = np.arange(level.coarse_pattern.n * k, dtype=float).reshape(-1, k)
            fine = interpolate_block(level, coarse)
            assert fine.shape == (grid_8x6.n, k)
            np.testing.assert_allclose(fine, coarse[level.domain_of])

    def test_seed_vertices_keep_their_value(self, geometric200):
        level = coarsen_graph(geometric200)
        rng = np.random.default_rng(0)
        for k in (1, 3):
            coarse = rng.standard_normal((level.coarse_pattern.n, k))
            fine = interpolate_block(level, coarse)
            np.testing.assert_allclose(fine[level.coarse_vertices], coarse)

    def test_shape_mismatch(self, grid_8x6):
        level = coarsen_graph(grid_8x6)
        for k in (1, 3):
            with pytest.raises(ValueError):
                interpolate_block(level, np.ones((level.coarse_pattern.n + 1, k)))
