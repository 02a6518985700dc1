"""Unit tests for the multilevel coarsener (repro.graph.coarsen)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro.collections.generators import random_geometric_pattern
from repro.collections.meshes import grid2d_pattern, star_pattern
from repro.collections.registry import load_problem
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


def _hierarchy_and_contractions(pattern, coarsest_size):
    """The hierarchy of *pattern* and the number of contractions it made."""
    with mock.patch.object(
        coarsen, "coarsen_graph", wraps=coarsen.coarsen_graph
    ) as contract:
        hierarchy = coarsening_hierarchy(pattern, coarsest_size=coarsest_size)
    return hierarchy, contract.call_count


def _assert_levels_halve(pattern, coarsest_size):
    """Every level but the last halves its graph, and the hierarchy ends at
    ``coarsest_size``, at the contraction cap, or where a contraction stopped
    shrinking the graph."""
    hierarchy, contractions = _hierarchy_and_contractions(pattern, coarsest_size)
    for level in hierarchy[:-1]:
        assert 2 * level.coarse_pattern.n <= level.fine_n
    end = hierarchy[-1].coarse_pattern if hierarchy else pattern
    assert (
        end.n <= coarsest_size
        or contractions == coarsen.MAX_LEVELS
        or coarsen_graph(end).coarse_pattern.n >= end.n
    )


def _rmat_pattern():
    """A hub graph (n = 2,966) whose first contraction keeps more than half."""
    pattern, _spec = load_problem("RANDOM/RMAT", 0.005)
    return pattern


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
        assert hierarchy[-1].coarse_pattern.n <= 50

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
        # A star loses one vertex per contraction, so the cap binds on
        # contractions: all three fold into one level.
        star = star_pattern(40)
        hierarchy, contractions = _hierarchy_and_contractions(star, 2)
        assert contractions == 3
        assert [(lvl.fine_n, lvl.coarse_pattern.n) for lvl in hierarchy] == [(40, 37)]

    @pytest.mark.parametrize("name", ["grid", "geometric", "star", "rmat", "ba"])
    def test_every_level_but_the_last_halves(self, name):
        pattern = {
            "grid": lambda: grid2d_pattern(25, 25),
            "geometric": lambda: random_geometric_pattern(400, seed=11),
            "star": lambda: star_pattern(300),
            "rmat": _rmat_pattern,
            "ba": lambda: load_problem("RANDOM/BA", 0.005)[0],
        }[name]()
        _assert_levels_halve(pattern, coarsest_size=30)

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_property_levels_halve(self, pattern):
        _assert_levels_halve(pattern, coarsest_size=3)

    def test_hub_graph_folds_contractions(self):
        pattern = _rmat_pattern()
        assert 2 * coarsen_graph(pattern).coarse_pattern.n > pattern.n
        hierarchy, contractions = _hierarchy_and_contractions(pattern, 100)
        assert 0 < len(hierarchy) < contractions

    def test_folded_level_is_a_coarse_level(self):
        pattern = _rmat_pattern()
        level = coarsening_hierarchy(pattern)[0]
        steps = [coarsen_graph(pattern)]
        while 2 * steps[-1].coarse_pattern.n > pattern.n:
            steps.append(coarsen_graph(steps[-1].coarse_pattern))
        assert len(steps) > 1
        n_coarse = level.coarse_pattern.n
        assert level.fine_n == pattern.n
        assert n_coarse == steps[-1].coarse_pattern.n
        np.testing.assert_array_equal(
            level.domain_of[level.coarse_vertices], np.arange(n_coarse)
        )
        # its coarse edges are exactly the fine edges that cross domains
        rows, cols = pattern.edge_arrays()
        cu, cv = level.domain_of[rows], level.domain_of[cols]
        cross = cu != cv
        fine_cross = set(zip(np.minimum(cu, cv)[cross].tolist(),
                             np.maximum(cu, cv)[cross].tolist()))
        assert set(level.coarse_pattern.edges()) == fine_cross
        # interpolating through it = through its contractions one at a time
        coarse = np.random.default_rng(5).standard_normal((n_coarse, 3))
        stepwise = coarse
        for step in reversed(steps):
            stepwise = interpolate_block(step, stepwise)
        np.testing.assert_array_equal(interpolate_block(level, coarse), stepwise)


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
