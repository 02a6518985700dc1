"""Unit tests for repro.graph.peripheral."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings

import repro.graph.peripheral as peripheral
import repro.graph.traversal as traversal
from repro.batch import build_task, clear_problem_cache, execute_task
from repro.collections.meshes import grid2d_pattern, path_pattern, star_pattern
from repro.collections.registry import load_problem
from repro.eigen.workspace import spectral_workspace
from repro.graph.peripheral import (
    pseudo_diameter,
    pseudo_peripheral_node,
    spectral_pseudo_peripheral_node,
)
from repro.graph.traversal import bfs_graph, breadth_first_levels, distance_from
from repro.orderings.cuthill_mckee import rcm_ordering
from repro.reference import breadth_first_levels_reference
from repro.sparse.pattern import SymmetricPattern
from tests.conftest import small_connected_patterns
from tests.test_kernels_reference import _counted_calls, _patch_reference_kernels


class TestPseudoPeripheralNode:
    def test_path_finds_an_endpoint(self, path10):
        node, structure = pseudo_peripheral_node(path10)
        assert node in (0, 9)
        assert structure.height == 9

    def test_star_any_leaf_is_peripheral(self, star9):
        node, structure = pseudo_peripheral_node(star9)
        assert structure.height >= 1

    def test_grid_reaches_a_corner_distance(self):
        grid = grid2d_pattern(7, 11)
        node, structure = pseudo_peripheral_node(grid)
        # eccentricity of a corner of a 7x11 grid is 6 + 10 = 16
        assert structure.height >= 14  # pseudo-peripheral: close to the true diameter

    def test_start_hint_respected(self, path10):
        node, structure = pseudo_peripheral_node(path10, start=5)
        assert structure.height == 9

    def test_returns_structure_rooted_at_node(self, grid_8x6):
        node, structure = pseudo_peripheral_node(grid_8x6)
        reference = breadth_first_levels(grid_8x6, node)
        assert structure.height == reference.height


class TestPseudoDiameter:
    def test_path_endpoints(self, path10):
        u, v, su, sv = pseudo_diameter(path10)
        assert {u, v} == {0, 9}
        assert su.height == 9 and sv.height == 9

    def test_endpoints_are_distant(self):
        grid = grid2d_pattern(9, 5)
        u, v, su, sv = pseudo_diameter(grid)
        dist = distance_from(grid, u)
        true_diameter = 8 + 4
        assert dist[v] >= true_diameter - 2

    def test_distinct_endpoints(self, cycle12):
        u, v, _, _ = pseudo_diameter(cycle12)
        assert u != v


#: A 12-vertex graph on which pseudo_diameter finds a last-level vertex deeper
#: than its pseudo-peripheral node and restarts the search from there.
RESTART = SymmetricPattern.from_edges(12, [
    (1, 0), (2, 0), (3, 1), (4, 3), (5, 0), (6, 1), (7, 2), (8, 7), (9, 4),
    (10, 5), (11, 10), (11, 8), (3, 7)])


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``bfs_graph`` builds, sweeps and ``pseudo_diameter`` calls."""
    calls = {"bfs_graph": 0, "breadth_first_levels": 0, "pseudo_diameter": 0}

    def counting(func):
        def counted(*args, **kwargs):
            calls[func.__name__] += 1
            return func(*args, **kwargs)
        return counted

    build = counting(traversal.bfs_graph)
    monkeypatch.setattr(traversal, "bfs_graph", build)
    monkeypatch.setattr(peripheral, "bfs_graph", build)
    for name in ("breadth_first_levels", "pseudo_diameter"):
        monkeypatch.setattr(peripheral, name, counting(getattr(peripheral, name)))
    return calls


class TestOneGraphPerSearch:
    """Every sweep of one search reads one ``bfs_graph``, built once."""

    def test_pseudo_diameter_builds_once_across_a_restart(self, calls):
        u, v, _, structure_v = pseudo_diameter(RESTART)
        for key in calls:
            calls[key] = 0
        # A copy carries no memoized search, so this call searches cold.
        restarted = peripheral.pseudo_diameter(RESTART.copy())
        assert restarted[:2] == (u, v)
        assert np.array_equal(restarted[3].level_of, structure_v.level_of)
        assert calls["pseudo_diameter"] == 2  # the call and its restart
        assert calls["breadth_first_levels"] > 2
        assert calls["bfs_graph"] == 1

    def test_pseudo_peripheral_node_builds_once(self, calls):
        grid = grid2d_pattern(7, 11)
        peripheral.pseudo_peripheral_node(grid)
        assert calls["breadth_first_levels"] > 1
        assert calls["bfs_graph"] == 1

    def test_a_passed_graph_is_not_rebuilt(self, calls):
        grid = grid2d_pattern(7, 11)
        graph = bfs_graph(grid)
        calls["bfs_graph"] = 0
        peripheral.pseudo_diameter(grid, graph=graph)
        assert calls["bfs_graph"] == 0


class TestSearchMemo:
    """A start-free search runs once per pattern object."""

    def test_second_pseudo_diameter_call_runs_no_sweep(self, calls):
        grid = grid2d_pattern(7, 11)
        first = peripheral.pseudo_diameter(grid)
        assert calls["breadth_first_levels"] > 0
        calls["breadth_first_levels"] = calls["bfs_graph"] = 0
        assert peripheral.pseudo_diameter(grid) is first
        assert calls["breadth_first_levels"] == calls["bfs_graph"] == 0
        info = spectral_workspace(grid).info
        assert (info["diameter_builds"], info["diameter_hits"]) == (1, 1)

    def test_second_pseudo_peripheral_node_call_runs_no_sweep(self, calls):
        grid = grid2d_pattern(7, 11)
        first = peripheral.pseudo_peripheral_node(grid)
        calls["breadth_first_levels"] = calls["bfs_graph"] = 0
        assert peripheral.pseudo_peripheral_node(grid) is first
        assert calls["breadth_first_levels"] == calls["bfs_graph"] == 0
        info = spectral_workspace(grid).info
        assert (info["peripheral_builds"], info["peripheral_hits"]) == (1, 1)

    def test_node_search_after_diameter_search_runs_no_sweep(self, calls):
        grid = grid2d_pattern(7, 11)
        u, _v, structure_u, _sv = peripheral.pseudo_diameter(grid)
        calls["breadth_first_levels"] = 0
        assert peripheral.pseudo_peripheral_node(grid) == (u, structure_u)
        assert calls["breadth_first_levels"] == 0

    def test_memoized_result_equals_a_cold_search(self):
        pattern = RESTART.copy()
        warm = [pseudo_diameter(pattern) for _ in range(2)][-1]
        cold = pseudo_diameter(RESTART.copy())
        assert warm[:2] == cold[:2]
        for a, b in zip(warm[2:], cold[2:]):
            assert np.array_equal(a.level_of, b.level_of)
            assert [level.tolist() for level in a.levels] == [
                level.tolist() for level in b.levels
            ]

    def test_explicit_start_always_searches(self, calls):
        grid = grid2d_pattern(7, 11)
        peripheral.pseudo_diameter(grid)
        peripheral.pseudo_peripheral_node(grid)
        calls["breadth_first_levels"] = 0
        peripheral.pseudo_diameter(grid, start=0)
        swept = calls["breadth_first_levels"]
        assert swept > 0
        peripheral.pseudo_peripheral_node(grid, start=0)
        assert calls["breadth_first_levels"] > swept

    def test_rcm_cell_after_gk_cell_runs_no_sweep(self, calls):
        clear_problem_cache()
        try:
            gk = execute_task(build_task("BCSSTK13", "gk", scale=0.05))
            calls["breadth_first_levels"] = calls["bfs_graph"] = 0
            rcm = execute_task(build_task("BCSSTK13", "rcm", scale=0.05))
        finally:
            clear_problem_cache()
        assert gk.status == rcm.status == "ok"
        assert calls["breadth_first_levels"] == calls["bfs_graph"] == 0
        pattern, _spec = load_problem("BCSSTK13", scale=0.05)
        assert np.array_equal(rcm.ordering.perm, rcm_ordering(pattern).perm)

    def test_memoized_level_structures_are_read_only(self):
        grid = grid2d_pattern(7, 11)
        _node, structure = pseudo_peripheral_node(grid)
        _u, _v, structure_u, structure_v = pseudo_diameter(grid)
        for memoized in (structure, structure_u, structure_v):
            with pytest.raises(ValueError, match="read-only"):
                memoized.level_of[0] = 99
            with pytest.raises(ValueError, match="read-only"):
                memoized.levels[-1][0] = 99

    def test_explicit_start_results_stay_writable(self):
        _node, structure = pseudo_peripheral_node(grid2d_pattern(7, 11), start=0)
        assert structure.level_of.flags.writeable

    def test_reference_search_runs_only_on_a_fresh_pattern(self):
        """The memo key names no kernel, so under the references a search
        of the same pattern object reads the production search, and only a
        copy runs the reference BFS; the reference tests search fresh
        copies for that reason."""
        grid = grid2d_pattern(7, 11)
        production = pseudo_diameter(grid)
        with _patch_reference_kernels(), \
                _counted_calls([breadth_first_levels_reference]) as calls:
            assert pseudo_diameter(grid) is production
            assert calls["breadth_first_levels_reference"] == 0
            fresh = pseudo_diameter(grid.copy())
        assert calls["breadth_first_levels_reference"] > 0
        assert fresh is not production
        assert fresh[:2] == production[:2]

    def test_memo_is_dropped_by_copy_and_pickle(self):
        grid = grid2d_pattern(7, 11)
        pseudo_diameter(grid)
        assert grid.copy()._workspace is None
        assert pickle.loads(pickle.dumps(grid))._workspace is None


class TestSpectralPseudoPeripheral:
    def test_path_returns_endpointish_vertex(self, path10):
        node = spectral_pseudo_peripheral_node(path10)
        ecc = breadth_first_levels(path10, node).height
        assert ecc >= 7  # close to the true eccentricity 9

    def test_empty_adjacency(self):
        from repro.sparse.pattern import SymmetricPattern

        assert spectral_pseudo_peripheral_node(SymmetricPattern.empty(3)) == 0


class TestPeripheralProperties:
    @given(small_connected_patterns(min_n=2))
    @settings(max_examples=25, deadline=None)
    def test_eccentricity_at_least_half_diameter(self, pattern):
        """A pseudo-peripheral node's eccentricity is >= radius >= diameter/2."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(pattern.n))
        graph.add_edges_from(pattern.edges())
        diameter = nx.diameter(graph)
        _, structure = pseudo_peripheral_node(pattern)
        assert structure.height * 2 >= diameter

    @given(small_connected_patterns(min_n=2))
    @settings(max_examples=25, deadline=None)
    def test_structure_covers_graph(self, pattern):
        _, structure = pseudo_peripheral_node(pattern)
        assert structure.num_reached == pattern.n
