"""Unit tests for repro.graph.peripheral."""

import numpy as np
import pytest
from hypothesis import given, settings

import repro.graph.peripheral as peripheral
import repro.graph.traversal as traversal
from repro.collections.meshes import grid2d_pattern, path_pattern, star_pattern
from repro.graph.peripheral import (
    pseudo_diameter,
    pseudo_peripheral_node,
    spectral_pseudo_peripheral_node,
)
from repro.graph.traversal import bfs_graph, breadth_first_levels, distance_from
from repro.sparse.pattern import SymmetricPattern
from tests.conftest import small_connected_patterns


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


class TestOneGraphPerSearch:
    """Every sweep of one search reads one ``bfs_graph``, built once."""

    @pytest.fixture
    def calls(self, monkeypatch):
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

    def test_pseudo_diameter_builds_once_across_a_restart(self, calls):
        u, v, _, structure_v = pseudo_diameter(RESTART)
        for key in calls:
            calls[key] = 0
        restarted = peripheral.pseudo_diameter(RESTART)
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
