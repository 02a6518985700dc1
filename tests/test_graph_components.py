"""Unit tests for repro.graph.components."""

import numpy as np
from hypothesis import given, settings

from repro.graph.components import connected_components, is_connected, largest_component
from repro.sparse.pattern import SymmetricPattern
from tests.conftest import small_patterns


class TestConnectedComponents:
    def test_connected_graph_single_component(self, grid_8x6):
        count, labels = connected_components(grid_8x6)
        assert count == 1
        assert set(labels.tolist()) == {0}

    def test_disconnected_counts(self, disconnected_pattern):
        count, labels = connected_components(disconnected_pattern)
        assert count == 3
        assert labels[0] == labels[7]
        assert labels[8] == labels[15]
        assert labels[16] not in (labels[0], labels[8])

    def test_labels_numbered_by_smallest_vertex(self, disconnected_pattern):
        _, labels = connected_components(disconnected_pattern)
        assert labels[0] == 0
        assert labels[8] == 1
        assert labels[16] == 2

    def test_empty_graph_all_singletons(self):
        count, labels = connected_components(SymmetricPattern.empty(4))
        assert count == 4
        np.testing.assert_array_equal(labels, [0, 1, 2, 3])


class TestIsConnected:
    def test_connected(self, path10):
        assert is_connected(path10)

    def test_disconnected(self, disconnected_pattern):
        assert not is_connected(disconnected_pattern)

    def test_single_vertex(self):
        assert is_connected(SymmetricPattern.empty(1))


class TestLargestComponent:
    def test_full_graph(self, cycle12):
        np.testing.assert_array_equal(largest_component(cycle12), np.arange(12))

    def test_disconnected(self):
        edges = [(0, 1), (2, 3), (3, 4)]
        pattern = SymmetricPattern.from_edges(6, edges)
        np.testing.assert_array_equal(largest_component(pattern), [2, 3, 4])


class TestComponentsProperties:
    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_labels_constant_on_edges(self, pattern):
        _, labels = connected_components(pattern)
        for u, v in pattern.edges():
            assert labels[u] == labels[v]

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_component_count_vs_networkx(self, pattern):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(pattern.n))
        graph.add_edges_from(pattern.edges())
        count, _ = connected_components(pattern)
        assert count == nx.number_connected_components(graph)
