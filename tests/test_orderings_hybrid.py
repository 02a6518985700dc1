"""Unit tests for the hybrid spectral+local ordering (repro.orderings.hybrid)."""

import numpy as np
from hypothesis import given, settings

from repro.collections.generators import airfoil_pattern
from repro.envelope.metrics import envelope_size
from repro.envelope.theory import is_adjacency_ordering
from repro.orderings.hybrid import hybrid_spectral_ordering
from repro.orderings.spectral import spectral_ordering
from tests.conftest import small_connected_patterns


class TestHybridSpectralOrdering:
    def test_never_worse_than_spectral_adjacency(self, geometric200):
        spec = envelope_size(geometric200, spectral_ordering(geometric200, method="lanczos", rng=1).perm)
        hybrid = envelope_size(
            geometric200,
            hybrid_spectral_ordering(geometric200, method="lanczos", rng=1).perm,
        )
        assert hybrid <= spec

    def test_refinement_produces_adjacency_ordering(self):
        pattern = airfoil_pattern(300, seed=2)
        ordering = hybrid_spectral_ordering(pattern, method="lanczos")
        spectral = spectral_ordering(pattern, method="lanczos")
        # Here the priority-first traversal replaces the spectral order (it
        # is kept only if no worse), and each step of a traversal numbers a
        # neighbour of the numbered set.
        assert not np.array_equal(ordering.perm, spectral.perm)
        assert is_adjacency_ordering(pattern, ordering.perm)
        assert not is_adjacency_ordering(pattern, spectral.perm)

    def test_measures_each_order_once(self, monkeypatch):
        """Both spectral directions and the refined order: the hybrid pass
        reads the chosen direction's envelope from the spectral detail."""
        import repro.orderings.hybrid as hybrid
        import repro.orderings.spectral as spectral

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return envelope_size(*args, **kwargs)

        monkeypatch.setattr(hybrid, "envelope_size", counted)
        monkeypatch.setattr(spectral, "envelope_size", counted)
        hybrid_spectral_ordering(airfoil_pattern(300, seed=2), method="lanczos")
        assert len(calls) == 3

    def test_path_optimal(self, path10):
        ordering = hybrid_spectral_ordering(path10, method="dense")
        assert envelope_size(path10, ordering.perm) == 9

    def test_metadata(self, path10):
        ordering = hybrid_spectral_ordering(path10, method="dense")
        assert ordering.algorithm == "hybrid-spectral"
        assert ordering.metadata["method"] == "dense"

    def test_disconnected_handled(self, disconnected_pattern):
        ordering = hybrid_spectral_ordering(disconnected_pattern, method="dense")
        assert sorted(ordering.perm.tolist()) == list(range(17))

    @given(small_connected_patterns())
    @settings(max_examples=15, deadline=None)
    def test_always_valid_permutation(self, pattern):
        ordering = hybrid_spectral_ordering(pattern, method="dense")
        assert sorted(ordering.perm.tolist()) == list(range(pattern.n))
