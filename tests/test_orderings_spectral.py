"""Unit tests for the spectral ordering — Algorithm 1 (repro.orderings.spectral)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from repro.collections.generators import airfoil_pattern, random_geometric_pattern
from repro.collections.meshes import grid2d_pattern
from repro.collections.registry import load_problem
from repro.envelope.metrics import envelope_size
from repro.orderings.base import random_ordering
from repro.orderings.spectral import ordering_from_vector, spectral_ordering
from repro.sparse.pattern import SymmetricPattern
from tests.conftest import small_connected_patterns


class TestOrderingFromVector:
    def test_sorts_nondecreasing(self):
        vec = np.array([0.3, -1.0, 0.1, 2.0])
        perm = ordering_from_vector(vec)
        np.testing.assert_array_equal(perm, [1, 2, 0, 3])

    def test_sorts_nonincreasing(self):
        vec = np.array([0.3, -1.0, 0.1, 2.0])
        perm = ordering_from_vector(vec, direction="nonincreasing")
        np.testing.assert_array_equal(perm, [3, 0, 2, 1])

    def test_tie_break_by_degree_then_index(self):
        pattern = SymmetricPattern.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        vec = np.zeros(4)  # all tied: degree order is 3(deg1), 1,2(deg2), 0(deg3)
        perm = ordering_from_vector(vec, pattern)
        np.testing.assert_array_equal(perm, [3, 1, 2, 0])

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            ordering_from_vector(np.ones(3), direction="sideways")


class TestSpectralOrderingAlgorithm1:
    def test_path_recovers_natural_order(self, path10):
        # The Fiedler vector of a path is monotone, so the spectral ordering
        # must recover the natural (or reversed) optimal ordering.
        ordering = spectral_ordering(path10, method="dense")
        assert envelope_size(path10, ordering.perm) == 9
        assert list(ordering.perm) in (list(range(10)), list(range(9, -1, -1)))

    def test_valid_permutation(self, grid_12x9):
        ordering = spectral_ordering(grid_12x9)
        assert sorted(ordering.perm.tolist()) == list(range(grid_12x9.n))

    def test_both_directions_evaluated(self, geometric200):
        ordering = spectral_ordering(geometric200, method="lanczos")
        [detail] = ordering.metadata["components"]
        assert detail["direction"] in ("nondecreasing", "nonincreasing")
        assert ordering.metadata["direction"] == detail["direction"]
        chosen = min(detail["envelope_nondecreasing"], detail["envelope_nonincreasing"])
        assert envelope_size(geometric200, ordering.perm) == chosen

    def test_beats_random_ordering(self, geometric200):
        spec = spectral_ordering(geometric200, method="lanczos")
        rand = random_ordering(geometric200.n, rng=3)
        assert envelope_size(geometric200, spec.perm) < envelope_size(geometric200, rand.perm)

    def test_airfoil_beats_rcm(self):
        """The paper's headline: spectral beats RCM on unstructured meshes (BARTH4)."""
        from repro.orderings.cuthill_mckee import rcm_ordering

        pattern = airfoil_pattern(500, seed=4)
        spec = envelope_size(pattern, spectral_ordering(pattern, method="lanczos").perm)
        rcm = envelope_size(pattern, rcm_ordering(pattern).perm)
        assert spec < rcm

    def test_metadata_summary(self, grid_8x6):
        ordering = spectral_ordering(grid_8x6, method="dense")
        assert ordering.algorithm == "spectral"
        assert "fiedler_value" in ordering.metadata
        assert ordering.metadata["fiedler_value"] > 0
        assert ordering.metadata["solver"] == "dense"

    def test_component_details_fields(self, grid_8x6):
        ordering = spectral_ordering(grid_8x6, method="dense")
        [detail] = ordering.metadata["components"]
        assert detail["fiedler_value"] > 0
        assert detail["fiedler_vector"].shape == (grid_8x6.n,)
        assert detail["solver"] == "dense"
        assert detail["converged"] is True
        assert detail["envelope_nondecreasing"] > 0
        assert detail["envelope_nonincreasing"] > 0

    def test_solver_method_forwarded(self, grid_8x6):
        ordering = spectral_ordering(grid_8x6, method="lanczos")
        assert ordering.metadata["solver"] == "lanczos"

    def test_disconnected_ordered_per_component(self, disconnected_pattern):
        ordering = spectral_ordering(disconnected_pattern, method="dense")
        assert sorted(ordering.perm.tolist()) == list(range(17))
        assert ordering.metadata["num_components"] == 3
        # components must occupy contiguous position blocks
        positions = ordering.positions
        first_block = sorted(positions[:8].tolist())
        assert first_block == list(range(min(first_block), min(first_block) + 8))

    def test_deterministic_given_seed(self, geometric200):
        a = spectral_ordering(geometric200, method="lanczos", rng=11)
        b = spectral_ordering(geometric200, method="lanczos", rng=11)
        np.testing.assert_array_equal(a.perm, b.perm)

    def test_accepts_scipy_input(self, grid_8x6):
        ordering = spectral_ordering(grid_8x6.to_scipy("spd"), method="dense")
        assert sorted(ordering.perm.tolist()) == list(range(grid_8x6.n))

    def test_auto_drops_a_solver_option_lanczos_does_not_take(self):
        pattern, _spec = load_problem("CAN1072", 0.1)
        plain = spectral_ordering(pattern, rng=0)
        with_option = spectral_ordering(pattern.copy(), rng=0, coarsest_size=50)
        assert {d["solver"] for d in with_option.metadata["components"]} == {"lanczos"}
        np.testing.assert_array_equal(with_option.perm, plain.perm)

    def test_auto_components_take_the_options_of_their_own_solver(self, monkeypatch):
        """One graph, two components: multilevel gets ``coarsest_size``, Lanczos does not."""
        import repro.eigen.fiedler as fiedler

        passed = []

        def multilevel(pattern, **options):
            passed.append(options["coarsest_size"])
            return solve(pattern, **options)

        solve = fiedler.multilevel_fiedler
        monkeypatch.setattr(fiedler, "multilevel_fiedler", multilevel)
        pattern = SymmetricPattern.from_scipy(sp.block_diag([
            grid2d_pattern(80, 64).to_scipy(), random_geometric_pattern(200, seed=7).to_scipy(),
        ]))
        ordering = spectral_ordering(pattern, rng=0, coarsest_size=50)
        solvers = [d["solver"] for d in ordering.metadata["components"]]
        assert sorted(solvers) == ["lanczos", "multilevel"]
        assert passed == [50]

    @pytest.mark.parametrize("method", ["lanczos", "dense"])
    def test_explicit_method_rejects_an_option_it_does_not_take(self, grid_8x6, method):
        with pytest.raises(ValueError, match=f"'{method}' takes no option 'coarsest_size'"):
            spectral_ordering(grid_8x6, method=method, coarsest_size=50)

    def test_single_vertex(self):
        ordering = spectral_ordering(SymmetricPattern.empty(1))
        np.testing.assert_array_equal(ordering.perm, [0])
        assert "components" not in ordering.metadata

    def test_grid_envelope_close_to_known_orderings(self):
        # On a long thin grid the spectral ordering should be within a factor
        # of ~2 of the natural ordering's envelope (which is near-optimal).
        grid = grid2d_pattern(30, 5)
        natural_envelope = envelope_size(grid)
        spec = spectral_ordering(grid, method="lanczos")
        assert envelope_size(grid, spec.perm) <= 2 * natural_envelope

    @given(small_connected_patterns())
    @settings(max_examples=20, deadline=None)
    def test_always_valid_permutation(self, pattern):
        ordering = spectral_ordering(pattern, method="dense")
        assert sorted(ordering.perm.tolist()) == list(range(pattern.n))
