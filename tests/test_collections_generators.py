"""Unit tests for the synthetic generators (repro.collections.generators
and the random-graph families of repro.collections.random_graphs)."""

import pytest

from repro.collections.generators import (
    airfoil_pattern,
    annulus_pattern,
    cylinder_shell_pattern,
    plate_with_holes_pattern,
    power_network_pattern,
    random_geometric_pattern,
)
from repro.collections.random_graphs import (
    RANDOM_PROBLEMS,
    barabasi_albert_pattern,
    erdos_renyi_gnm_pattern,
    erdos_renyi_gnp_pattern,
    rmat_pattern,
    watts_strogatz_pattern,
)
from repro.graph.components import is_connected


class TestAirfoil:
    def test_connected_and_planar_like(self):
        p = airfoil_pattern(500, seed=1)
        assert is_connected(p)
        # planar triangulations have average degree < 6
        assert p.degree().mean() < 6.5
        assert p.n > 300

    def test_deterministic(self):
        a = airfoil_pattern(300, seed=5)
        b = airfoil_pattern(300, seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        assert airfoil_pattern(300, seed=1) != airfoil_pattern(300, seed=2)

    def test_size_scales(self):
        small = airfoil_pattern(200, seed=3)
        large = airfoil_pattern(800, seed=3)
        assert large.n > 2 * small.n


class TestAnnulus:
    def test_size(self):
        p = annulus_pattern(5, 20)
        assert p.n == 100
        assert is_connected(p)

    def test_periodic_in_angle(self):
        p = annulus_pattern(3, 8)
        assert p.has_edge(0, 7)  # ring 0: vertex 0 adjacent to vertex 7 (wrap)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            annulus_pattern(1, 10)


class TestCylinderShell:
    def test_basic(self):
        p = cylinder_shell_pattern(10, 12)
        assert p.n == 120
        assert is_connected(p)

    def test_multi_dof(self):
        base = cylinder_shell_pattern(6, 8, dofs_per_node=1)
        expanded = cylinder_shell_pattern(6, 8, dofs_per_node=3)
        assert expanded.n == 3 * base.n

    def test_stiffeners_add_edges(self):
        plain = cylinder_shell_pattern(12, 16, stiffener_every=0)
        stiffened = cylinder_shell_pattern(12, 16, stiffener_every=3)
        assert stiffened.num_edges > plain.num_edges


class TestPlateWithHoles:
    def test_holes_remove_vertices(self):
        full = plate_with_holes_pattern(30, 20, holes=0, seed=1)
        holed = plate_with_holes_pattern(30, 20, holes=3, seed=1)
        assert holed.n < full.n
        assert is_connected(holed)

    def test_no_holes_is_full_grid(self):
        p = plate_with_holes_pattern(10, 8, holes=0, seed=0)
        assert p.n == 80


class TestPowerNetwork:
    def test_sparse_and_connected(self):
        p = power_network_pattern(800, seed=9)
        assert is_connected(p)
        # power networks are very sparse: mean degree around 2-3
        assert p.degree().mean() < 3.5

    def test_deterministic(self):
        assert power_network_pattern(300, seed=2) == power_network_pattern(300, seed=2)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            power_network_pattern(1)


class TestRandomGeometric:
    def test_connected_with_default_radius(self):
        p = random_geometric_pattern(300, seed=6)
        assert is_connected(p)
        assert p.n > 200

    def test_radius_controls_density(self):
        sparse = random_geometric_pattern(200, radius=0.08, seed=3)
        dense = random_geometric_pattern(200, radius=0.25, seed=3)
        assert dense.num_edges > sparse.num_edges

    def test_deterministic(self):
        assert random_geometric_pattern(150, seed=4) == random_geometric_pattern(150, seed=4)


# --------------------------------------------------------------------------- #
# random-graph families (repro.collections.random_graphs)
# --------------------------------------------------------------------------- #
def _pattern_bytes(pattern) -> bytes:
    """The CSR arrays as raw bytes — the strictest determinism check."""
    return pattern.indptr.tobytes() + pattern.indices.tobytes()


#: One representative builder per family, at a size where every property
#: (connectivity, degree shape) is stable but the tests stay fast.
FAMILY_BUILDERS = {
    "ba": lambda seed: barabasi_albert_pattern(600, m=4, seed=seed),
    "gnp": lambda seed: erdos_renyi_gnp_pattern(600, avg_degree=8.0, seed=seed),
    "gnm": lambda seed: erdos_renyi_gnm_pattern(600, n_edges=2400, seed=seed),
    "ws": lambda seed: watts_strogatz_pattern(600, k=6, beta=0.1, seed=seed),
    "rmat": lambda seed: rmat_pattern(9, edge_factor=8, seed=seed),
}


class TestRandomFamilyProperties:
    """Shared property tests: every family, same four invariants."""

    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_seed_determinism_byte_identical(self, family):
        build = FAMILY_BUILDERS[family]
        a, b = build(7), build(7)
        assert a == b
        assert _pattern_bytes(a) == _pattern_bytes(b)

    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_different_seeds_differ(self, family):
        build = FAMILY_BUILDERS[family]
        assert build(1) != build(2)

    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_pattern_invariants(self, family):
        # validate() checks the full SymmetricPattern contract: sorted,
        # duplicate-free CSR rows, no self-loops, exact symmetry.
        pattern = FAMILY_BUILDERS[family](3)
        pattern.validate()
        degrees = pattern.degree()
        assert degrees.min() >= 1  # the component trim leaves no isolated vertex

    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_connected(self, family):
        assert is_connected(FAMILY_BUILDERS[family](5))


class TestRegisteredRandomSpecs:
    """The RANDOM/* registry entries and their analytic size contract."""

    @pytest.mark.parametrize("name", sorted(RANDOM_PROBLEMS))
    def test_registered_names_are_normalized(self, name):
        assert name == name.strip().upper()
        assert name.startswith("RANDOM/")

    @pytest.mark.parametrize("name", sorted(RANDOM_PROBLEMS))
    @pytest.mark.parametrize("scale", [0.002, 0.01])
    def test_measured_nnz_matches_expected(self, name, scale):
        spec = RANDOM_PROBLEMS[name]
        pattern = spec.build(scale)
        expected = spec.expected_nnz(scale)
        assert expected > 0
        assert abs(pattern.nnz - expected) <= spec.nnz_rtol * expected

    @pytest.mark.parametrize("name", sorted(RANDOM_PROBLEMS))
    def test_expected_n_tracks_built_n(self, name):
        spec = RANDOM_PROBLEMS[name]
        pattern = spec.build(0.01)
        # expected_n is a planning estimate, not a promise; a wide band is
        # enough for cost-model weights (R-MAT trims isolated vertices).
        assert 0.5 * spec.expected_n(0.01) <= pattern.n <= 1.5 * spec.expected_n(0.01)

    @pytest.mark.parametrize("name", sorted(RANDOM_PROBLEMS))
    def test_build_is_deterministic(self, name):
        spec = RANDOM_PROBLEMS[name]
        assert _pattern_bytes(spec.build(0.003)) == _pattern_bytes(spec.build(0.003))

    @pytest.mark.parametrize("name", sorted(RANDOM_PROBLEMS))
    def test_scale_must_be_positive(self, name):
        with pytest.raises(ValueError):
            RANDOM_PROBLEMS[name].build(0.0)


class TestBarabasiAlbert:
    def test_power_law_tail_has_hubs(self):
        pattern = barabasi_albert_pattern(2000, m=4, seed=11)
        degrees = pattern.degree()
        # preferential attachment: the largest hub dwarfs the mean degree
        assert degrees.max() > 5 * degrees.mean()

    def test_m_must_be_smaller_than_n(self):
        with pytest.raises(ValueError):
            barabasi_albert_pattern(4, m=4, seed=0)

    def test_edge_budget(self):
        pattern = barabasi_albert_pattern(1000, m=4, seed=12)
        # n*m multigraph edges minus a small collapse/trim loss
        assert 0.9 * 4 * 1000 <= pattern.num_edges <= 4 * 1000


class TestErdosRenyiGnp:
    def test_mean_degree_near_target(self):
        pattern = erdos_renyi_gnp_pattern(3000, avg_degree=8.0, seed=13)
        assert abs(pattern.degree().mean() - 8.0) < 0.5

    def test_p_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi_gnp_pattern(100, p=1.5, seed=0)


class TestErdosRenyiGnm:
    def test_exact_edge_count_modulo_trim(self):
        pattern = erdos_renyi_gnm_pattern(1000, n_edges=4000, seed=14)
        # exactly 4000 distinct edges drawn; only the component trim loses any
        assert 0.98 * 4000 <= pattern.num_edges <= 4000

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            erdos_renyi_gnm_pattern(10, n_edges=100, seed=0)


class TestWattsStrogatz:
    def test_beta_zero_is_exact_ring_lattice(self):
        pattern = watts_strogatz_pattern(200, k=6, beta=0.0, seed=15)
        assert pattern.n == 200
        assert pattern.num_edges == 200 * 3
        assert (pattern.degree() == 6).all()

    def test_rewiring_shrinks_diameter(self):
        from repro.graph.peripheral import pseudo_diameter

        def eccentricity(pattern):
            return len(pseudo_diameter(pattern)[-1].levels) - 1

        ring = watts_strogatz_pattern(400, k=6, beta=0.0, seed=16)
        small_world = watts_strogatz_pattern(400, k=6, beta=0.2, seed=16)
        assert eccentricity(small_world) < eccentricity(ring)

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            watts_strogatz_pattern(100, k=5, seed=0)


class TestRmat:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            rmat_pattern(8, probabilities=(0.5, 0.3, 0.3, 0.3), seed=0)

    def test_skewed_quadrants_make_hubs(self):
        pattern = rmat_pattern(11, edge_factor=8, seed=17)
        degrees = pattern.degree()
        assert degrees.max() > 10 * degrees.mean()
