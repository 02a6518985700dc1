"""Unit tests for the irregular assembly generators (shell assemblies, perforated solids)."""

from repro.collections.generators import (
    cylinder_shell_pattern,
    perforated_solid_pattern,
    shell_assembly_pattern,
)
from repro.collections.meshes import grid3d_pattern
from repro.envelope.metrics import envelope_size
from repro.graph.components import is_connected


class TestShellAssembly:
    def test_connected_and_sized(self):
        pattern = shell_assembly_pattern(
            segments=((10, 16), (8, 20)), dofs_per_node=1, cutouts=1, panels=1, seed=1
        )
        assert is_connected(pattern)
        # segments give 10*16 + 8*20 = 320 shell nodes, minus cutouts, plus panels
        assert 250 <= pattern.n <= 380

    def test_multi_dof_expansion(self):
        base = shell_assembly_pattern(segments=((6, 10),), dofs_per_node=1, cutouts=0, panels=0)
        expanded = shell_assembly_pattern(segments=((6, 10),), dofs_per_node=3, cutouts=0, panels=0)
        assert expanded.n == 3 * base.n

    def test_deterministic(self):
        a = shell_assembly_pattern(segments=((8, 12), (6, 14)), seed=7)
        b = shell_assembly_pattern(segments=((8, 12), (6, 14)), seed=7)
        assert a == b

    def test_cutouts_remove_vertices(self):
        intact = shell_assembly_pattern(segments=((12, 20),), cutouts=0, panels=0, seed=3)
        cut = shell_assembly_pattern(segments=((12, 20),), cutouts=3, panels=0, seed=3)
        assert cut.n < intact.n

    def test_panels_add_vertices(self):
        plain = shell_assembly_pattern(segments=((12, 20),), cutouts=0, panels=0, seed=3)
        panelled = shell_assembly_pattern(segments=((12, 20),), cutouts=0, panels=3, seed=3)
        assert panelled.n > plain.n

    def test_segments_are_joined(self):
        # with two segments and no cutouts/panels, connectivity across the
        # joint is what makes the whole assembly a single component
        pattern = shell_assembly_pattern(segments=((5, 8), (5, 12)), cutouts=0, panels=0)
        assert is_connected(pattern)
        assert pattern.n == 5 * 8 + 5 * 12

    def test_harder_for_local_orderings_than_plain_cylinder(self):
        """The assembly's irregularity is the point: the spectral ordering's
        relative advantage over RCM must be at least as good as on a plain
        cylinder of similar size."""
        from repro.orderings.cuthill_mckee import rcm_ordering
        from repro.orderings.spectral import spectral_ordering

        plain = cylinder_shell_pattern(n_axial=18, n_around=16)
        assembly = shell_assembly_pattern(
            segments=((10, 16), (8, 20)), cutouts=2, panels=2, seed=5
        )

        def ratio(pattern):
            rcm = envelope_size(pattern, rcm_ordering(pattern).perm)
            spec = envelope_size(pattern, spectral_ordering(pattern, method="lanczos", rng=0).perm)
            return rcm / max(spec, 1)

        assert ratio(assembly) >= 0.8 * ratio(plain)


class TestPerforatedSolid:
    def test_connected_and_smaller_than_full_brick(self):
        full = grid3d_pattern(10, 8, 6, stencil=27)
        perforated = perforated_solid_pattern(
            nx=10, ny=8, nz=6, cavities=2, appendages=0, seed=2
        )
        assert is_connected(perforated)
        assert perforated.n < full.n

    def test_appendages_add_vertices(self):
        base = perforated_solid_pattern(nx=8, ny=6, nz=5, cavities=0, appendages=0, seed=4)
        extended = perforated_solid_pattern(nx=8, ny=6, nz=5, cavities=0, appendages=2, seed=4)
        assert extended.n > base.n
        assert is_connected(extended)

    def test_multi_dof(self):
        single = perforated_solid_pattern(nx=6, ny=5, nz=4, cavities=1, seed=6)
        triple = perforated_solid_pattern(nx=6, ny=5, nz=4, cavities=1, dofs_per_node=3, seed=6)
        assert triple.n == 3 * single.n

    def test_deterministic(self):
        a = perforated_solid_pattern(nx=7, ny=6, nz=5, cavities=2, appendages=1, seed=11)
        b = perforated_solid_pattern(nx=7, ny=6, nz=5, cavities=2, appendages=1, seed=11)
        assert a == b

    def test_row_density_high_with_27_stencil(self):
        pattern = perforated_solid_pattern(nx=8, ny=7, nz=6, cavities=1, seed=8)
        assert pattern.nnz / pattern.n > 10
