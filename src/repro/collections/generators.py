"""Unstructured and application-flavoured graph generators.

Each generator mimics the structural family of one of the paper's test
matrices (see :mod:`repro.collections.registry` for the mapping):

* :func:`airfoil_pattern` — unstructured planar triangulation around an
  airfoil-shaped hole (Delaunay of graded random points), the BARTH4 family;
* :func:`annulus_pattern` — structured polar mesh on an annulus (the DWT wheel
  / disc models);
* :func:`cylinder_shell_pattern` — quadrilateral shell mesh wrapped around a
  cylinder, optionally with stiffening rings (shell models such as BCSSTK29 or
  the SHUTTLE/SKIRT geometries);
* :func:`plate_with_holes_pattern` — rectangular plate mesh with removed
  circular regions (the BLKHOLE family);
* :func:`power_network_pattern` — a tree-plus-loops network with very low
  average degree (the POW9 power-flow family);
* :func:`random_geometric_pattern` — points in the unit square connected
  within a radius (a generic unstructured surrogate).

All generators are deterministic given a seed and always return a *connected*
:class:`repro.sparse.SymmetricPattern` (the largest component is extracted if
the construction leaves stragglers).  Each assembles its edges as numpy
endpoint arrays for :meth:`repro.sparse.SymmetricPattern.from_edge_arrays`;
only the power network draws its random numbers one vertex at a time.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from repro.collections.meshes import grid2d_pattern, grid3d_pattern, multi_dof_pattern
from repro.graph.components import largest_component
from repro.sparse.pattern import SymmetricPattern
from repro.utils.rng import default_rng
from repro.utils.validation import require_positive_int

__all__ = [
    "airfoil_pattern",
    "annulus_pattern",
    "cylinder_shell_pattern",
    "plate_with_holes_pattern",
    "power_network_pattern",
    "random_geometric_pattern",
    "shell_assembly_pattern",
    "perforated_solid_pattern",
]


def _pattern_from_triangulation(points: np.ndarray) -> SymmetricPattern:
    """Delaunay-triangulate *points* and return the edge graph."""
    a, b, c = Delaunay(points).simplices.T
    return SymmetricPattern.from_edge_arrays(
        points.shape[0], np.concatenate([a, a, b]), np.concatenate([b, c, c])
    )


def _shell_edges(
    n_axial: int, n_around: int, stiffener_every: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of a quadrilateral mesh that is periodic around.

    Vertex ``(i, a)`` is ``i * n_around + a``.  It joins ``(i, a + 1)``
    (around, modulo ``n_around``), ``(i + 1, a)`` and the cell diagonal
    ``(i + 1, a + 1)``.  If *stiffener_every* is nonzero, each station ``i``
    with ``i % stiffener_every == 0`` also joins ``(i, a)`` to the vertex a
    quarter turn away.
    """
    index = np.arange(n_axial * n_around, dtype=np.intp).reshape(n_axial, n_around)
    turned = np.roll(index, -1, axis=1)
    rows = [index, index[:-1], index[:-1]]
    cols = [turned, index[1:], turned[1:]]
    if stiffener_every:
        rings = index[np.arange(n_axial) % stiffener_every == 0]
        rows.append(rings)
        cols.append(np.roll(rings, -max(1, n_around // 4), axis=1))
    return np.concatenate([r.ravel() for r in rows]), np.concatenate([c.ravel() for c in cols])


def _kept_edges(rows: np.ndarray, cols: np.ndarray, keep: np.ndarray):
    """The edges whose endpoints are both kept, each endpoint renumbered by
    its rank among the kept vertices."""
    rank = np.cumsum(keep) - 1
    both = keep[rows] & keep[cols]
    return rank[rows[both]], rank[cols[both]]


def _ensure_connected(pattern: SymmetricPattern) -> SymmetricPattern:
    """Return the induced pattern on the largest connected component."""
    vertices = largest_component(pattern)
    if vertices.size == pattern.n:
        return pattern
    return pattern.subpattern(vertices)


def airfoil_pattern(n_points: int = 800, seed=None) -> SymmetricPattern:
    """Unstructured triangular mesh around an airfoil-shaped hole (BARTH4 family).

    Points are sampled with strong grading toward the airfoil surface (as a
    CFD mesh would be), a thin elliptic hole is cut out, and the Delaunay
    triangulation of the remaining points forms the graph.  Average degree is
    about 6, like any planar triangulation.
    """
    n_points = require_positive_int(n_points, "n_points", minimum=16)
    rng = default_rng(seed)
    # Graded radial sampling around the origin, plus a ring of points hugging
    # the airfoil surface to mimic boundary-layer refinement.
    n_far = n_points // 2
    n_near = n_points - n_far
    radii = 0.08 + 1.5 * rng.random(n_far) ** 2.0
    angles = 2.0 * np.pi * rng.random(n_far)
    far = np.column_stack([radii * np.cos(angles), 0.9 * radii * np.sin(angles)])

    t = 2.0 * np.pi * rng.random(n_near)
    thickness = 0.02 + 0.08 * rng.random(n_near)
    near = np.column_stack([
        (0.35 + thickness) * np.cos(t) - 0.15,
        (0.06 + 0.4 * thickness) * np.sin(t),
    ])
    points = np.vstack([far, near])

    # Remove points falling inside the airfoil (a thin ellipse).
    inside = ((points[:, 0] + 0.15) / 0.33) ** 2 + (points[:, 1] / 0.055) ** 2 < 1.0
    points = points[~inside]
    if points.shape[0] < 8:  # pragma: no cover - tiny inputs only
        points = np.vstack([points, rng.random((8, 2)) + 1.5])
    pattern = _pattern_from_triangulation(points)
    return _ensure_connected(pattern)


def annulus_pattern(n_rings: int = 20, n_around: int = 134) -> SymmetricPattern:
    """Structured quadrilateral mesh on an annulus (DWT2680 'wheel' family).

    ``n_rings * n_around`` vertices; each vertex connects to its angular
    neighbours (periodically) and its radial neighbours, plus one cell
    diagonal so the elements behave like quads.
    """
    n_rings = require_positive_int(n_rings, "n_rings", minimum=2)
    n_around = require_positive_int(n_around, "n_around", minimum=3)
    return SymmetricPattern.from_edge_arrays(
        n_rings * n_around, *_shell_edges(n_rings, n_around)
    )


def cylinder_shell_pattern(
    n_axial: int = 40,
    n_around: int = 60,
    dofs_per_node: int = 1,
    stiffener_every: int = 0,
) -> SymmetricPattern:
    """Quadrilateral shell mesh wrapped around a cylinder (BCSSTK29 / SHUTTLE family).

    Parameters
    ----------
    n_axial, n_around:
        Mesh dimensions along and around the cylinder (the circumferential
        direction is periodic).
    dofs_per_node:
        Degrees of freedom per node; values around 4-6 reproduce the row
        densities of real shell models.
    stiffener_every:
        If positive, every that-many axial stations receives a stiffening ring
        of long-range braces (connecting each node to the node a quarter turn
        away), which mimics the ring frames of launch-vehicle models and makes
        the graph harder for purely local orderings.
    """
    n_axial = require_positive_int(n_axial, "n_axial", minimum=2)
    n_around = require_positive_int(n_around, "n_around", minimum=3)
    base = SymmetricPattern.from_edge_arrays(
        n_axial * n_around, *_shell_edges(n_axial, n_around, stiffener_every)
    )
    if dofs_per_node > 1:
        return multi_dof_pattern(base, dofs_per_node)
    return base


def plate_with_holes_pattern(
    nx: int = 60, ny: int = 40, holes: int = 2, seed=None
) -> SymmetricPattern:
    """Rectangular plate mesh with circular holes removed (BLKHOLE family)."""
    nx = require_positive_int(nx, "nx", minimum=4)
    ny = require_positive_int(ny, "ny", minimum=4)
    rng = default_rng(seed)
    keep = np.ones((nx, ny), dtype=bool)
    for _ in range(max(0, holes)):
        cx = rng.uniform(0.2 * nx, 0.8 * nx)
        cy = rng.uniform(0.2 * ny, 0.8 * ny)
        radius = rng.uniform(0.08, 0.16) * min(nx, ny)
        ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        keep &= (ii - cx) ** 2 + (jj - cy) ** 2 > radius**2
    plate = grid2d_pattern(nx, ny, stencil=9)
    return _ensure_connected(plate.subpattern(np.flatnonzero(keep)))


def power_network_pattern(n: int = 1723, extra_edge_fraction: float = 0.18, seed=None) -> SymmetricPattern:
    """Power-transmission-network graph (POW9 family).

    A random tree grown with preferential attachment to *nearby* indices
    (giving the long stringy feeders typical of transmission networks) plus a
    small fraction of extra loop-closing edges.  Average degree stays close to
    2.4, matching POW9's 4117 nonzeros on 1723 equations.
    """
    n = require_positive_int(n, "n", minimum=2)
    rng = default_rng(seed)
    parents = np.empty(n - 1, dtype=np.intp)
    for v in range(1, n):
        # Attach to a recent vertex most of the time (stringy feeders), to a
        # uniformly random earlier vertex occasionally (subtransmission ties).
        if rng.random() < 0.75:
            lo = max(0, v - 20)
            parents[v - 1] = rng.integers(lo, v)
        else:
            parents[v - 1] = rng.integers(0, v)
    # Loop-closing edges; a draw with b == a is a self-loop, which the
    # constructor drops.
    n_extra = max(0, int(extra_edge_fraction * n))
    loop_a = np.empty(n_extra, dtype=np.intp)
    loop_b = np.empty(n_extra, dtype=np.intp)
    for e in range(n_extra):
        a = int(rng.integers(0, n))
        loop_a[e] = a
        loop_b[e] = rng.integers(max(0, a - 50), min(n, a + 50))
    return _ensure_connected(SymmetricPattern.from_edge_arrays(
        n,
        np.concatenate([parents, loop_a]),
        np.concatenate([np.arange(1, n, dtype=np.intp), loop_b]),
    ))


def random_geometric_pattern(n: int = 500, radius: float | None = None, seed=None) -> SymmetricPattern:
    """Random geometric graph: *n* points in the unit square, edges within *radius*.

    The default radius is chosen so the expected degree is about 7, giving a
    connected, locally clustered graph similar to an unstructured 2-D mesh.
    """
    n = require_positive_int(n, "n", minimum=2)
    rng = default_rng(seed)
    points = rng.random((n, 2))
    if radius is None:
        radius = float(np.sqrt(7.0 / (np.pi * n)))
    tree = cKDTree(points)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    pattern = SymmetricPattern.from_edge_arrays(n, pairs[:, 0], pairs[:, 1])
    return _ensure_connected(pattern)


def shell_assembly_pattern(
    segments=((20, 40), (16, 56), (24, 48)),
    dofs_per_node: int = 1,
    cutouts: int = 2,
    panels: int = 2,
    stiffener_every: int = 0,
    seed=None,
) -> SymmetricPattern:
    """Irregular shell *assembly*: cylinder segments, cutouts and attached panels.

    Real launch-vehicle and engine-nacelle models (BCSSTK29, SHUTTLE, SKIRT)
    are not single clean cylinders: they are assemblies of shell segments with
    different circumferential resolutions, access cutouts, ring frames and
    attached panels.  That irregularity is what defeats purely local
    (level-structure) orderings on the real matrices, so the surrogate has to
    include it.

    Parameters
    ----------
    segments:
        Sequence of ``(n_axial, n_around)`` pairs; consecutive segments are
        joined ring-to-ring by nearest circumferential angle.
    dofs_per_node:
        Degrees of freedom per node (block expansion).
    cutouts:
        Number of rectangular cutouts (in axial/angular index space) removed
        from the interior of segments.
    panels:
        Number of small rectangular panels attached along one edge to a run of
        consecutive ring nodes (equipment panels / fins).
    stiffener_every:
        As in :func:`cylinder_shell_pattern`: add quarter-circumference braces
        on every that-many axial stations of each segment.
    seed:
        Deterministic seed for cutout/panel placement.
    """
    rng = default_rng(seed)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    offset = 0
    segment_meta = []  # (offset, n_axial, n_around)

    for n_axial, n_around in segments:
        n_axial = require_positive_int(n_axial, "n_axial", minimum=2)
        n_around = require_positive_int(n_around, "n_around", minimum=3)
        u, v = _shell_edges(n_axial, n_around, stiffener_every)
        rows.append(u + offset)
        cols.append(v + offset)
        segment_meta.append((offset, n_axial, n_around))
        offset += n_axial * n_around

    # Join consecutive segments ring-to-ring by nearest angle.
    for (off_a, ax_a, around_a), (off_b, _ax_b, around_b) in zip(segment_meta, segment_meta[1:]):
        last_ring = off_a + (ax_a - 1) * around_a
        b_pos = np.arange(around_b, dtype=np.intp)
        a_pos = np.round(b_pos / around_b * around_a).astype(np.intp) % around_a
        rows += [last_ring + a_pos, last_ring + (a_pos + 1) % around_a]
        cols += [off_b + b_pos, off_b + b_pos]

    # Rectangular cutouts inside segments (never touching the joining rings).
    keep = np.ones(offset, dtype=bool)
    for _ in range(max(0, cutouts)):
        off, n_axial, n_around = segment_meta[int(rng.integers(0, len(segment_meta)))]
        if n_axial < 6 or n_around < 8:
            continue
        ax0 = int(rng.integers(1, max(2, n_axial - 4)))
        ax1 = min(n_axial - 2, ax0 + int(rng.integers(2, max(3, n_axial // 3))))
        an0 = int(rng.integers(0, n_around))
        width = int(rng.integers(2, max(3, n_around // 4)))
        stations = np.arange(ax0, ax1, dtype=np.intp)[:, None]
        keep[off + stations * n_around + (an0 + np.arange(width)) % n_around] = False

    # Attached panels: small grids glued along one edge to consecutive ring nodes.
    extra_offset = offset
    for _ in range(max(0, panels)):
        off, n_axial, n_around = segment_meta[int(rng.integers(0, len(segment_meta)))]
        px = int(rng.integers(3, 7))
        py = int(rng.integers(3, 7))
        ring = int(rng.integers(0, n_axial))
        start_angle = int(rng.integers(0, n_around))
        u, v = grid2d_pattern(px, py).edge_arrays()
        edge_row = np.arange(py, dtype=np.intp)
        rows += [u + extra_offset, extra_offset + edge_row]
        cols += [v + extra_offset, off + ring * n_around + (start_angle + edge_row) % n_around]
        extra_offset += px * py

    keep = np.concatenate([keep, np.ones(extra_offset - offset, dtype=bool)])
    pattern = SymmetricPattern.from_edge_arrays(
        int(keep.sum()), *_kept_edges(np.concatenate(rows), np.concatenate(cols), keep)
    )
    pattern = _ensure_connected(pattern)
    if dofs_per_node > 1:
        pattern = multi_dof_pattern(pattern, dofs_per_node)
    return pattern


def perforated_solid_pattern(
    nx: int = 18,
    ny: int = 12,
    nz: int = 10,
    cavities: int = 3,
    appendages: int = 1,
    dofs_per_node: int = 1,
    stencil: int = 27,
    seed=None,
) -> SymmetricPattern:
    """Irregular 3-D solid: a hexahedral brick with cavities and attached blocks.

    The large structural solids of the Boeing-Harwell set (BCSSTK30-33, FLAP)
    are machined parts and assemblies, not perfect bricks; bores, pockets and
    bolted-on appendages give them the irregular geometry on which the
    spectral ordering outperforms level-structure methods.  This generator
    removes ellipsoidal cavities from a brick mesh and glues smaller bricks
    onto randomly chosen faces.
    """
    nx = require_positive_int(nx, "nx", minimum=3)
    ny = require_positive_int(ny, "ny", minimum=3)
    nz = require_positive_int(nz, "nz", minimum=3)
    rng = default_rng(seed)

    base = grid3d_pattern(nx, ny, nz, stencil=stencil)
    coords = np.column_stack([axis.ravel() for axis in np.indices((nx, ny, nz))]).astype(float)
    keep = np.ones(base.n, dtype=bool)
    dims = np.array([nx, ny, nz], dtype=float)
    for _ in range(max(0, cavities)):
        centre = rng.uniform(0.25, 0.75, size=3) * dims
        radii = rng.uniform(0.10, 0.22, size=3) * dims
        inside = np.sum(((coords - centre) / np.maximum(radii, 1e-9)) ** 2, axis=1) < 1.0
        keep &= ~inside

    kept_index = np.where(keep, np.cumsum(keep) - 1, -1)
    u, v = _kept_edges(*base.edge_arrays(), keep)
    rows, cols = [u], [v]
    n_total = int(keep.sum())

    # Attach smaller bricks ("appendages") onto the x = nx-1 face.
    for _ in range(max(0, appendages)):
        ax = int(rng.integers(3, 6))
        ay = int(rng.integers(3, max(4, ny // 2)))
        az = int(rng.integers(3, max(4, nz // 2)))
        sub = grid3d_pattern(ax, ay, az, stencil=stencil)
        offset = n_total
        u, v = sub.edge_arrays()
        rows.append(u + offset)
        cols.append(v + offset)
        j0 = int(rng.integers(0, max(1, ny - ay)))
        k0 = int(rng.integers(0, max(1, nz - az)))
        # Glue the appendage's x = 0 face to the host face it overlaps.
        j, k = (axis.ravel() for axis in np.indices((ay, az)))
        host = kept_index[((nx - 1) * ny + (j0 + j)) * nz + (k0 + k)]
        glued = host >= 0
        rows.append(host[glued])
        cols.append(offset + j[glued] * az + k[glued])
        n_total += sub.n

    pattern = _ensure_connected(SymmetricPattern.from_edge_arrays(
        n_total, np.concatenate(rows), np.concatenate(cols)
    ))
    if dofs_per_node > 1:
        pattern = multi_dof_pattern(pattern, dofs_per_node)
    return pattern
