"""Structured meshes and elementary graphs.

These are the deterministic building blocks of the synthetic test collection:
regular 2-D/3-D grids with selectable stencils (the classic finite-difference
and finite-element discretizations), block expansion to several degrees of
freedom per node (which reproduces the row densities of structural-analysis
matrices), and the elementary graphs (paths, cycles, stars, complete graphs,
binary trees) the unit and property tests reason about analytically.  Every
builder assembles numpy endpoint arrays for
:meth:`repro.sparse.SymmetricPattern.from_edge_arrays`.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.pattern import SymmetricPattern
from repro.utils.validation import require_positive_int

__all__ = [
    "grid2d_pattern",
    "grid3d_pattern",
    "multi_dof_pattern",
    "path_pattern",
    "cycle_pattern",
    "star_pattern",
    "complete_pattern",
    "binary_tree_pattern",
]


def _stencil_edges(index: np.ndarray, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of every ``(v, v + offset)`` pair of a regular grid.

    *index* holds the vertex number of every grid point; each offset in
    *offsets* pairs every point with the point that far away along each
    axis, wherever both lie inside the grid.  Listing one offset of each
    ``+d``/``-d`` pair yields every edge once.
    """
    rows, cols = [], []
    for offset in offsets:
        source = tuple(slice(max(0, -d), size - max(0, d)) for d, size in zip(offset, index.shape))
        target = tuple(slice(max(0, d), size + min(0, d)) for d, size in zip(offset, index.shape))
        rows.append(index[source].ravel())
        cols.append(index[target].ravel())
    return np.concatenate(rows), np.concatenate(cols)


def path_pattern(n: int) -> SymmetricPattern:
    """Path graph ``P_n`` (tridiagonal matrix).

    The minimum-envelope ordering of a path is the natural one with
    ``Esize = n - 1`` and bandwidth 1 — used as an analytic oracle in tests.
    """
    n = require_positive_int(n, "n")
    left = np.arange(n - 1, dtype=np.intp)
    return SymmetricPattern.from_edge_arrays(n, left, left + 1)


def cycle_pattern(n: int) -> SymmetricPattern:
    """Cycle graph ``C_n`` (periodic tridiagonal matrix)."""
    n = require_positive_int(n, "n", minimum=3)
    left = np.arange(n, dtype=np.intp)
    return SymmetricPattern.from_edge_arrays(n, left, (left + 1) % n)


def star_pattern(n: int) -> SymmetricPattern:
    """Star graph ``S_n``: vertex 0 adjacent to all others (arrowhead matrix)."""
    n = require_positive_int(n, "n", minimum=2)
    return SymmetricPattern.from_edge_arrays(
        n, np.zeros(n - 1, dtype=np.intp), np.arange(1, n, dtype=np.intp)
    )


def complete_pattern(n: int) -> SymmetricPattern:
    """Complete graph ``K_n`` (dense matrix); every ordering has the same envelope."""
    n = require_positive_int(n, "n", minimum=1)
    return SymmetricPattern.from_edge_arrays(n, *np.triu_indices(n, 1))


def binary_tree_pattern(depth: int) -> SymmetricPattern:
    """Complete binary tree of the given depth (``2^(depth+1) - 1`` vertices)."""
    depth = require_positive_int(depth, "depth", minimum=0) if depth != 0 else 0
    n = 2 ** (depth + 1) - 1
    child = np.arange(1, n, dtype=np.intp)
    return SymmetricPattern.from_edge_arrays(n, (child - 1) // 2, child)


def grid2d_pattern(nx: int, ny: int, stencil: int = 5) -> SymmetricPattern:
    """Regular ``nx x ny`` grid.

    Parameters
    ----------
    nx, ny:
        Grid dimensions; vertex ``(i, j)`` has index ``i * ny + j``.
    stencil:
        ``5`` — 5-point stencil (bilinear FD Laplacian);
        ``9`` — 9-point stencil (bilinear quadrilateral finite elements,
        includes the diagonals of each cell).

    The natural (row-by-row) ordering of the 5-point grid has bandwidth
    ``ny`` and envelope size close to ``nx * ny * ny`` — the classic example
    where ordering matters.
    """
    nx = require_positive_int(nx, "nx")
    ny = require_positive_int(ny, "ny")
    if stencil not in (5, 9):
        raise ValueError(f"stencil must be 5 or 9, got {stencil}")
    offsets = [(1, 0), (0, 1)]
    if stencil == 9:
        offsets += [(1, 1), (1, -1)]
    index = np.arange(nx * ny, dtype=np.intp).reshape(nx, ny)
    return SymmetricPattern.from_edge_arrays(nx * ny, *_stencil_edges(index, offsets))


def grid3d_pattern(nx: int, ny: int, nz: int, stencil: int = 7) -> SymmetricPattern:
    """Regular ``nx x ny x nz`` brick grid.

    Parameters
    ----------
    nx, ny, nz:
        Grid dimensions; vertex ``(i, j, k)`` has index ``(i*ny + j)*nz + k``.
    stencil:
        ``7`` — face neighbours only (FD Laplacian);
        ``27`` — all neighbours of the surrounding cube (trilinear hexahedral
        finite elements), which matches the row densities of 3-D structural
        models.
    """
    nx = require_positive_int(nx, "nx")
    ny = require_positive_int(ny, "ny")
    nz = require_positive_int(nz, "nz")
    if stencil not in (7, 27):
        raise ValueError(f"stencil must be 7 or 27, got {stencil}")
    if stencil == 7:
        offsets = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    else:
        offsets = [
            (di, dj, dk)
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            for dk in (-1, 0, 1)
            if (di, dj, dk) > (0, 0, 0)
        ]
    index = np.arange(nx * ny * nz, dtype=np.intp).reshape(nx, ny, nz)
    return SymmetricPattern.from_edge_arrays(nx * ny * nz, *_stencil_edges(index, offsets))


def multi_dof_pattern(pattern: SymmetricPattern, dofs_per_node: int) -> SymmetricPattern:
    """Expand every graph vertex into ``dofs_per_node`` fully coupled unknowns.

    This is how structural-analysis matrices arise from meshes: each mesh node
    carries several displacement/rotation degrees of freedom, and two nodes
    connected by an element couple all their degrees of freedom.  Expanding a
    mesh with ``d`` degrees of freedom per node multiplies the matrix order by
    ``d`` and the typical row density by roughly ``d`` as well, which matches
    the nonzeros-per-row of the BCSSTK matrices (20-35).
    """
    d = require_positive_int(dofs_per_node, "dofs_per_node")
    if d == 1:
        return pattern.copy()
    n = pattern.n
    dof = np.arange(d, dtype=np.intp)
    # Intra-node coupling between the d unknowns of each node.
    first = np.arange(n, dtype=np.intp)[:, None] * d
    a, b = np.triu_indices(d, 1)
    intra_rows, intra_cols = (first + a).ravel(), (first + b).ravel()
    # Every unknown of i couples to every unknown of j, for each edge i < j.
    i, j = pattern.edge_arrays()
    inter_rows = np.repeat(i[:, None] * d + dof, d, axis=1).ravel()
    inter_cols = np.tile(j[:, None] * d + dof, d).ravel()
    return SymmetricPattern.from_edge_arrays(
        n * d,
        np.concatenate([intra_rows, inter_rows]),
        np.concatenate([intra_cols, inter_cols]),
    )
