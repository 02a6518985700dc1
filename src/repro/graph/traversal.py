"""Breadth-first search, rooted level structures and distances.

The baseline orderings (Cuthill-McKee, reverse Cuthill-McKee, GPS, GK) are all
built on *rooted level structures*: the partition of the vertex set into BFS
levels ``L_0 = {r}, L_1 = adj(L_0), ...`` from a root ``r`` (George & Liu,
1981, Ch. 4).  :func:`breadth_first_levels` runs one compiled queue BFS
(``scipy.sparse.csgraph.breadth_first_order``) over the float64 CSR of
:func:`bfs_graph` and cuts its visit order into levels by parent position;
:func:`bfs_order` expands whole levels over CSR neighbor slabs
(:meth:`repro.sparse.pattern.SymmetricPattern.claim_frontier`).
Both reproduce the discovery order of the vertex-at-a-time queue scans of
:mod:`repro.backends.kernels`, the reference they are tested against
(``tests/test_backends.py``), so orderings built on them are bit-for-bit
unchanged.

Both entry points are backend-dispatched (:mod:`repro.backends`): when the
``python`` or ``numba`` tier is selected, the loop kernel runs instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from repro import backends
from repro.sparse.pattern import SymmetricPattern

__all__ = [
    "RootedLevelStructure",
    "bfs_graph",
    "breadth_first_levels",
    "rooted_level_structure",
    "bfs_order",
    "distance_from",
]


@dataclass(frozen=True)
class RootedLevelStructure:
    """A rooted level structure ``L(r) = (L_0, L_1, ..., L_h)``.

    Attributes
    ----------
    root:
        The root vertex ``r``.
    level_of:
        Array of length ``n`` giving the level index of every vertex, or
        ``-1`` for vertices unreachable from the root.
    levels:
        List of arrays; ``levels[k]`` holds the vertices at level ``k``
        in order of discovery.
    """

    root: int
    level_of: np.ndarray
    levels: list = field(default_factory=list)

    @property
    def height(self) -> int:
        """Number of levels minus one (the eccentricity of the root)."""
        return len(self.levels) - 1

    @property
    def depth(self) -> int:
        """Number of levels (``height + 1``)."""
        return len(self.levels)

    @property
    def width(self) -> int:
        """Maximum number of vertices in any level."""
        if not self.levels:
            return 0
        return max(len(level) for level in self.levels)

    @property
    def level_widths(self) -> np.ndarray:
        """Array of per-level sizes."""
        return np.array([len(level) for level in self.levels], dtype=np.intp)

    @property
    def num_reached(self) -> int:
        """Number of vertices reachable from the root."""
        return int(sum(len(level) for level in self.levels))

    def vertices(self) -> np.ndarray:
        """All reached vertices in level order."""
        if not self.levels:
            return np.empty(0, dtype=np.intp)
        return np.concatenate([np.asarray(level, dtype=np.intp) for level in self.levels])


def bfs_graph(pattern: SymmetricPattern) -> sp.csr_matrix:
    """The float64 CSR of *pattern* that the compiled BFS reads.

    A caller that sweeps one pattern many times (the pseudo-peripheral
    searches of :mod:`repro.graph.peripheral`) builds it once and passes it
    as ``graph=`` to every :func:`breadth_first_levels` call.  It is never
    cached on the pattern: there it would keep ~12 bytes per stored nonzero
    (float64 data, int32 indices) alive in every worker's problem cache.
    """
    n = pattern.n
    return sp.csr_matrix(
        (np.ones(pattern.indices.size), pattern.indices, pattern.indptr), shape=(n, n)
    )


def breadth_first_levels(
    pattern: SymmetricPattern, root: int, *, graph: sp.csr_matrix | None = None
) -> RootedLevelStructure:
    """Breadth-first level structure rooted at *root*.

    Parameters
    ----------
    pattern:
        Adjacency structure of the graph.
    root:
        The root vertex (an integer; a sequence raises ``TypeError``).
    graph:
        :func:`bfs_graph` of *pattern*, built per call when omitted.  Only
        the numpy tier reads it.

    Returns
    -------
    RootedLevelStructure
        Only the component containing *root* is leveled; every other vertex
        has ``level_of == -1``.
    """
    n = pattern.n
    root = operator.index(root)
    if root < 0 or root >= n:
        raise ValueError(f"root {root} out of range for n={n}")

    impl = backends.kernel_impl("bfs_levels")
    if impl is not None:
        level_of, order, level_starts, num_levels = impl(
            pattern.indptr, pattern.indices, root, n
        )
        levels = [
            order[level_starts[k] : level_starts[k + 1]].copy()
            for k in range(num_levels)
        ]
        return RootedLevelStructure(root, level_of, levels)

    # scipy's directed BFS is the same queue scan as bfs_levels_kernel: each
    # dequeued vertex appends its undiscovered neighbors in row order.
    if graph is None:
        graph = bfs_graph(pattern)
    order, predecessors = breadth_first_order(
        graph, root, directed=True, return_predecessors=True
    )
    order = order.astype(np.intp)
    reached = order.size
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(reached, dtype=np.intp)
    parent_position = np.empty(reached, dtype=np.intp)
    parent_position[0] = -1
    parent_position[1:] = position[predecessors[order[1:]]]
    # Parent positions never decrease along a queue BFS, so level k + 1
    # starts at the first vertex whose parent sits at or after the start of
    # level k.
    starts = [0, 1]
    while starts[-1] < reached:
        starts.append(int(np.searchsorted(parent_position, starts[-1])))
    levels = [order[a:b] for a, b in zip(starts, starts[1:])]
    level_of = np.full(n, -1, dtype=np.intp)
    level_of[order] = np.repeat(np.arange(len(levels), dtype=np.intp), np.diff(starts))
    return RootedLevelStructure(root, level_of, levels)


def rooted_level_structure(pattern: SymmetricPattern, root: int) -> RootedLevelStructure:
    """Rooted level structure from a single root (alias of :func:`breadth_first_levels`)."""
    return breadth_first_levels(pattern, root)


def bfs_order(
    pattern: SymmetricPattern,
    root: int,
    sort_by_degree: bool = False,
) -> np.ndarray:
    """Return the vertices reachable from *root* in BFS discovery order.

    Parameters
    ----------
    pattern:
        Adjacency structure.
    root:
        Start vertex (an integer; a float raises ``TypeError``).
    sort_by_degree:
        If true, the unvisited neighbours of each dequeued vertex are appended
        in order of nondecreasing degree — this is exactly the enqueuing rule
        of the Cuthill-McKee ordering.

    Returns
    -------
    numpy.ndarray
        Vertices in visitation order (only the component containing *root*).
    """
    n = pattern.n
    root = operator.index(root)
    if root < 0 or root >= n:
        raise ValueError(f"root {root} out of range for n={n}")
    degrees = pattern.degree()

    impl = backends.kernel_impl("bfs_order")
    if impl is not None:
        order, tail = impl(
            pattern.indptr, pattern.indices, degrees, root,
            bool(sort_by_degree), n,
        )
        return order[:tail]

    fresh = np.ones(n, dtype=bool)
    order = np.empty(n, dtype=np.intp)
    order[0] = root
    fresh[root] = False
    tail = 1

    # Whole-level expansion.  The queue scan appends, for each dequeued vertex
    # in turn, its still-unvisited neighbors (optionally degree-sorted); that
    # is exactly: claim each next-level vertex for its first-discovering
    # parent, then order by (parent position, [degree,] adjacency position).
    # np.lexsort is stable, so omitted keys fall back to slab position.
    frontier = order[:1]
    while frontier.size:
        candidates, parents = pattern.claim_frontier(frontier, fresh)
        if candidates.size == 0:
            break
        if sort_by_degree and candidates.size > 1:
            candidates = candidates[np.lexsort((degrees[candidates], parents))]
        fresh[candidates] = False
        order[tail : tail + candidates.size] = candidates
        tail += candidates.size
        frontier = candidates
    return order[:tail]


def distance_from(pattern: SymmetricPattern, root: int) -> np.ndarray:
    """Unweighted graph distance of every vertex from *root* (``-1`` if unreachable)."""
    return breadth_first_levels(pattern, root).level_of
