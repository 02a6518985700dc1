"""Breadth-first search, rooted level structures and distances.

The baseline orderings (Cuthill-McKee, reverse Cuthill-McKee, GPS, GK) are all
built on *rooted level structures*: the partition of the vertex set into BFS
levels ``L_0 = {r}, L_1 = adj(L_0), ...`` from a root ``r`` (George & Liu,
1981, Ch. 4).  This module provides those primitives as whole-frontier array
operations over CSR neighbor slabs
(:meth:`repro.sparse.pattern.SymmetricPattern.neighbor_slab`): each BFS step
expands the entire frontier with one gather + mask + first-occurrence dedupe
instead of a Python loop over vertices.  The discovery order is identical to
the vertex-at-a-time queue scan of :mod:`repro.backends.kernels`, the
reference these primitives are tested against (``tests/test_backends.py``),
so orderings built on them are bit-for-bit unchanged.

Both entry points are backend-dispatched (:mod:`repro.backends`): when the
``python`` or ``numba`` tier is selected, that queue-scan kernel runs
instead of the frontier expansion below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import backends
from repro.sparse.pattern import SymmetricPattern

__all__ = [
    "RootedLevelStructure",
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
        The root vertex ``r`` (or a tuple of roots for multi-rooted
        structures, as used by GPS's combined structure).
    level_of:
        Array of length ``n`` giving the level index of every vertex, or
        ``-1`` for vertices unreachable from the root(s).
    levels:
        List of arrays; ``levels[k]`` holds the vertices at level ``k``
        in order of discovery.
    """

    root: tuple[int, ...]
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
        """Number of vertices reachable from the root(s)."""
        return int(sum(len(level) for level in self.levels))

    def vertices(self) -> np.ndarray:
        """All reached vertices in level order."""
        if not self.levels:
            return np.empty(0, dtype=np.intp)
        return np.concatenate([np.asarray(level, dtype=np.intp) for level in self.levels])


def breadth_first_levels(
    pattern: SymmetricPattern,
    roots: int | Sequence[int],
    restrict_to: np.ndarray | None = None,
) -> RootedLevelStructure:
    """Breadth-first level structure rooted at *roots*.

    Parameters
    ----------
    pattern:
        Adjacency structure of the graph.
    roots:
        A single root vertex or a sequence of roots (all placed in level 0).
    restrict_to:
        Optional boolean mask of length ``n``; vertices where the mask is
        ``False`` are treated as absent from the graph.

    Returns
    -------
    RootedLevelStructure
    """
    n = pattern.n
    if np.isscalar(roots):
        root_list = [int(roots)]
    else:
        root_list = [int(r) for r in roots]
    for r in root_list:
        if r < 0 or r >= n:
            raise ValueError(f"root {r} out of range for n={n}")

    allowed = np.ones(n, dtype=bool) if restrict_to is None else np.asarray(restrict_to, dtype=bool)

    impl = backends.kernel_impl("bfs_levels")
    if impl is not None:
        roots_arr = np.asarray(root_list, dtype=np.intp)
        level_of, order, level_starts, num_levels = impl(
            pattern.indptr, pattern.indices, roots_arr,
            np.ascontiguousarray(allowed), n,
        )
        levels = [
            order[level_starts[k] : level_starts[k + 1]].copy()
            for k in range(num_levels)
        ]
        return RootedLevelStructure(tuple(root_list), level_of, levels)

    level_of = np.full(n, -1, dtype=np.intp)
    levels: list[np.ndarray] = []

    frontier = np.array([r for r in root_list if allowed[r]], dtype=np.intp)
    if frontier.size == 0:
        return RootedLevelStructure(tuple(root_list), level_of, [])
    level_of[frontier] = 0
    levels.append(frontier.copy())

    # Whole-frontier expansion: vertices where `fresh` is true are still
    # undiscovered; frontier_expand returns the next level in the discovery
    # order of the vertex-at-a-time scan.
    fresh = allowed.copy()
    fresh[frontier] = False
    current_level = 0
    while frontier.size:
        frontier = pattern.frontier_expand(frontier, fresh)
        if frontier.size == 0:
            break
        current_level += 1
        level_of[frontier] = current_level
        fresh[frontier] = False
        levels.append(frontier)

    return RootedLevelStructure(tuple(root_list), level_of, levels)


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
        Start vertex.
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
    if root < 0 or root >= n:
        raise ValueError(f"root {root} out of range for n={n}")
    degrees = pattern.degree()

    impl = backends.kernel_impl("bfs_order")
    if impl is not None:
        order, tail = impl(
            pattern.indptr, pattern.indices, degrees, int(root),
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
