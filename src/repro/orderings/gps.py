"""The Gibbs-Poole-Stockmeyer (GPS) bandwidth/profile-reducing ordering.

Gibbs, Poole & Stockmeyer (1976) improve on Cuthill-McKee in two ways
(paper Section 4):

    "The GPS and GK algorithms use more sophisticated techniques to create a
    more general level structure by combining the information from two rooted
    level structures obtained from the endpoints of a pseudo-diameter ... They
    also use more refined numbering techniques to reduce the size of the
    envelope and the bandwidth."

The implementation follows the three phases of the original algorithm:

1. **Pseudo-diameter** — find endpoints ``u, v`` whose rooted level
   structures are deep (:func:`repro.graph.peripheral.pseudo_diameter`).
2. **Combined level structure** — each vertex gets the pair
   ``(level in L(u), height - level in L(v))``; vertices where the two agree
   are fixed, and each connected component of the remaining vertices is
   assigned wholesale to whichever of the two levelings yields the smaller
   maximum level width.
3. **Numbering** — vertices are numbered level by level starting from the
   lower-degree endpoint; within a level, vertices adjacent to the
   lowest-numbered vertices are taken first, ties broken by degree.  Both the
   resulting ordering and its reverse are evaluated and the one with the
   smaller envelope is returned (the reversal step plays the same role as in
   RCM).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro import backends
from repro.envelope.metrics import envelope_size
from repro.graph.components import connected_components
from repro.graph.peripheral import pseudo_diameter
from repro.orderings.base import Ordering, order_by_components
from repro.sparse.pattern import SymmetricPattern

__all__ = ["gps_ordering", "combined_level_structure", "number_by_levels"]


def combined_level_structure(pattern: SymmetricPattern) -> tuple[np.ndarray, int, int, int]:
    """Phase 1 + 2 of GPS: pseudo-diameter and combined level assignment.

    Returns
    -------
    (levels, height, start, end):
        *levels* assigns every vertex a level in ``0..height``; *start* and
        *end* are the pseudo-diameter endpoints, with *start* the endpoint of
        smaller degree (the one numbering begins from).
    """
    n = pattern.n
    if n == 1:
        return np.zeros(1, dtype=np.intp), 0, 0, 0
    u, v, struct_u, struct_v = pseudo_diameter(pattern)
    height = struct_u.height
    level_u = struct_u.level_of
    # Reverse leveling from v so that both assign u's side small levels.
    level_v_rev = struct_v.height - struct_v.level_of

    levels = np.full(n, -1, dtype=np.intp)
    agree = level_u == level_v_rev
    levels[agree] = level_u[agree]

    unassigned = np.flatnonzero(~agree)
    if unassigned.size:
        # Current level widths from the already-fixed vertices.
        width_u = np.bincount(levels[agree], minlength=height + 1).astype(np.int64)
        # Connected components of the subgraph induced on unassigned vertices,
        # processed in order of decreasing size (as GPS specifies).
        sub = pattern.subpattern(unassigned)
        num_comp, labels = connected_components(sub)
        comp_vertices = [unassigned[labels == c] for c in range(num_comp)]
        comp_vertices.sort(key=len, reverse=True)
        for comp in comp_vertices:
            lu = np.clip(level_u[comp], 0, height)
            lv = np.clip(level_v_rev[comp], 0, height)
            add_u = np.bincount(lu, minlength=height + 1)
            add_v = np.bincount(lv, minlength=height + 1)
            max_if_u = int((width_u + add_u).max())
            max_if_v = int((width_u + add_v).max())
            if max_if_u <= max_if_v:
                levels[comp] = lu
                width_u += add_u
            else:
                levels[comp] = lv
                width_u += add_v
    # Fallback for vertices unreachable from u (cannot happen on a connected
    # component, kept for safety): give them the deepest level.
    levels[levels < 0] = height

    degrees = pattern.degree()
    if degrees[u] <= degrees[v]:
        start, end = int(u), int(v)
    else:
        start, end = int(v), int(u)
        levels = np.max(levels) - levels  # renumber so `start` sits in level 0
    # Normalise so the minimum level is 0.
    levels = levels - levels.min()
    return levels.astype(np.intp), int(levels.max()), start, end


def number_by_levels(
    pattern: SymmetricPattern,
    levels: np.ndarray,
    start: int,
    tie_break: str = "degree",
) -> np.ndarray:
    """Phase 3 of GPS/GK: number vertices level by level.

    Within each level the next vertex chosen is one adjacent to the
    lowest-numbered already-numbered vertex; ties are broken according to
    *tie_break*:

    * ``"degree"`` — smallest degree first (the GPS rule);
    * ``"king"`` — smallest growth of the active front (the Gibbs-King rule):
      the candidate introducing the fewest new unnumbered neighbours that are
      not yet adjacent to a numbered vertex.

    Returns
    -------
    numpy.ndarray
        New-to-old permutation covering every vertex of the component.
    """
    if tie_break not in ("degree", "king"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    king = tie_break == "king"
    n = pattern.n
    degrees = pattern.degree()

    impl = backends.kernel_impl("number_by_levels")
    if impl is not None:
        return impl(
            pattern.indptr, pattern.indices, degrees,
            np.ascontiguousarray(levels, dtype=np.intp), int(start), king, n,
        )

    indptr, indices = pattern.indptr, pattern.indices
    numbered = np.zeros(n, dtype=bool)
    # lowest numbered neighbour's number for each vertex (n as "none yet":
    # every real number is < n, so n orders exactly like +inf did)
    best_neighbor_number = np.full(n, n, dtype=np.intp)
    order = np.empty(n, dtype=np.intp)
    count = 0

    # King's criterion ranks candidates by their active-front growth: the
    # number of unnumbered neighbors not yet adjacent to a numbered vertex.
    # Recomputing that per candidate per step is O(width * degree) every
    # step; instead maintain it incrementally — a vertex leaves the counts
    # exactly once (when it is numbered while untouched, or on its first
    # touch), so total maintenance is O(nnz) for the whole numbering.
    front_growth = degrees.copy() if king else None

    def _number_vertex(v: int, number: int) -> np.ndarray:
        """Number *v*; return the vertices whose selection key changed."""
        nbrs = indices[indptr[v] : indptr[v + 1]]
        # Numbers only grow, so a neighbor's lowest numbered neighbor changes
        # exactly on its first touch.
        newly_touched = nbrs[(~numbered[nbrs]) & (best_neighbor_number[nbrs] >= n)]
        best_neighbor_number[newly_touched] = number
        if not king:
            return newly_touched
        if best_neighbor_number[v] >= n:
            # v was counted as an untouched unnumbered neighbor; it is
            # numbered now (its own bnn never changes — v is not in nbrs).
            # Only newly touched keys change in v's level: v was chosen
            # untouched, so no member of its level was touched yet.
            front_growth[nbrs] -= 1
        if not newly_touched.size:
            return newly_touched
        slab, _offsets = pattern.neighbor_slab(newly_touched)
        np.subtract.at(front_growth, slab, 1)
        return np.concatenate((newly_touched, slab))

    def _keys(vertices: np.ndarray):
        """Selection keys: the touched (bnn < n) candidates first, then
        [front growth,] bnn, degree and the vertex id itself."""
        bnn = best_neighbor_number[vertices]
        if king:
            return zip((bnn >= n).tolist(), front_growth[vertices].tolist(),
                       bnn.tolist(), degrees[vertices].tolist(), vertices.tolist())
        return zip(bnn.tolist(), degrees[vertices].tolist(), vertices.tolist())

    # Number the start vertex first.
    order[count] = start
    numbered[start] = True
    _number_vertex(start, 0)
    count += 1

    # Within a level the next vertex is the lexicographic key minimum.  No
    # key part ever increases (bnn is set once, front growth only drops, a
    # vertex never becomes untouched again), so a lazy-deletion heap that
    # re-pushes a vertex whenever its key changes pops each vertex first
    # with its current key: a pop of an already numbered vertex is stale.
    by_level = np.argsort(levels, kind="stable")
    level_start = np.zeros(int(levels.max(initial=0)) + 2, dtype=np.intp)
    np.cumsum(np.bincount(levels), out=level_start[1:])
    pop, push = heapq.heappop, heapq.heappush
    for lvl in range(level_start.size - 1):
        members = by_level[level_start[lvl] : level_start[lvl + 1]]
        heap = list(_keys(members[~numbered[members]]))
        heapq.heapify(heap)
        while heap:
            chosen = pop(heap)[-1]
            if numbered[chosen]:
                continue
            order[count] = chosen
            numbered[chosen] = True
            changed = _number_vertex(chosen, count)
            count += 1
            if changed.size:
                changed = changed[(levels[changed] == lvl) & ~numbered[changed]]
                for key in _keys(changed):
                    push(heap, key)

    if count != n:  # pragma: no cover - defensive
        raise AssertionError("level numbering did not cover the component")
    return order


def _gps_component(pattern: SymmetricPattern) -> np.ndarray:
    if pattern.n == 1:
        return np.zeros(1, dtype=np.intp)
    levels, _height, start, _end = combined_level_structure(pattern)
    forward = number_by_levels(pattern, levels, start, tie_break="degree")
    backward = forward[::-1].copy()
    if envelope_size(pattern, backward) < envelope_size(pattern, forward):
        return backward
    return forward


def gps_ordering(pattern) -> Ordering:
    """Gibbs-Poole-Stockmeyer ordering of a symmetric matrix structure.

    Returns
    -------
    Ordering
        ``algorithm == "gps"``; metadata records the number of components.
    """
    return order_by_components(pattern, _gps_component, algorithm="gps")
