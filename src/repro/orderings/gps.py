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
        width_v = width_u.copy()
        # Connected components of the subgraph induced on unassigned vertices,
        # processed in order of decreasing size (as GPS specifies).
        mask = ~agree
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
        del mask, width_v
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
    height = int(levels.max(initial=0))

    # King's criterion ranks candidates by their active-front growth: the
    # number of unnumbered neighbors not yet adjacent to a numbered vertex.
    # Recomputing that per candidate per step is O(width * degree) every
    # step; instead maintain it incrementally — a vertex leaves the counts
    # exactly once (when it is numbered while untouched, or on its first
    # touch), so total maintenance is O(nnz) for the whole numbering.
    front_growth = degrees.copy() if king else None

    def _number_vertex(v: int, number: int) -> None:
        nbrs = indices[indptr[v] : indptr[v + 1]]
        if king:
            if best_neighbor_number[v] >= n:
                # v was counted as an untouched unnumbered neighbor; it is
                # numbered now (its own bnn never changes — v is not in nbrs).
                front_growth[nbrs] -= 1
            newly_touched = nbrs[(~numbered[nbrs]) & (best_neighbor_number[nbrs] >= n)]
            if newly_touched.size:
                slab, _offsets = pattern.neighbor_slab(newly_touched)
                np.subtract.at(front_growth, slab, 1)
        best_neighbor_number[nbrs] = np.minimum(best_neighbor_number[nbrs], number)

    # Number the start vertex first.
    order[count] = start
    numbered[start] = True
    _number_vertex(start, 0)
    count += 1

    # The selection rule is a lexicographic argmin over the remaining level
    # members; evaluate it with whole-array reductions over the member slab
    # instead of a Python min() over per-vertex key tuples.
    for lvl in range(height + 1):
        members = np.flatnonzero(levels == lvl)
        members = members[~numbered[members]].astype(np.intp)
        alive = np.ones(members.size, dtype=bool)
        for _ in range(members.size):
            pool = members[alive]
            bnn = best_neighbor_number[pool]
            touched = bnn < n
            candidates = pool[touched] if touched.any() else pool
            if king:
                chosen = _lex_argmin(
                    candidates, front_growth[candidates],
                    best_neighbor_number[candidates], degrees[candidates],
                )
            else:
                chosen = _lex_argmin(
                    candidates, best_neighbor_number[candidates], degrees[candidates]
                )
            alive[np.searchsorted(members, chosen)] = False
            order[count] = chosen
            numbered[chosen] = True
            _number_vertex(chosen, count)
            count += 1

    if count != n:  # pragma: no cover - defensive
        raise AssertionError("level numbering did not cover the component")
    return order


def _lex_argmin(vertices: np.ndarray, *keys: np.ndarray) -> int:
    """The vertex minimizing ``(*keys, vertex)`` lexicographically.

    Each key column narrows the tie set in turn; the vertex id itself is the
    final tie-break, so the minimum is unique.
    """
    selection = np.arange(vertices.size)
    for key in keys:
        if selection.size == 1:
            return int(vertices[selection[0]])
        narrowed = key[selection]
        selection = selection[narrowed == narrowed.min()]
    return int(vertices[selection].min())


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
