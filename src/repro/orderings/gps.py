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
import operator

import numpy as np

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


def _checked_numbering_input(levels, start, n: int) -> tuple[np.ndarray, int]:
    """*levels* as a contiguous ``intp`` array and *start* as an int.

    Raises ``TypeError`` for a non-integral *start* or non-integer *levels*,
    and ``ValueError`` for a *start* outside ``0..n-1`` or *levels* that is
    not 1-D of length *n* or holds a negative value.  The reference
    numbering (:func:`repro.reference.number_by_levels_reference`) checks
    its input here too, so both raise the same errors.
    """
    start = operator.index(start)
    if not 0 <= start < n:
        raise ValueError(f"start {start} out of range for n={n}")
    levels = np.asarray(levels)
    if levels.shape != (n,):
        raise ValueError(f"levels must have shape ({n},), got {levels.shape}")
    if not np.issubdtype(levels.dtype, np.integer):
        raise TypeError(f"levels must be an integer array, got dtype {levels.dtype}")
    levels = np.ascontiguousarray(levels, dtype=np.intp)
    if levels.min() < 0:
        raise ValueError("levels must be nonnegative")
    return levels, start


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

    *levels* is a 1-D integer array giving every vertex a nonnegative level,
    and *start*, the vertex numbered first, an integer in ``0..n-1``; other
    input raises ``TypeError`` or ``ValueError``.

    Returns
    -------
    numpy.ndarray
        New-to-old permutation covering every vertex of the component.
    """
    if tie_break not in ("degree", "king"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    king = tie_break == "king"
    n = pattern.n
    levels, start = _checked_numbering_input(levels, start, n)
    degrees = pattern.degree()

    # Python lists: the loop touches single entries, where list indexing
    # beats numpy scalar access.  Rows are converted when scanned.
    indptr, indices = pattern.indptr.tolist(), pattern.indices
    # A numbered vertex's level becomes -1, so level_of[x] == lvl picks the
    # unnumbered vertices of level lvl.
    level_of = levels.tolist()
    # Lowest numbered neighbour's number for each vertex, n while it has
    # none: every real number is < n, so n orders exactly like +inf.  A
    # vertex numbered untouched gets its own number, so bnn == n means
    # "unnumbered and untouched".
    bnn = [n] * n
    # King's criterion ranks candidates by their active-front growth: the
    # number of unnumbered neighbours not yet adjacent to a numbered vertex.
    # A vertex leaves the counts exactly once (when it is numbered while
    # untouched, or on its first touch), so maintaining them is O(nnz) for
    # the whole numbering.
    front_growth = degrees.tolist()

    # One int per heap entry encodes the lexicographic key
    # (untouched, front growth, bnn, degree, v) for King and (bnn, degree, v)
    # for GPS: fields of fixed bit width, v in the lowest.  Front growth and
    # degree are at most the maximum degree, and bnn at most n.
    vertex_bits = (n - 1).bit_length()
    degree_bits = int(degrees.max(initial=0)).bit_length()
    bnn_bits = n.bit_length()
    tail_bits = vertex_bits + degree_bits
    vertex_mask = (1 << vertex_bits) - 1
    untouched = 1 << degree_bits
    tail = ((degrees.astype(np.int64) << vertex_bits) + np.arange(n)).tolist()

    def key(x: int) -> int:
        b = bnn[x]
        if not king:
            return (b << tail_bits) | tail[x]
        growth = front_growth[x] if b < n else front_growth[x] | untouched
        return (((growth << bnn_bits) | b) << tail_bits) | tail[x]

    def settle(v: int, number: int) -> list:
        """Give *v* its *number*; return the vertices whose key changed,
        possibly repeated."""
        row = indices[indptr[v] : indptr[v + 1]].tolist()
        if bnn[v] == n:
            # v leaves its neighbours' front growth.  In v's level only the
            # ones touched below change key: v was chosen untouched, so no
            # unnumbered member of its level was touched yet.
            bnn[v] = number
            if king:
                for w in row:
                    front_growth[w] -= 1
        # Numbers only grow, so a neighbour's bnn changes on its first touch.
        touched = [w for w in row if bnn[w] == n]
        for w in touched:
            bnn[w] = number
        if not king:
            return touched
        changed = touched.copy()
        for w in touched:
            slab = indices[indptr[w] : indptr[w + 1]].tolist()
            for x in slab:
                front_growth[x] -= 1
            changed += slab
        return changed

    order = [start]
    level_of[start] = -1
    settle(start, 0)

    # Within a level the next vertex is the key minimum.  No key part ever
    # increases (bnn is set once, front growth only drops, a vertex never
    # becomes untouched again), so a lazy-deletion heap that re-pushes each
    # vertex whose key changed, once per numbering step, pops each vertex
    # first with its current key: a pop of an already numbered vertex is
    # stale.
    by_level = np.argsort(levels, kind="stable")
    bounds = np.cumsum(np.bincount(levels)).tolist()
    pop, push = heapq.heappop, heapq.heappush
    for lvl, (lo, hi) in enumerate(zip([0] + bounds, bounds)):
        heap = [key(x) for x in by_level[lo:hi].tolist() if level_of[x] == lvl]
        heapq.heapify(heap)
        while heap:
            v = pop(heap) & vertex_mask
            if level_of[v] != lvl:
                continue
            level_of[v] = -1
            changed = settle(v, len(order))
            order.append(v)
            for x in {x for x in changed if level_of[x] == lvl}:
                push(heap, key(x))

    if len(order) != n:  # pragma: no cover - defensive
        raise AssertionError("level numbering did not cover the component")
    return np.array(order, dtype=np.intp)


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
