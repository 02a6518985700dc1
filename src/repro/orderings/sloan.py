"""Sloan's profile/wavefront-reducing ordering.

Sloan (1986) is the other classical envelope-reduction heuristic and the
natural "local" competitor the paper's Section 4 alludes to when it discusses
combining spectral information with local reordering strategies.  It is
included both as an extra baseline and as the local engine of the hybrid
ordering (:mod:`repro.orderings.hybrid`).

The algorithm numbers vertices one at a time, always choosing the eligible
vertex with the highest priority

``P(v) = -W1 * incr(v) + W2 * dist(v, e)``

where ``incr(v)`` is the growth of the active front caused by numbering ``v``
(its unnumbered, not-yet-active neighbours plus itself if not active), and
``dist(v, e)`` is the graph distance to the end ``e`` of a pseudo-diameter.
Eligible vertices are those already adjacent to the front ("active" or
"preactive" in Sloan's terminology).  The classical weights ``W1=2, W2=1``
are the defaults.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro import backends
from repro.graph.peripheral import pseudo_diameter
from repro.graph.traversal import distance_from
from repro.orderings.base import Ordering, order_by_components
from repro.sparse.pattern import SymmetricPattern

__all__ = ["sloan_ordering"]

# Sloan vertex states.
_INACTIVE, _PREACTIVE, _ACTIVE, _NUMBERED = 0, 1, 2, 3


def _dedupe_batch(targets: list, keep_first: bool) -> list:
    """Deduplicate a push batch, keeping each vertex's governing occurrence.

    With positive (or any nonzero) ``w1`` a vertex's priority changes on every
    increment, so only its **last** push of the numbering step can match the
    final priority — earlier entries are dead weight the lazy-deletion pop
    discards anyway.  With ``w1 == 0`` nothing ever invalidates, so the
    **first** push is the one whose heap counter governs tie-breaking.  The
    surviving entries keep their original relative order, which preserves the
    counter ordering (and therefore the exact output) of the per-push code.
    Batches are small (a couple of neighborhoods), so a dict/set sweep beats
    array machinery.
    """
    if keep_first:
        return list(dict.fromkeys(targets))
    seen: set = set()
    out: list = []
    for v in reversed(targets):
        if v not in seen:
            seen.add(v)
            out.append(v)
    out.reverse()
    return out


def _sloan_component(pattern: SymmetricPattern, w1: int, w2: int) -> np.ndarray:
    n = pattern.n
    if n == 1:
        return np.zeros(1, dtype=np.intp)
    start, end, _su, _sv = pseudo_diameter(pattern)
    dist_to_end = distance_from(pattern, end)
    degrees = pattern.degree()

    # Backend dispatch: the loop-form kernel replicates the heapq
    # lazy-deletion semantics below exactly (same push counters, same
    # dedupe rule), so the numbering is bit-identical on every tier.
    impl = backends.kernel_impl("sloan")
    if impl is not None:
        return impl(
            pattern.indptr, pattern.indices, degrees, dist_to_end,
            int(start), int(w1), int(w2), n,
        )

    status = np.full(n, _INACTIVE, dtype=np.int8)
    # current degree = number of unnumbered, inactive/preactive neighbours + self if inactive
    priority = (-w1 * (degrees + 1) + w2 * dist_to_end).astype(np.int64)

    order = np.empty(n, dtype=np.intp)
    count = 0
    # Max-heap via negated priorities; lazy deletion with an entry counter.
    # The heap handles only the argmax; all priority maintenance below is
    # batched array arithmetic over neighbor slabs.
    heap: list[tuple[int, int, int]] = []
    counter = 0
    push = heapq.heappush
    keep_first = w1 == 0

    status[start] = _PREACTIVE
    push(heap, (-int(priority[start]), counter, int(start)))
    counter += 1

    indptr, indices = pattern.indptr, pattern.indices
    while count < n:
        # Pop until we find a vertex that is still unnumbered and whose
        # priority has not been superseded by a later push.
        while heap:
            neg_prio, _tie, v = heapq.heappop(heap)
            if status[v] != _NUMBERED and -neg_prio == priority[v]:
                break
        else:  # pragma: no cover - defensive; component is connected
            remaining = np.flatnonzero(status != _NUMBERED)
            v = int(remaining[0])

        # First ring: every unnumbered neighbour loses v from its unnumbered
        # count; numbering a preactive vertex additionally activates them.
        nbrs = indices[indptr[v] : indptr[v + 1]]
        ring1 = nbrs[status[nbrs] != _NUMBERED]
        priority[ring1] += w1  # rows are duplicate-free: plain fancy-index add
        if status[v] == _PREACTIVE:
            status[ring1[status[ring1] == _INACTIVE]] = _PREACTIVE
        for w, prio in zip(ring1.tolist(), priority[ring1].tolist()):
            push(heap, (-prio, counter, w))
            counter += 1

        order[count] = v
        status[v] = _NUMBERED
        count += 1

        # Second ring: neighbours of newly preactive vertices gain priority
        # because their future front growth shrinks.  The per-vertex loop is
        # replaced by one scatter-add over the concatenated neighbor slab;
        # pushes are deduplicated to one governing heap entry per vertex.
        newly_active = ring1[status[ring1] == _PREACTIVE]
        if newly_active.size:
            status[newly_active] = _ACTIVE
            slab, _offsets = pattern.neighbor_slab(newly_active)
            targets = slab[status[slab] != _NUMBERED]
            if newly_active.size == 1:
                # one duplicate-free row: plain fancy-index add, no dedupe
                priority[targets] += w1
                batch = targets.tolist()
            else:
                np.add.at(priority, targets, w1)
                batch = _dedupe_batch(targets.tolist(), keep_first)
            if batch:
                status[targets[status[targets] == _INACTIVE]] = _PREACTIVE
                for x, prio in zip(batch, priority[batch].tolist()):
                    push(heap, (-prio, counter, x))
                    counter += 1

    return order


def sloan_ordering(pattern, *, w1: int = 2, w2: int = 1) -> Ordering:
    """Sloan's ordering of a symmetric matrix structure.

    Parameters
    ----------
    pattern:
        Matrix structure.
    w1, w2:
        Sloan's weights for the front-growth and distance-to-end terms
        (defaults 2 and 1, the values recommended in the original paper).

    Returns
    -------
    Ordering
        ``algorithm == "sloan"``.
    """
    ordering = order_by_components(
        pattern, lambda sub: _sloan_component(sub, w1, w2), algorithm="sloan",
        metadata={"w1": w1, "w2": w2},
    )
    return ordering
