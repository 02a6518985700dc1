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
import operator
from collections import deque

import numpy as np

from repro import backends
from repro.graph.peripheral import pseudo_diameter
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
    **first** push is the one whose queue position governs tie-breaking.  The
    surviving entries keep their original relative order, which preserves the
    push order (and therefore the exact output) of the per-push code.
    Keeping the last occurrences is keeping the first ones of the reversed
    batch and reversing back.
    """
    if keep_first:
        return list(dict.fromkeys(targets))
    return list(dict.fromkeys(reversed(targets)))[::-1]


def _sloan_component(pattern: SymmetricPattern, w1: int, w2: int) -> np.ndarray:
    n = pattern.n
    if n == 1:
        return np.zeros(1, dtype=np.intp)
    start, _end, _su, end_structure = pseudo_diameter(pattern)
    dist_to_end = end_structure.level_of
    degrees = pattern.degree()

    # Backend dispatch: the loop kernel's heap of (negated priority, push
    # counter) entries pops in exactly the bucket order below and dedupes
    # push batches by the same rule, so the numbering is bit-identical on
    # every tier.
    impl = backends.kernel_impl("sloan")
    if impl is not None:
        return impl(
            pattern.indptr, pattern.indices, degrees, dist_to_end,
            int(start), int(w1), int(w2), n,
        )

    # Python lists: the loop touches single entries, where list indexing
    # beats numpy scalar access.  Rows are converted when scanned.
    indptr, indices = pattern.indptr.tolist(), pattern.indices
    status = [_INACTIVE] * n
    # current degree = number of unnumbered, inactive/preactive neighbours + self if inactive
    priority = (-w1 * (degrees + 1) + w2 * dist_to_end).astype(np.int64).tolist()
    order: list[int] = []
    keep_first = w1 == 0

    # Bucket queue with lazy deletion: a FIFO deque of pushed vertices per
    # priority value, and a heap of the (negated) values that have a live
    # bucket.  Popping the front of the highest bucket is the (highest
    # priority, earliest push) order of a heap of (-priority, counter, v)
    # entries, the order sloan_kernel pops in.
    buckets: dict[int, deque] = {}
    tops: list[int] = []

    def push(vertices) -> None:
        for v in vertices:
            p = priority[v]
            bucket = buckets.get(p)
            if bucket is None:
                buckets[p] = deque((v,))
                heapq.heappush(tops, -p)
            else:
                bucket.append(v)

    status[start] = _PREACTIVE
    push((start,))
    while len(order) < n:
        # Pop until we find a vertex that is still unnumbered and whose
        # priority has not changed since it was pushed.
        while tops:
            p = -tops[0]
            bucket = buckets[p]
            v = bucket.popleft()
            if not bucket:
                del buckets[p]
                heapq.heappop(tops)
            if status[v] != _NUMBERED and p == priority[v]:
                break
        else:  # pragma: no cover - defensive; component is connected
            v = next(u for u in range(n) if status[u] != _NUMBERED)

        # First ring: every unnumbered neighbour loses v from its unnumbered
        # count; numbering a preactive vertex additionally activates them.
        ring1 = [w for w in indices[indptr[v] : indptr[v + 1]].tolist()
                 if status[w] != _NUMBERED]
        for w in ring1:
            priority[w] += w1
        if status[v] == _PREACTIVE:
            for w in ring1:
                if status[w] == _INACTIVE:
                    status[w] = _PREACTIVE
        push(ring1)
        order.append(v)
        status[v] = _NUMBERED

        # Second ring: neighbours of newly preactive vertices gain priority
        # because their future front growth shrinks.  Pushes are deduplicated
        # to one governing queue entry per vertex; a single row is
        # duplicate-free already.
        newly_active = [w for w in ring1 if status[w] == _PREACTIVE]
        if newly_active:
            targets: list[int] = []
            for w in newly_active:
                status[w] = _ACTIVE
                targets += [x for x in indices[indptr[w] : indptr[w + 1]].tolist()
                            if status[x] != _NUMBERED]
            for x in targets:
                priority[x] += w1
                if status[x] == _INACTIVE:
                    status[x] = _PREACTIVE
            if len(newly_active) > 1:
                targets = _dedupe_batch(targets, keep_first)
            push(targets)

    return np.array(order, dtype=np.intp)


def sloan_ordering(pattern, *, w1: int = 2, w2: int = 1) -> Ordering:
    """Sloan's ordering of a symmetric matrix structure.

    Parameters
    ----------
    pattern:
        Matrix structure.
    w1, w2:
        Sloan's weights for the front-growth and distance-to-end terms
        (defaults 2 and 1, the values recommended in the original paper).
        Both must be integers: a float raises ``TypeError`` on every backend
        tier.

    Returns
    -------
    Ordering
        ``algorithm == "sloan"``.
    """
    w1, w2 = operator.index(w1), operator.index(w2)
    ordering = order_by_components(
        pattern, lambda sub: _sloan_component(sub, w1, w2), algorithm="sloan",
        metadata={"w1": w1, "w2": w2},
    )
    return ordering
