"""Hybrid spectral + local ordering (the extension suggested in Section 4).

    "A possibility is to make limited use of a local reordering strategy based
    on the adjacency structure to improve the envelope parameters obtained
    from the spectral method."

The local pass converts the spectral ordering into an *adjacency ordering*
(Section 2.4): starting from the vertex with the smallest Fiedler component
(in the winning sort direction), repeatedly number the front vertex (a
vertex adjacent to the numbered set) with the smallest Fiedler component.
This keeps the global shape of the spectral ordering while guaranteeing the
adjacency property that makes frontwidths small.

The refinement never returns an ordering with a larger envelope than the
plain spectral one — the better of the refined and original orderings is kept.
"""

from __future__ import annotations

import numpy as np

from repro.envelope.metrics import envelope_size
from repro.orderings.base import Ordering, order_by_components
from repro.orderings.spectral import _spectral_component
from repro.sparse.ops import structure_from_matrix
from repro.sparse.pattern import SymmetricPattern

__all__ = ["hybrid_spectral_ordering"]


def _adjacency_refine(pattern: SymmetricPattern, priorities: np.ndarray) -> np.ndarray:
    """Priority-first traversal: always number the frontier vertex with smallest priority."""
    import heapq

    n = pattern.n
    numbered = np.zeros(n, dtype=bool)
    in_heap = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.intp)
    count = 0
    start = int(np.argmin(priorities))
    heap = [(float(priorities[start]), start)]
    in_heap[start] = True
    while count < n:
        if not heap:
            # Disconnected pieces within a "connected" call cannot happen, but
            # guard anyway: continue from the unnumbered vertex of smallest priority.
            remaining = np.flatnonzero(~numbered)
            v = int(remaining[np.argmin(priorities[remaining])])
            heap = [(float(priorities[v]), v)]
            in_heap[v] = True
        _, v = heapq.heappop(heap)
        if numbered[v]:
            continue
        numbered[v] = True
        order[count] = v
        count += 1
        for w in pattern.neighbors(v):
            if not numbered[w] and not in_heap[w]:
                heapq.heappush(heap, (float(priorities[w]), int(w)))
                in_heap[w] = True
    return order


def hybrid_spectral_ordering(
    pattern,
    *,
    method: str = "auto",
    tol: float = 1e-8,
    rng=None,
    **solver_options,
) -> Ordering:
    """Spectral ordering followed by the adjacency refinement pass.

    Parameters
    ----------
    pattern:
        Matrix structure.
    method, tol, rng, **solver_options:
        Passed to the underlying spectral ordering / Fiedler solver.

    Returns
    -------
    Ordering
        ``algorithm == "hybrid-spectral"``.
    """
    pattern = structure_from_matrix(pattern)

    def _component(sub: SymmetricPattern) -> np.ndarray:
        details: list = []
        base = _spectral_component(sub, method, tol, rng, solver_options, details)
        if sub.n <= 2:
            return base
        detail = details[-1]
        vec = np.asarray(detail["fiedler_vector"], dtype=np.float64)
        if detail["direction"] == "nonincreasing":
            vec = -vec
        refined = _adjacency_refine(sub, vec)
        if envelope_size(sub, refined) <= detail[f"envelope_{detail['direction']}"]:
            return refined
        return base

    return order_by_components(
        pattern,
        _component,
        algorithm="hybrid-spectral",
        metadata={"method": method},
    )
