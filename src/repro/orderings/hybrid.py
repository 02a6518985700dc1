"""Hybrid spectral + local ordering (the extension suggested in Section 4).

    "A possibility is to make limited use of a local reordering strategy based
    on the adjacency structure to improve the envelope parameters obtained
    from the spectral method."

Two local strategies are provided on top of the spectral ordering:

* ``"adjacency"`` (default) — convert the spectral ordering into an
  *adjacency ordering* (Section 2.4): starting from the vertex with the
  smallest Fiedler component, repeatedly number the front vertex (a vertex
  adjacent to the numbered set) with the smallest Fiedler component.  This
  keeps the global shape of the spectral ordering while guaranteeing the
  adjacency property that makes frontwidths small.
* ``"window"`` — a sliding-window local search: within every window of
  ``window`` consecutive positions, greedily move the vertex whose relocation
  most reduces the envelope size (first-improvement, a bounded number of
  sweeps).

Both refinements never return an ordering with a larger envelope than the
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


def _window_refine(
    pattern: SymmetricPattern, perm: np.ndarray, window: int, sweeps: int
) -> np.ndarray:
    """Bounded sliding-window first-improvement search on the envelope size."""
    best = perm.copy()
    best_size = envelope_size(pattern, best)
    n = best.size
    for _ in range(sweeps):
        improved = False
        for start in range(0, max(1, n - window + 1), max(1, window // 2)):
            stop = min(n, start + window)
            for i in range(start, stop):
                for j in range(i + 1, stop):
                    candidate = best.copy()
                    candidate[i], candidate[j] = candidate[j], candidate[i]
                    size = envelope_size(pattern, candidate)
                    if size < best_size:
                        best, best_size = candidate, size
                        improved = True
        if not improved:
            break
    return best


def hybrid_spectral_ordering(
    pattern,
    *,
    strategy: str = "adjacency",
    method: str = "auto",
    tol: float = 1e-8,
    rng=None,
    window: int = 16,
    sweeps: int = 2,
    **solver_options,
) -> Ordering:
    """Spectral ordering followed by a local refinement pass.

    Parameters
    ----------
    pattern:
        Matrix structure.
    strategy:
        ``"adjacency"`` or ``"window"`` (see module docstring).
    method, tol, rng, **solver_options:
        Passed to the underlying spectral ordering / Fiedler solver.
    window, sweeps:
        Parameters of the ``"window"`` strategy.

    Returns
    -------
    Ordering
        ``algorithm == "hybrid-spectral"``; metadata records the strategy and
        whether the refinement actually improved the envelope.
    """
    if strategy not in ("adjacency", "window"):
        raise ValueError(f"strategy must be 'adjacency' or 'window', got {strategy!r}")
    pattern = structure_from_matrix(pattern)

    def _component(sub: SymmetricPattern) -> np.ndarray:
        details: list = []
        base = _spectral_component(sub, method, tol, rng, solver_options, details)
        if sub.n <= 2:
            return base
        base_size = envelope_size(sub, base)
        if strategy == "adjacency":
            detail = details[-1] if details and details[-1] is not None else None
            if detail is None:
                return base
            vec = np.asarray(detail["fiedler_vector"], dtype=np.float64)
            if detail["direction"] == "nonincreasing":
                vec = -vec
            refined = _adjacency_refine(sub, vec)
        else:
            refined = _window_refine(sub, base, window=window, sweeps=sweeps)
        if envelope_size(sub, refined) <= base_size:
            return refined
        return base

    return order_by_components(
        pattern,
        _component,
        algorithm="hybrid-spectral",
        metadata={"strategy": strategy, "method": method},
    )
