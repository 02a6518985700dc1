"""Naive reference implementations of the vectorized kernels with no loop kernel.

The production kernels (:mod:`repro.graph.components`,
:mod:`repro.graph.coarsen`, :meth:`repro.sparse.pattern.SymmetricPattern.subpattern`)
are vectorized over whole frontiers and neighbor slabs for speed.  This
module retains the original vertex-at-a-time implementations **verbatim** as
the behavioural contract: every vectorized kernel must produce bit-identical
output to its reference twin, on every input.  ``tests/test_kernels_reference.py``
enforces that equivalence with property tests on random (including
disconnected) graphs, and the golden suite artifact
(``tests/golden/suite_small.json``) pins it end to end.

The BFS, Cuthill-McKee, GPS/GK numbering and Sloan kernels have no twin
here: their reference is the loop form in :mod:`repro.backends.kernels`,
reached through the ``python`` backend tier.

These functions are *not* exported through the package API and are not meant
for production use — they exist so the equivalence guarantee stays testable
forever, not just against a frozen artifact.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.pattern import SymmetricPattern
from repro.utils.rng import default_rng

__all__ = [
    "connected_components_reference",
    "subpattern_reference",
    "maximal_independent_set_reference",
    "grow_domains_reference",
]


def connected_components_reference(pattern: SymmetricPattern) -> tuple[int, np.ndarray]:
    """Stack-based component labelling (reference for
    :func:`repro.graph.components.connected_components`)."""
    n = pattern.n
    labels = np.full(n, -1, dtype=np.intp)
    indptr, indices = pattern.indptr, pattern.indices
    current = 0
    stack = np.empty(n, dtype=np.intp)
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = current
        stack[0] = start
        top = 1
        while top:
            top -= 1
            v = stack[top]
            nbrs = indices[indptr[v] : indptr[v + 1]]
            fresh = nbrs[labels[nbrs] < 0]
            if fresh.size:
                labels[fresh] = current
                stack[top : top + fresh.size] = fresh
                top += fresh.size
        current += 1
    return current, labels


def subpattern_reference(pattern: SymmetricPattern, vertices) -> SymmetricPattern:
    """Edge-list induced substructure (reference for
    :meth:`repro.sparse.pattern.SymmetricPattern.subpattern`)."""
    from repro.utils.validation import as_int_array

    vertices = as_int_array(vertices, "vertices")
    if vertices.size and (vertices.min() < 0 or vertices.max() >= pattern.n):
        raise ValueError("vertices out of range")
    if np.unique(vertices).size != vertices.size:
        raise ValueError("vertices must be distinct")
    remap = -np.ones(pattern.n, dtype=np.intp)
    remap[vertices] = np.arange(vertices.size, dtype=np.intp)
    edges = []
    for new_i, old_i in enumerate(vertices):
        nbrs = pattern.neighbors(int(old_i))
        kept = remap[nbrs]
        for new_j in kept[kept >= 0]:
            edges.append((new_i, int(new_j)))
    return SymmetricPattern.from_edges(vertices.size, edges, symmetrize=False)


def maximal_independent_set_reference(
    pattern: SymmetricPattern,
    rng=None,
    strategy: str = "degree",
) -> np.ndarray:
    """Sequential greedy MIS scan (reference for
    :func:`repro.graph.coarsen.maximal_independent_set`)."""
    n = pattern.n
    if n == 0:
        return np.empty(0, dtype=np.intp)
    if strategy == "degree":
        order = np.argsort(pattern.degree(), kind="stable")
    elif strategy == "natural":
        order = np.arange(n, dtype=np.intp)
    elif strategy == "random":
        order = default_rng(rng).permutation(n).astype(np.intp)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    selected = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    indptr, indices = pattern.indptr, pattern.indices
    for v in order:
        if blocked[v]:
            continue
        selected[v] = True
        blocked[v] = True
        blocked[indices[indptr[v] : indptr[v + 1]]] = True
    return np.flatnonzero(selected).astype(np.intp)


def grow_domains_reference(pattern: SymmetricPattern, mis: np.ndarray) -> np.ndarray:
    """Ring-by-ring simultaneous BFS domain growth (reference for the domain
    sweep inside :func:`repro.graph.coarsen.coarsen_graph`)."""
    n = pattern.n
    n_coarse = mis.size
    domain_of = np.full(n, -1, dtype=np.intp)
    domain_of[mis] = np.arange(n_coarse, dtype=np.intp)

    indptr, indices = pattern.indptr, pattern.indices
    frontier = mis.copy()
    while frontier.size:
        next_frontier: list[int] = []
        for v in frontier:
            dom = domain_of[v]
            nbrs = indices[indptr[v] : indptr[v + 1]]
            fresh = nbrs[domain_of[nbrs] < 0]
            if fresh.size:
                domain_of[fresh] = dom
                next_frontier.extend(int(w) for w in fresh)
        frontier = np.asarray(next_frontier, dtype=np.intp)
    return domain_of
