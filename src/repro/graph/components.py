"""Connected components of the adjacency graph.

The paper assumes the matrix is irreducible (its adjacency graph connected);
the library handles general matrices by ordering each component separately
(see :func:`repro.orderings.base.concatenate_component_orderings`), so the
component machinery lives here.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.sparse.pattern import SymmetricPattern

__all__ = ["connected_components", "is_connected", "largest_component"]


def connected_components(pattern: SymmetricPattern) -> tuple[int, np.ndarray]:
    """Label the connected components of the graph.

    Returns
    -------
    (num_components, labels):
        *labels* is an array of length ``n`` assigning each vertex a component
        id in ``0 .. num_components-1``; components are numbered in order of
        their smallest vertex.
    """
    n = pattern.n
    if n == 0:
        return 0, np.empty(0, dtype=np.intp)
    adjacency = sp.csr_matrix(
        (np.ones(pattern.indices.size, dtype=np.int8), pattern.indices, pattern.indptr),
        shape=(n, n),
    )
    count, raw = csgraph.connected_components(adjacency, directed=False)
    # csgraph's label order is an implementation detail; renumber so component
    # ids follow each component's smallest vertex (the documented contract the
    # per-component ordering concatenation relies on).
    _labels, first_vertex = np.unique(raw, return_index=True)
    rank = np.empty(count, dtype=np.intp)
    rank[np.argsort(first_vertex)] = np.arange(count, dtype=np.intp)
    return int(count), rank[raw].astype(np.intp)


def is_connected(pattern: SymmetricPattern) -> bool:
    """Whether the adjacency graph is connected (matrix is irreducible)."""
    if pattern.n <= 1:
        return True
    count, _ = connected_components(pattern)
    return count == 1


def largest_component(pattern: SymmetricPattern) -> np.ndarray:
    """Vertices of the largest connected component (ascending order)."""
    count, labels = connected_components(pattern)
    if count == 1:
        return np.arange(pattern.n, dtype=np.intp)
    sizes = np.bincount(labels, minlength=count)
    return np.flatnonzero(labels == int(np.argmax(sizes))).astype(np.intp)
