"""Cuthill-McKee and reverse Cuthill-McKee (RCM) orderings.

The RCM algorithm — "the reverse Cuthill-McKee (RCM) algorithm in SPARSPAK" —
is one of the paper's three baselines.  As described in Section 4:

    "The RCM algorithm ... uses local search (breadth-first search) from a
    pseudo-peripheral vertex to generate a long rooted level structure.  The
    RCM algorithm then numbers the vertices by increasing level values, where
    the vertices in each level are numbered in nondecreasing order of their
    degrees.  The final RCM ordering is obtained by reversing the ordering
    thus obtained."

The Cuthill-McKee numbering is exactly a breadth-first search in which the
unnumbered neighbours of each dequeued vertex are appended in nondecreasing
degree order; reversing it gives RCM (George & Liu 1981).  Cuthill-McKee
orderings are *adjacency orderings* (Section 2.4); RCM orderings are not.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.graph.peripheral import pseudo_peripheral_node
from repro.graph.traversal import bfs_order
from repro.orderings.base import Ordering, order_by_components
from repro.sparse.pattern import SymmetricPattern

__all__ = ["cuthill_mckee_ordering", "rcm_ordering"]


def _cm_component(pattern: SymmetricPattern, start: int | None = None) -> np.ndarray:
    """Cuthill-McKee order of one connected component (new-to-old permutation)."""
    if pattern.n == 1:
        return np.zeros(1, dtype=np.intp)
    if start is None:
        start, _ = pseudo_peripheral_node(pattern)
    order = bfs_order(pattern, start, sort_by_degree=True)
    if order.size != pattern.n:  # pragma: no cover - defensive; component is connected
        raise AssertionError("BFS did not reach every vertex of a connected component")
    return order


def cuthill_mckee_ordering(pattern, start: int | None = None) -> Ordering:
    """Cuthill-McKee ordering (un-reversed).

    Parameters
    ----------
    pattern:
        Matrix structure (pattern, SciPy sparse matrix or dense array).
    start:
        Optional start vertex, an integer (a float raises ``TypeError``).
        Only honoured when the graph is connected; otherwise each component
        starts from its own pseudo-peripheral node.

    Returns
    -------
    Ordering
    """
    from repro.sparse.ops import structure_from_matrix
    from repro.graph.components import is_connected

    pattern = structure_from_matrix(pattern)
    if start is not None:
        start = operator.index(start)
    if start is not None and is_connected(pattern):
        perm = _cm_component(pattern, start=start)
        return Ordering(perm, algorithm="cuthill-mckee", metadata={"start": start})
    return order_by_components(pattern, _cm_component, algorithm="cuthill-mckee")


def rcm_ordering(pattern, start: int | None = None) -> Ordering:
    """Reverse Cuthill-McKee ordering (the SPARSPAK baseline of the paper).

    The per-component Cuthill-McKee orders are computed first and the full
    concatenated ordering is then reversed, matching the SPARSPAK convention.
    """
    cm = cuthill_mckee_ordering(pattern, start=start)
    perm = cm.perm[::-1].copy()
    metadata = dict(cm.metadata)
    return Ordering(perm, algorithm="rcm", metadata=metadata)
