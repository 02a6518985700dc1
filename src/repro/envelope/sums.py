"""The 1-sum and 2-sum of a symmetric matrix (Section 2.1, 2.3).

With ``row(i) = { j : a_ij != 0, j <= i }`` (lower triangle, diagonal
included — the diagonal contributes ``i - i = 0``):

* ``sigma_1(A)   = sum_i sum_{j in row(i)} (i - j)``  — the 1-sum,
* ``sigma_2^2(A) = sum_i sum_{j in row(i)} (i - j)^2`` — the squared 2-sum.

Equivalently, over the *edges* of the adjacency graph and an ordering
``alpha``: ``sigma_1 = sum_{(u,v) in E} |alpha(u) - alpha(v)|`` and
``sigma_2^2 = sum_{(u,v) in E} (alpha(u) - alpha(v))^2``.  The latter equals
the Laplacian quadratic form ``p^T Q p`` evaluated at the permutation vector
``p`` — the key identity behind the spectral algorithm (Section 2.3).

Following the paper's tables and theorems, :func:`two_sum` returns the *sum of
squares* ``sigma_2^2`` (an integer), not its square root.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.ops import structure_from_matrix
from repro.utils.validation import check_permutation

__all__ = ["one_sum", "two_sum"]


def _edge_position_differences(pattern, perm) -> np.ndarray:
    """|position difference| over every undirected edge of the graph."""
    pattern = structure_from_matrix(pattern)
    n = pattern.n
    if perm is None:
        positions = np.arange(n, dtype=np.int64)
    else:
        perm = check_permutation(perm, n)
        positions = np.empty(n, dtype=np.int64)
        positions[perm] = np.arange(n, dtype=np.int64)
    if pattern.indices.size == 0:
        return np.empty(0, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(pattern.indptr))
    cols = pattern.indices
    mask = rows < cols  # each undirected edge once
    return np.abs(positions[rows[mask]] - positions[cols[mask]])


def one_sum(pattern, perm=None) -> int:
    """The 1-sum ``sigma_1`` of the (re)ordered matrix."""
    diffs = _edge_position_differences(pattern, perm)
    return int(diffs.sum())


def two_sum(pattern, perm=None) -> int:
    """The squared 2-sum ``sigma_2^2`` of the (re)ordered matrix."""
    diffs = _edge_position_differences(pattern, perm)
    return int(np.dot(diffs, diffs))
