"""Laplacian matrices of adjacency graphs (Section 2.2 of the paper).

For an undirected graph ``G`` with adjacency matrix ``B`` and diagonal degree
matrix ``D``, the Laplacian is ``Q(G) = D - B``.  When ``G`` is the adjacency
graph of a symmetric matrix ``M`` the paper defines ``Q`` directly from the
structure of ``M``:

* ``q_ij = -1`` if ``i != j`` and ``m_ij != 0``,
* ``q_ij = 0`` if ``i != j`` and ``m_ij == 0``,
* ``q_ii = -sum_{j != i} q_ij`` (the vertex degree).

``Q`` is a singular M-matrix: its eigenvalues satisfy
``0 = lambda_1 <= lambda_2 <= ... <= lambda_n``, with the constant vector as
the eigenvector for 0, and ``lambda_2 > 0`` exactly when ``G`` is connected.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse.ops import structure_from_matrix

__all__ = [
    "adjacency_matrix",
    "laplacian_matrix",
    "laplacian_quadratic_form",
]


def adjacency_matrix(pattern, dtype=np.float64, weights=None) -> sp.csr_matrix:
    """Adjacency matrix ``B`` of the graph of *pattern*.

    Parameters
    ----------
    pattern:
        A :class:`SymmetricPattern`, SciPy sparse matrix, or dense array (the
        latter two are converted to a pattern first).
    dtype:
        Value dtype of the result.
    weights:
        Optional array of edge weights aligned with ``pattern.indices``
        (one weight per stored off-diagonal entry).  Defaults to unit weights,
        which is what the paper's Laplacian uses.
    """
    pattern = structure_from_matrix(pattern)
    n = pattern.n
    if weights is None:
        data = np.ones(pattern.indices.size, dtype=dtype)
    else:
        data = np.asarray(weights, dtype=dtype)
        if data.shape != (pattern.indices.size,):
            raise ValueError(
                f"weights must have shape ({pattern.indices.size},), got {data.shape}"
            )
    return sp.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()), shape=(n, n))


def laplacian_matrix(pattern, dtype=np.float64, weights=None) -> sp.csr_matrix:
    """Graph Laplacian ``Q = D - B`` of the adjacency graph of *pattern*.

    The unweighted case assembles the CSR arrays directly — the off-diagonal
    structure of ``Q`` is exactly the pattern's, plus one explicit diagonal
    entry per row — instead of building the adjacency matrix and subtracting
    it from a diagonal matrix.  That skips two intermediate sparse matrices
    and a sort-and-merge pass while producing the identical canonical CSR
    (same sorted structure, same values), which the multilevel eigensolver
    relies on when it rebuilds Laplacians for every level of a hierarchy.
    """
    pattern = structure_from_matrix(pattern)
    if weights is not None:
        b = adjacency_matrix(pattern, dtype=dtype, weights=weights)
        degrees = np.asarray(b.sum(axis=1)).ravel()
        return (sp.diags(degrees, format="csr", dtype=dtype) - b).tocsr()
    n = pattern.n
    indptr, indices = pattern.indptr, pattern.indices
    counts = np.diff(indptr)
    rows = np.repeat(np.arange(n, dtype=np.intp), counts)
    # Row-relative position of each off-diagonal entry, and how many of a
    # row's entries sort before the diagonal (column < row).
    rel = np.arange(indices.size, dtype=np.intp) - np.repeat(indptr[:-1], counts)
    below = np.zeros(n, dtype=np.intp)
    nonempty = counts > 0
    if indices.size:
        below[nonempty] = np.add.reduceat(
            (indices < rows).astype(np.intp), indptr[:-1][nonempty]
        )
    # Degree-0 rows get no stored diagonal — matching the canonical form of
    # the ``diags(degrees) - B`` construction, which drops the zero entry.
    has_diag = nonempty.astype(np.intp)
    new_indptr = indptr + np.concatenate(([0], np.cumsum(has_diag)))
    nnz_new = indices.size + int(has_diag.sum())
    new_indices = np.empty(nnz_new, dtype=indices.dtype)
    data = np.empty(nnz_new, dtype=dtype)
    offdiag_pos = new_indptr[rows] + rel + (rel >= below[rows])
    diag_pos = (new_indptr[:-1] + below)[nonempty]
    new_indices[offdiag_pos] = indices
    new_indices[diag_pos] = np.flatnonzero(nonempty).astype(indices.dtype)
    data[offdiag_pos] = -1.0
    data[diag_pos] = counts[nonempty].astype(dtype)
    lap = sp.csr_matrix((data, new_indices, new_indptr), shape=(n, n))
    lap.has_sorted_indices = True  # inserted at the in-row sorted position
    return lap


def laplacian_quadratic_form(pattern, x) -> float:
    """Evaluate ``x^T Q x = sum_{(i,j) in E} (x_i - x_j)^2`` without forming ``Q``.

    This identity (used throughout Section 2.3 of the paper) is evaluated
    directly over the edge set, which is both faster and more accurate than a
    matrix-vector product for the envelope bounds.
    """
    pattern = structure_from_matrix(pattern)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (pattern.n,):
        raise ValueError(f"x must have shape ({pattern.n},), got {x.shape}")
    rows = np.repeat(np.arange(pattern.n), np.diff(pattern.indptr))
    diffs = x[rows] - x[pattern.indices]
    # Each undirected edge appears twice (i->j and j->i): halve the sum.
    return float(0.5 * np.dot(diffs, diffs))
