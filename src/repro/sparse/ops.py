"""Structural operations on symmetric sparse matrices.

These are thin, well-tested wrappers around SciPy sparse operations expressed
in the vocabulary of the paper (structural symmetry, symmetric permutations
``P^T A P``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse.pattern import SymmetricPattern
from repro.utils.validation import check_permutation, check_square

__all__ = [
    "structure_from_matrix",
    "permute_symmetric",
]


def structure_from_matrix(matrix, tol: float = 0.0) -> SymmetricPattern:
    """Extract the symmetric sparsity structure of *matrix*.

    Accepts SciPy sparse matrices, dense arrays, or an existing
    :class:`SymmetricPattern` (returned unchanged).  Entries with magnitude
    ``<= tol`` are dropped before symmetrization.
    """
    if isinstance(matrix, SymmetricPattern):
        return matrix
    return SymmetricPattern.from_scipy(matrix, tol=tol)


def permute_symmetric(matrix, perm) -> sp.csr_matrix:
    """Symmetric permutation ``P^T A P`` of a SciPy sparse (or dense) matrix.

    ``perm`` is the new-to-old map: row/column ``k`` of the result is
    row/column ``perm[k]`` of the input.  Values are preserved.
    """
    matrix, n = check_square(matrix, "matrix")
    perm = check_permutation(perm, n)
    # One COO index remap instead of two fancy-index passes (a[perm][:, perm]
    # builds a full intermediate matrix per axis): relabel every stored entry
    # (i, j) to (inverse[i], inverse[j]) in a single sweep.
    a = sp.coo_matrix(matrix)
    inverse = np.empty(n, dtype=np.intp)
    inverse[perm] = np.arange(n, dtype=np.intp)
    permuted = sp.coo_matrix(
        (a.data, (inverse[a.row], inverse[a.col])), shape=(n, n)
    ).tocsr()
    permuted.sort_indices()
    return permuted
