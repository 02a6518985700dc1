"""Sparse-structure substrate.

The ordering algorithms in this library consume only the *sparsity structure*
of a symmetric matrix.  :class:`~repro.sparse.pattern.SymmetricPattern` is the
canonical in-memory representation: a CSR-style adjacency structure of the
off-diagonal nonzeros (diagonal entries are assumed nonzero, as in the paper,
Section 2.1).

The subpackage also contains structural operations (symmetrization, symmetric
permutation) and readers/writers for the two file formats the original test
matrices are distributed in: Harwell-Boeing and Matrix Market.  Real
Boeing-Harwell files can therefore be dropped into the benchmark harness when
available; the shipped benchmarks use synthetic surrogates from
:mod:`repro.collections`.
"""

from repro.sparse.pattern import SymmetricPattern
from repro.sparse.ops import permute_symmetric, structure_from_matrix
from repro.sparse.io_mm import read_matrix_market, write_matrix_market
from repro.sparse.io_hb import read_harwell_boeing, write_harwell_boeing

__all__ = [
    "SymmetricPattern",
    "structure_from_matrix",
    "permute_symmetric",
    "read_matrix_market",
    "write_matrix_market",
    "read_harwell_boeing",
    "write_harwell_boeing",
]
