"""Matrix Market (``.mtx``) reading and writing.

The Boeing-Harwell / NASA matrices used in the paper are nowadays distributed
by the SuiteSparse collection in Matrix Market format, so the benchmark
harness accepts ``.mtx`` files directly.  The implementation here is written
from the format specification (coordinate and array formats; real, integer and
pattern fields; general / symmetric / skew-symmetric symmetries) rather than
delegating to :mod:`scipy.io` so the library has no hidden behaviour — but it
round-trips against SciPy in the test suite.
"""

from __future__ import annotations

import os
from typing import TextIO, Union

import numpy as np
import scipy.sparse as sp

__all__ = ["read_matrix_market", "write_matrix_market"]

_VALID_FORMATS = {"coordinate", "array"}
_VALID_FIELDS = {"real", "integer", "pattern", "complex"}
_VALID_SYMMETRIES = {"general", "symmetric", "skew-symmetric", "hermitian"}


def _open_maybe(path_or_file, mode: str):
    """Return ``(stream, should_close)`` for a path or an already-open stream."""
    if isinstance(path_or_file, (str, os.PathLike)):
        return open(path_or_file, mode), True
    return path_or_file, False


def read_matrix_market(path_or_file: Union[str, os.PathLike, TextIO]) -> sp.csr_matrix:
    """Read a Matrix Market file and return a CSR matrix.

    Symmetric and skew-symmetric storage is expanded to the full matrix.
    Pattern matrices get unit values.  Complex matrices are rejected (the
    library is real-symmetric only).

    Parameters
    ----------
    path_or_file:
        File path or open text stream.

    Returns
    -------
    scipy.sparse.csr_matrix
    """
    stream, should_close = _open_maybe(path_or_file, "r")
    try:
        header = stream.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError("not a Matrix Market file: missing %%MatrixMarket header")
        tokens = header.strip().split()
        if len(tokens) < 5 or tokens[1].lower() != "matrix":
            raise ValueError(f"unsupported MatrixMarket header: {header.strip()!r}")
        mm_format, field, symmetry = (
            tokens[2].lower(),
            tokens[3].lower(),
            tokens[4].lower(),
        )
        if mm_format not in _VALID_FORMATS:
            raise ValueError(f"unsupported MatrixMarket format {mm_format!r}")
        if field not in _VALID_FIELDS:
            raise ValueError(f"unsupported MatrixMarket field {field!r}")
        if field == "complex":
            raise ValueError("complex matrices are not supported by this library")
        if symmetry not in _VALID_SYMMETRIES:
            raise ValueError(f"unsupported MatrixMarket symmetry {symmetry!r}")

        # Skip comments and blank lines to the size line.
        line = stream.readline()
        while line and (line.startswith("%") or not line.strip()):
            line = stream.readline()
        if not line:
            raise ValueError("missing size line")
        size_tokens = line.split()

        if mm_format == "coordinate":
            nrows, ncols, nnz = (int(t) for t in size_tokens[:3])
            rows = np.empty(nnz, dtype=np.intp)
            cols = np.empty(nnz, dtype=np.intp)
            vals = np.empty(nnz, dtype=np.float64)
            count = 0
            for line in stream:
                line = line.strip()
                if not line or line.startswith("%"):
                    continue
                parts = line.split()
                rows[count] = int(parts[0]) - 1
                cols[count] = int(parts[1]) - 1
                if field == "pattern":
                    vals[count] = 1.0
                else:
                    vals[count] = float(parts[2])
                count += 1
            if count != nnz:
                raise ValueError(f"expected {nnz} entries, found {count}")
        else:  # array (dense, column major)
            nrows, ncols = (int(t) for t in size_tokens[:2])
            values = []
            for line in stream:
                line = line.strip()
                if not line or line.startswith("%"):
                    continue
                values.append(float(line.split()[0]))
            if symmetry == "general":
                expected = nrows * ncols
            else:
                expected = nrows * (nrows + 1) // 2
            if len(values) != expected:
                raise ValueError(f"expected {expected} array entries, found {len(values)}")
            if symmetry == "general":
                dense = np.asarray(values).reshape((ncols, nrows)).T
                return sp.csr_matrix(dense)
            # packed lower triangle, column major
            dense = np.zeros((nrows, ncols))
            k = 0
            for j in range(ncols):
                for i in range(j, nrows):
                    dense[i, j] = values[k]
                    k += 1
            rows, cols = np.nonzero(dense)
            vals = dense[rows, cols]
            nnz = rows.size
    finally:
        if should_close:
            stream.close()

    mat = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
    if symmetry in ("symmetric", "hermitian"):
        off = mat.row != mat.col
        mirror = sp.coo_matrix(
            (mat.data[off], (mat.col[off], mat.row[off])), shape=mat.shape
        )
        mat = (mat + mirror).tocoo()
    elif symmetry == "skew-symmetric":
        off = mat.row != mat.col
        mirror = sp.coo_matrix(
            (-mat.data[off], (mat.col[off], mat.row[off])), shape=mat.shape
        )
        mat = (mat + mirror).tocoo()
    return mat.tocsr()


def write_matrix_market(
    path_or_file: Union[str, os.PathLike, TextIO],
    matrix,
    *,
    field: str = "real",
    symmetric: bool | None = None,
    comment: str = "",
) -> None:
    """Write a sparse matrix in Matrix Market coordinate format.

    Parameters
    ----------
    path_or_file:
        Destination path or open text stream.
    matrix:
        SciPy sparse matrix or dense array.
    field:
        ``"real"`` or ``"pattern"``.
    symmetric:
        If ``True`` only the lower triangle is written with symmetry
        ``symmetric``.  If ``None`` (default) symmetry is detected
        automatically for square matrices.
    comment:
        Optional comment text placed after the header (may be multi-line).
    """
    if field not in ("real", "pattern"):
        raise ValueError("field must be 'real' or 'pattern'")
    a = sp.coo_matrix(matrix)
    if symmetric is None:
        symmetric = bool(
            a.shape[0] == a.shape[1] and (abs(a - a.T)).nnz == 0
        )
    symmetry = "symmetric" if symmetric else "general"

    if symmetric:
        mask = a.row >= a.col
        rows, cols, vals = a.row[mask], a.col[mask], a.data[mask]
    else:
        rows, cols, vals = a.row, a.col, a.data

    stream, should_close = _open_maybe(path_or_file, "w")
    try:
        stream.write(f"%%MatrixMarket matrix coordinate {field} {symmetry}\n")
        for line in comment.splitlines():
            stream.write(f"% {line}\n")
        stream.write(f"{a.shape[0]} {a.shape[1]} {rows.size}\n")
        if field == "pattern":
            for i, j in zip(rows, cols):
                stream.write(f"{i + 1} {j + 1}\n")
        else:
            for i, j, v in zip(rows, cols, vals):
                stream.write(f"{i + 1} {j + 1} {v:.17g}\n")
    finally:
        if should_close:
            stream.close()
