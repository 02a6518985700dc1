"""The :class:`SymmetricPattern` structure-only symmetric sparse matrix.

The paper (Section 2.1) works with an ``n x n`` symmetric matrix ``A`` with
nonzero diagonal and considers only the *positions* of its nonzeros.  This
module provides that abstraction: a compressed sparse row (CSR) adjacency
structure holding, for every row ``i``, the sorted column indices of the
off-diagonal nonzeros.  The diagonal is implicit and always treated as
structurally nonzero, matching the paper's assumption.

The same object doubles as the adjacency structure of the matrix's graph
``G(A)``: row ``i``'s index list is exactly ``adj(v_i)``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import as_int_array, check_permutation, require_positive_int

__all__ = ["SymmetricPattern"]


def _first_claims(
    candidates: np.ndarray, positions: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Deduplicate *candidates* to first occurrences, preserving slab order.

    This is the single source of the discovery-order contract every
    whole-frontier kernel relies on: a vertex reached from several frontier
    rows is claimed by its **first** occurrence (earliest row, then earliest
    position within the row — exactly where a vertex-at-a-time scan would
    first see it).  *positions* (indices of the candidates in the original
    slab) is filtered alongside when given.
    """
    if candidates.size <= 1:
        return candidates, positions
    _unique, first = np.unique(candidates, return_index=True)
    first.sort()
    if positions is None:
        return candidates[first], None
    return candidates[first], positions[first]


class SymmetricPattern:
    """Structure-only symmetric sparse matrix / undirected graph adjacency.

    Parameters
    ----------
    n:
        Matrix order (number of rows = columns = graph vertices).
    indptr:
        CSR row-pointer array of length ``n + 1``.
    indices:
        CSR column-index array; ``indices[indptr[i]:indptr[i+1]]`` are the
        column indices of the off-diagonal nonzeros of row ``i``, sorted
        increasingly and free of duplicates and of ``i`` itself.
    copy:
        If ``True`` the index arrays are copied; otherwise they are used
        as-is (after dtype normalization).

    Notes
    -----
    The structure is *symmetric by construction*: constructors symmetrize
    their input, and :meth:`validate` checks the invariant.  Diagonal entries
    are implicit (assumed structurally nonzero), as in the paper.
    """

    __slots__ = ("n", "indptr", "indices", "_degrees", "_workspace")

    def __init__(self, n: int, indptr, indices, copy: bool = False):
        self.n = require_positive_int(n, "n", minimum=0) if n != 0 else 0
        indptr = np.asarray(indptr, dtype=np.intp)
        indices = np.asarray(indices, dtype=np.intp)
        if copy:
            indptr = indptr.copy()
            indices = indices.copy()
        if indptr.shape != (self.n + 1,):
            raise ValueError(
                f"indptr must have length n+1 = {self.n + 1}, got {indptr.shape}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        self.indptr = indptr
        self.indices = indices
        self._degrees = None  # lazy degree cache (the structure is immutable)
        self._workspace = None  # lazy spectral workspace (repro.eigen.workspace)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], symmetrize: bool = True
    ) -> "SymmetricPattern":
        """Build a pattern from an iterable of ``(i, j)`` off-diagonal pairs.

        Self-loops (``i == j``) are ignored (the diagonal is implicit).
        Duplicate edges are merged.  If *symmetrize* is true (default) each
        edge is inserted in both directions.
        """
        edge_list = [(int(i), int(j)) for i, j in edges]
        if edge_list:
            arr = np.asarray(edge_list, dtype=np.intp)
            rows, cols = arr[:, 0], arr[:, 1]
        else:
            rows = cols = np.empty(0, dtype=np.intp)
        return cls.from_edge_arrays(n, rows, cols, symmetrize=symmetrize)

    @classmethod
    def from_edge_arrays(
        cls, n: int, rows, cols, symmetrize: bool = True
    ) -> "SymmetricPattern":
        """Build a pattern from parallel endpoint arrays (vectorized twin of
        :meth:`from_edges` — no per-edge Python objects).

        Self-loops are dropped and duplicates merged exactly as in
        :meth:`from_edges`; the two constructors produce identical structures
        for the same edge set.
        """
        n = require_positive_int(n, "n", minimum=0) if n != 0 else 0
        rows = np.asarray(rows, dtype=np.intp).ravel()
        cols = np.asarray(cols, dtype=np.intp).ravel()
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have the same length")
        if rows.size and (
            min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n
        ):
            raise ValueError("edge endpoints must lie in [0, n)")
        if symmetrize and rows.size:
            rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        mask = rows != cols
        rows, cols = rows[mask], cols[mask]
        data = np.ones(rows.size, dtype=np.int8)
        coo = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
        csr = coo.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(n, csr.indptr.astype(np.intp), csr.indices.astype(np.intp))

    @classmethod
    def from_scipy(cls, matrix, tol: float = 0.0) -> "SymmetricPattern":
        """Build a pattern from any SciPy sparse matrix (or dense array).

        The structure is symmetrized (``pattern(A) | pattern(A.T)``) so that
        structurally unsymmetric inputs — common after dropping small entries
        — still yield a valid undirected adjacency, exactly as sparse ordering
        packages do.  Entries with ``|a_ij| <= tol`` are treated as zero; the
        symmetrization is by position, so ``a_ij = -a_ji`` is still an edge.
        """
        if not sp.issparse(matrix):
            matrix = sp.csr_matrix(np.asarray(matrix))
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        m = matrix.tocoo(copy=True)
        m.sum_duplicates()
        dropped = (m.data == 0) | (np.abs(m.data) <= tol)
        return cls.from_edge_arrays(matrix.shape[0], m.row[~dropped], m.col[~dropped])

    @classmethod
    def from_adjacency_lists(cls, adjacency: Sequence[Sequence[int]]) -> "SymmetricPattern":
        """Build a pattern from a list of per-vertex neighbour lists."""
        n = len(adjacency)
        edges = []
        for i, nbrs in enumerate(adjacency):
            for j in nbrs:
                edges.append((i, int(j)))
        return cls.from_edges(n, edges, symmetrize=True)

    @classmethod
    def empty(cls, n: int) -> "SymmetricPattern":
        """Pattern with no off-diagonal nonzeros (diagonal matrix / empty graph)."""
        return cls(n, np.zeros(n + 1, dtype=np.intp), np.empty(0, dtype=np.intp))

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def nnz_offdiag(self) -> int:
        """Number of stored off-diagonal nonzeros (counting both triangles)."""
        return int(self.indices.size)

    @property
    def nnz(self) -> int:
        """Total structural nonzeros including the (implicit) diagonal."""
        return self.nnz_offdiag + self.n

    @property
    def num_edges(self) -> int:
        """Number of undirected graph edges (off-diagonal nonzero pairs / 2)."""
        return self.nnz_offdiag // 2

    def degree(self, i: int | None = None):
        """Off-diagonal row counts (= graph vertex degrees).

        With no argument returns the full degree array; with an index returns
        that vertex's degree.  The array is computed once and memoized (the
        structure is immutable), so the ordering kernels — which consult
        degrees on every frontier — share a single copy.  Callers must not
        mutate the returned array.
        """
        if self._degrees is None:
            self._degrees = np.diff(self.indptr).astype(np.intp)
        if i is None:
            return self._degrees
        return int(self._degrees[i])

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted column indices of the off-diagonal nonzeros in row *i*."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def row_slices(self) -> Iterator[tuple[int, np.ndarray]]:
        """Iterate ``(i, neighbors(i))`` for every row."""
        for i in range(self.n):
            yield i, self.indices[self.indptr[i] : self.indptr[i + 1]]

    # ------------------------------------------------------------------ #
    # batch (slab) neighbor access — the vectorized-kernel primitives
    # ------------------------------------------------------------------ #
    def neighbor_slab(self, vertices) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbor lists of *vertices*, with segment offsets.

        Returns ``(slab, offsets)`` where ``slab`` is the concatenation of
        ``neighbors(v)`` for every ``v`` in *vertices* (in the given order,
        each row in its stored sorted order) and ``offsets`` has length
        ``len(vertices) + 1`` with ``slab[offsets[k]:offsets[k+1]]`` being the
        neighbors of ``vertices[k]``.  This is the gather primitive the
        whole-frontier BFS, coarsening and induced-subpattern kernels are
        built on: one fancy-index replaces a Python loop over rows.
        """
        vertices = np.asarray(vertices, dtype=np.intp)
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        offsets = np.zeros(vertices.size + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        if total == 0:
            return np.empty(0, dtype=np.intp), offsets
        # Gather positions: segment k covers starts[k] + (0..counts[k]-1).
        gather = np.repeat(starts - offsets[:-1], counts) + np.arange(total, dtype=np.intp)
        return self.indices[gather], offsets

    def neighbors_of_set(self, vertices) -> np.ndarray:
        """Sorted unique neighbors of the vertex set (set semantics).

        Vertices of the set that are neighbors of other set members are
        included; callers wanting the strict boundary mask them out.
        """
        slab, _offsets = self.neighbor_slab(vertices)
        return np.unique(slab)

    def claim_frontier(self, frontier, fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One whole-frontier BFS expansion step, with parent attribution.

        Returns ``(candidates, parents)``: the vertices of ``fresh`` (a
        boolean mask of length ``n``, true = not yet discovered) adjacent to
        *frontier*, **in discovery order** — the order a vertex-at-a-time
        scan over the frontier (rows in frontier order, each row sorted)
        would first encounter them — and ``parents[i]``, the index *into
        frontier* of the first frontier vertex whose row discovers
        ``candidates[i]``: the claiming parent the Cuthill-McKee enqueue and
        the coarsening domain growth tie-break on.
        """
        slab, offsets = self.neighbor_slab(frontier)
        keep = np.flatnonzero(fresh[slab])
        candidates, keep = _first_claims(slab[keep], keep)
        parents = np.searchsorted(offsets, keep, side="right") - 1
        return candidates, parents

    def has_edge(self, i: int, j: int) -> bool:
        """Whether ``a_ij`` (``i != j``) is structurally nonzero."""
        if i == j:
            return True  # implicit nonzero diagonal
        row = self.neighbors(i)
        pos = np.searchsorted(row, j)
        return bool(pos < row.size and row[pos] == j)

    def max_degree(self) -> int:
        """Maximum off-diagonal row count (``Delta`` in Theorem 2.1)."""
        if self.n == 0:
            return 0
        return int(np.diff(self.indptr).max(initial=0))

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_scipy(self, values: str = "pattern", dtype=np.float64) -> sp.csr_matrix:
        """Convert to a SciPy CSR matrix.

        Parameters
        ----------
        values:
            ``"pattern"`` — off-diagonal entries are ``1`` and the diagonal is
            ``1`` (structure only);
            ``"laplacian"`` — returns the graph Laplacian ``D - B``;
            ``"adjacency"`` — off-diagonal entries ``1``, zero diagonal;
            ``"spd"`` — a symmetric positive definite model matrix with
            off-diagonal entries ``-1`` and diagonal ``degree + 1``
            (diagonally dominant), useful for factorization experiments.
        dtype:
            Value dtype of the returned matrix.
        """
        n = self.n
        data = np.ones(self.indices.size, dtype=dtype)
        adj = sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(n, n))
        if values == "adjacency":
            return adj
        if values == "pattern":
            return (adj + sp.eye(n, format="csr", dtype=dtype)).tocsr()
        degrees = np.diff(self.indptr).astype(dtype)
        if values == "laplacian":
            return (sp.diags(degrees, format="csr", dtype=dtype) - adj).tocsr()
        if values == "spd":
            diag = sp.diags(degrees + 1.0, format="csr", dtype=dtype)
            return (diag - adj).tocsr()
        raise ValueError(
            "values must be one of 'pattern', 'adjacency', 'laplacian', 'spd'; "
            f"got {values!r}"
        )

    def to_dense_pattern(self) -> np.ndarray:
        """Dense boolean array of the structural nonzeros (diagonal included)."""
        dense = np.zeros((self.n, self.n), dtype=bool)
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        dense[rows, self.indices] = True
        np.fill_diagonal(dense, True)
        return dense

    def to_adjacency_lists(self) -> list[list[int]]:
        """Per-vertex neighbour lists (plain Python lists)."""
        return [list(map(int, self.neighbors(i))) for i in range(self.n)]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges ``(i, j)`` with ``i < j``, row by row."""
        rows, cols = self.edge_arrays()
        return zip(rows.tolist(), cols.tolist())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges of :meth:`edges` as two endpoint arrays: the CSR upper
        triangle, row by row."""
        rows = np.repeat(np.arange(self.n, dtype=np.intp), np.diff(self.indptr))
        upper = rows < self.indices
        return rows[upper], self.indices[upper]

    # ------------------------------------------------------------------ #
    # structural operations
    # ------------------------------------------------------------------ #
    def permute(self, perm) -> "SymmetricPattern":
        """Symmetric permutation ``P^T A P``.

        ``perm`` is the *new-to-old* vertex map: new vertex ``k`` is old
        vertex ``perm[k]`` (the convention of :class:`repro.orderings.base.Ordering`).
        """
        perm = check_permutation(perm, self.n)
        inverse = np.empty(self.n, dtype=np.intp)
        inverse[perm] = np.arange(self.n, dtype=np.intp)
        # Relabel each old edge (i, j) to (inverse[i], inverse[j]).
        old_rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        new_rows = inverse[old_rows]
        new_cols = inverse[self.indices]
        data = np.ones(new_rows.size, dtype=np.int8)
        coo = sp.coo_matrix((data, (new_rows, new_cols)), shape=(self.n, self.n))
        csr = coo.tocsr()
        csr.sort_indices()
        return SymmetricPattern(
            self.n, csr.indptr.astype(np.intp), csr.indices.astype(np.intp)
        )

    def subpattern(self, vertices) -> "SymmetricPattern":
        """Induced sub-structure on the given vertex subset (order preserved)."""
        vertices = as_int_array(vertices, "vertices")
        if vertices.size and (vertices.min() < 0 or vertices.max() >= self.n):
            raise ValueError("vertices out of range")
        if np.unique(vertices).size != vertices.size:
            raise ValueError("vertices must be distinct")
        remap = -np.ones(self.n, dtype=np.intp)
        remap[vertices] = np.arange(vertices.size, dtype=np.intp)
        slab, offsets = self.neighbor_slab(vertices)
        mapped = remap[slab]
        kept = mapped >= 0
        # Per-row kept counts via a cumulative sum (reduceat mishandles empty
        # rows), then assemble the sub-CSR directly — rows stay duplicate-free
        # and symmetric because both endpoints survive iff both are selected.
        running = np.zeros(slab.size + 1, dtype=np.intp)
        np.cumsum(kept, out=running[1:])
        sub_indptr = running[offsets]
        m = sp.csr_matrix(
            (np.ones(int(sub_indptr[-1]), dtype=np.int8), mapped[kept],
             sub_indptr),
            shape=(vertices.size, vertices.size),
        )
        m.sort_indices()
        return SymmetricPattern(
            vertices.size, m.indptr.astype(np.intp), m.indices.astype(np.intp)
        )

    def validate(self) -> None:
        """Check all structural invariants; raise :class:`ValueError` on violation.

        Invariants, checked in this order: indices in range; ``indptr``
        nondecreasing; sorted, duplicate-free rows without a self index;
        symmetric structure (``j in row(i)`` iff ``i in row(j)``).  The
        error names the lowest row with a row defect, and within a row an
        order or duplicate defect before a diagonal index.  An asymmetry
        names the first one-sided entry ``(i, j)`` in row-major order.

        A fixed number of O(nnz) array passes, no loop over rows or
        entries: each entry is keyed by its row-major position
        ``i * n + j`` (exact in int64 for n below 3e9), so the keys increase
        strictly iff every row does.
        """
        n, indptr, indices = self.n, self.indptr, self.indices
        if indices.size:
            if indices.min() < 0 or indices.max() >= n:
                raise ValueError("column indices out of range")
        counts = np.diff(indptr)
        if np.any(counts < 0):
            raise ValueError("indptr must be nondecreasing")
        rows = np.repeat(np.arange(n, dtype=np.intp), counts)
        keys = rows * n + indices
        # Across a row boundary the key rises by at least 1 (indices < n),
        # so a key that fails to rise is an order or duplicate defect.
        unordered = rows[1:][np.diff(keys) <= 0]
        diagonal = rows[indices == rows]
        if unordered.size and (not diagonal.size or unordered[0] <= diagonal[0]):
            raise ValueError(f"row {unordered[0]} is not strictly increasing / has duplicates")
        if diagonal.size:
            raise ValueError(f"row {diagonal[0]} contains a diagonal index")
        # Symmetric iff the sorted keys of the transposed entries are the keys.
        mirror = indices * n + rows
        if not np.array_equal(np.sort(mirror), keys):
            k = np.flatnonzero(~np.isin(mirror, keys))[0]
            i, j = rows[k], indices[k]
            raise ValueError(f"structure is not symmetric: ({i},{j}) without ({j},{i})")

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #
    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetricPattern):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    # Patterns hold mutable arrays; keep them unhashable.
    __hash__ = None

    # ------------------------------------------------------------------ #
    # pickling
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        """Pickle only the structure, never the lazy caches.

        The default ``__slots__`` reduction would drag the attached
        :class:`~repro.eigen.workspace.SpectralWorkspace` (Laplacians, whole
        coarsening hierarchies) across process boundaries and resurrect it on
        a *different* pattern object — stale by identity and enormous on the
        wire.  A deserialized pattern starts with fresh, empty caches, the
        same contract as :meth:`copy`/:meth:`permute`/:meth:`subpattern`.
        """
        return (self.n, self.indptr, self.indices)

    def __setstate__(self, state):
        n, indptr, indices = state
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self._degrees = None
        self._workspace = None

    def __repr__(self) -> str:
        return (
            f"SymmetricPattern(n={self.n}, edges={self.num_edges}, "
            f"nnz={self.nnz})"
        )

    def copy(self) -> "SymmetricPattern":
        """Deep copy of the structure."""
        return SymmetricPattern(self.n, self.indptr, self.indices, copy=True)
