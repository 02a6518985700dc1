"""Output checks the benchmark runs on every result, independent of ``repro``.

Everything here works on plain CSR arrays (``indptr``/``indices`` of the
off-diagonal symmetric structure, as ``SymmetricPattern`` stores it) with
numpy and scipy only, so a bug in the library's own metric code cannot hide
a wrong result:

* :func:`is_permutation` — a record's ordering is a permutation of ``range(n)``;
* :func:`envelope_bandwidth` — envelope size and bandwidth of the reordered
  matrix in O(nnz), by a different formulation than ``repro.envelope.metrics``
  (scatter-min over edges instead of segment reductions);
* :func:`fiedler_residuals` — ``||Lx - lambda x||_2 / (2 d_max)`` for each
  connected component's Fiedler pair, ``2 d_max`` being the Gershgorin bound
  on ``||L||`` so the figure is scale free.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RESIDUAL_FLOOR",
    "check_record",
    "envelope_bandwidth",
    "fiedler_residuals",
    "is_permutation",
]

#: Residuals below this read as this value in ``fiedler_residual_max``: the
#: metric must stay positive and steady across seeds, and the solver's
#: converged residuals (1e-7 to 2e-4 on the paper problems) jitter with the
#: start vector by orders of magnitude.  Unconverged multilevel vectors on
#: the power-law graphs sit above it (about 2e-3).
RESIDUAL_FLOOR = 1e-3


def is_permutation(perm, n: int) -> bool:
    perm = np.asarray(perm)
    if perm.shape != (n,) or not np.issubdtype(perm.dtype, np.integer):
        return False
    if n == 0:
        return True
    if perm.min() < 0 or perm.max() >= n:
        return False
    return bool(np.all(np.bincount(perm, minlength=n) == 1))


def _edge_rows(indptr) -> np.ndarray:
    indptr = np.asarray(indptr, dtype=np.int64)
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))


def envelope_bandwidth(indptr, indices, perm) -> tuple[int, int]:
    """``(envelope_size, bandwidth)`` of ``A[perm][:, perm]``.

    Row ``p = pos[v]`` of the reordered matrix has its first nonzero in
    column ``min(p, min over neighbours w of pos[w])`` (the diagonal is
    structurally nonzero); the envelope sums ``p - first`` over rows and the
    bandwidth is the largest ``|pos[v] - pos[w]|`` over edges.
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = perm.size
    pos = np.empty(n, dtype=np.int64)
    pos[perm] = np.arange(n, dtype=np.int64)
    rows = _edge_rows(indptr)
    cols = np.asarray(indices, dtype=np.int64)
    first = pos.copy()
    np.minimum.at(first, rows, pos[cols])
    envelope = int((pos - first).sum())
    bandwidth = int(np.abs(pos[rows] - pos[cols]).max()) if cols.size else 0
    return envelope, bandwidth


def _components(indptr, indices, n: int):
    """Vertex sets of the connected components with more than one vertex,
    ordered by smallest vertex, each sorted ascending."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    data = np.ones(len(indices), dtype=np.int8)
    adjacency = sp.csr_matrix((data, np.asarray(indices), np.asarray(indptr)), shape=(n, n))
    count, labels = connected_components(adjacency, directed=False)
    grouped = np.argsort(labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=count))))
    pieces = [grouped[bounds[c]:bounds[c + 1]] for c in range(count)]
    pieces.sort(key=lambda vertices: int(vertices[0]))
    return [vertices for vertices in pieces if vertices.size > 1]


def fiedler_residuals(indptr, indices, n: int, components) -> list[float]:
    """Residual of every component's ``(fiedler_value, fiedler_vector)``.

    ``components`` is the spectral ordering's ``metadata["components"]``
    list: one entry per component of more than one vertex, in order of the
    component's smallest vertex, the vector in ascending vertex order.
    Raises ``ValueError`` when the list does not match the structure.
    """
    pieces = _components(indptr, indices, n)
    if len(pieces) != len(components):
        raise ValueError(f"{len(components)} Fiedler pairs for {len(pieces)} components")
    rows = _edge_rows(indptr)
    cols = np.asarray(indices, dtype=np.int64)
    degree = np.diff(np.asarray(indptr, dtype=np.int64)).astype(np.float64)
    x = np.zeros(n)
    for vertices, detail in zip(pieces, components):
        vector = np.asarray(detail["fiedler_vector"], dtype=np.float64)
        if vector.shape != vertices.shape:
            raise ValueError(f"Fiedler vector of length {vector.size} for a "
                             f"component of {vertices.size} vertices")
        x[vertices] = vector / np.linalg.norm(vector)
    lx = degree * x - np.bincount(rows, weights=x[cols], minlength=n)
    residuals = []
    for vertices, detail in zip(pieces, components):
        r = lx[vertices] - float(detail["fiedler_value"]) * x[vertices]
        residuals.append(float(np.linalg.norm(r) / (2.0 * degree[vertices].max())))
    return residuals


def check_record(indptr, indices, n: int, perm, metrics: dict,
                 components=None) -> tuple[list[str], list[float]]:
    """All checks of one ok record: ``(problems found, Fiedler residuals)``."""
    if not is_permutation(perm, n):
        return ["ordering is not a permutation of range(n)"], []
    problems = []
    envelope, bandwidth = envelope_bandwidth(indptr, indices, perm)
    if envelope != metrics.get("envelope_size"):
        problems.append(f"envelope_size {metrics.get('envelope_size')} != recomputed {envelope}")
    if bandwidth != metrics.get("bandwidth"):
        problems.append(f"bandwidth {metrics.get('bandwidth')} != recomputed {bandwidth}")
    residuals = []
    if components is not None:
        try:
            residuals = fiedler_residuals(indptr, indices, n, components)
        except (KeyError, ValueError) as exc:
            problems.append(f"Fiedler metadata: {exc}")
    return problems, residuals
