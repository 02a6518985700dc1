"""Rayleigh Quotient Iteration (RQI) for refining approximate eigenvectors.

The multilevel scheme of Section 3 interpolates a coarse-graph eigenvector to
the fine graph and then refines it: "The approximation is then refined using
the Rayleigh Quotient Iteration algorithm, which, because of its cubic
convergence, usually requires only one or perhaps two iterations to obtain an
acceptable result."

One RQI step for the Laplacian ``Q`` restricted to ``span{1}^⊥``:

1. ``rho = x^T Q x / x^T x`` (the Rayleigh quotient),
2. solve ``(Q - rho I) y = x`` approximately — the system is symmetric
   indefinite, so MINRES is the right inner solver,
3. project ``y`` against the constant vector and normalize.

The shifted system becomes singular exactly at convergence; MINRES copes with
that (the solution blows up in the direction of the sought eigenvector, which
is precisely what we want before normalizing), and we cap the inner iteration
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.eigen.lanczos import deflate_constant

__all__ = ["RQIResult", "rayleigh_quotient_iteration", "rayleigh_quotient"]


@dataclass(frozen=True)
class RQIResult:
    """Result of a Rayleigh Quotient Iteration run.

    Attributes
    ----------
    eigenvalue:
        Final Rayleigh quotient.
    eigenvector:
        Unit-norm refined vector, orthogonal to the constant vector.
    residual_norm:
        ``||Q x - rho x||`` at exit.
    iterations:
        Number of outer RQI steps taken.
    converged:
        Whether the residual tolerance was met.
    """

    eigenvalue: float
    eigenvector: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def _shift_scratch(q: sp.csr_matrix):
    """Per-call scratch for building ``Q - rho I`` without sparse arithmetic.

    When every row of ``q`` stores an explicit diagonal entry (true of the
    Laplacians the multilevel scheme feeds in — isolated vertices never reach
    a per-component solver), the shifted matrix differs from ``q`` only at
    those ``n`` data slots.  Returns the flat positions of the diagonal
    entries, or ``None`` when some row lacks one (fall back to ``q - rho*I``).
    The values produced are identical to the sparse subtraction — same
    canonical structure, same ``q_ii - rho`` arithmetic — just without
    allocating and merging two intermediate matrices per RQI step.
    """
    n = q.shape[0]
    if not q.has_sorted_indices:
        q.sort_indices()
    counts = np.diff(q.indptr)
    if counts.min(initial=1) < 1:
        return None
    rows = np.repeat(np.arange(n, dtype=np.intp), counts)
    below = np.add.reduceat((q.indices < rows).astype(np.intp), q.indptr[:-1])
    diag_pos = q.indptr[:-1] + below
    if not np.array_equal(q.indices[diag_pos], np.arange(n, dtype=q.indices.dtype)):
        return None
    return diag_pos


def _shifted(q, rho: float, scratch):
    """``Q - rho I`` via the precomputed scratch (diagonal positions, or the
    hoisted identity matrix in the dense fallback)."""
    if not sp.issparse(q):
        return q - rho * scratch
    if scratch is None:
        return (q - rho * sp.eye(q.shape[0], format="csr")).tocsr()
    data = q.data.copy()
    data[scratch] -= rho
    shifted = sp.csr_matrix((data, q.indices, q.indptr), shape=q.shape)
    shifted.has_sorted_indices = True
    return shifted


def rayleigh_quotient(matrix, x: np.ndarray) -> float:
    """Rayleigh quotient ``x^T A x / x^T x`` (matrix may be sparse or dense)."""
    x = np.asarray(x, dtype=np.float64)
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise ValueError("cannot form a Rayleigh quotient of the zero vector")
    return float(np.dot(x, matrix @ x) / denom)


def rayleigh_quotient_iteration(
    laplacian,
    x0: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iter: int = 10,
    inner_iter: int | None = None,
    deflate: bool = True,
) -> RQIResult:
    """Refine an approximate Laplacian eigenvector with RQI.

    Parameters
    ----------
    laplacian:
        Symmetric (sparse) matrix ``Q``.
    x0:
        Starting vector (e.g. an interpolated coarse eigenvector).
    tol:
        Residual tolerance ``||Qx - rho x|| <= tol * max(1, rho)``.
    max_iter:
        Maximum number of outer RQI steps.
    inner_iter:
        Cap on MINRES iterations per step (default ``min(n, 200)``).
    deflate:
        Keep iterates orthogonal to the constant vector (required for the
        Laplacian; disable only when refining eigenvectors of a general
        symmetric matrix).

    Returns
    -------
    RQIResult
    """
    if sp.issparse(laplacian):
        q = laplacian.tocsr()
        n = q.shape[0]
    else:
        q = np.asarray(laplacian, dtype=np.float64)
        n = q.shape[0]
    x = np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x.shape}")
    if deflate:
        x = deflate_constant(x)
    norm = np.linalg.norm(x)
    if norm < 1e-300:
        raise ValueError("x0 is (numerically) a constant vector; cannot refine")
    x /= norm

    if inner_iter is None:
        inner_iter = int(min(n, 200))

    shift_scratch = _shift_scratch(q) if sp.issparse(q) else np.eye(n)
    rho = rayleigh_quotient(q, x)
    residual_norm = float(np.linalg.norm(q @ x - rho * x))
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if residual_norm <= tol * max(1.0, abs(rho)):
            return RQIResult(rho, x, residual_norm, iterations - 1, True)
        shifted = _shifted(q, rho, shift_scratch)
        if sp.issparse(shifted):
            y, _info = spla.minres(shifted, x, maxiter=inner_iter, rtol=1e-10)
        else:
            # Dense fallback: least-squares solve handles the (near-)singular shift.
            y, *_ = np.linalg.lstsq(shifted, x, rcond=None)
        if deflate:
            y = deflate_constant(y)
        y_norm = np.linalg.norm(y)
        if not np.isfinite(y_norm) or y_norm < 1e-300:
            break  # inner solve failed to produce a usable direction
        x_new = y / y_norm
        rho_new = rayleigh_quotient(q, x_new)
        residual_new = float(np.linalg.norm(q @ x_new - rho_new * x_new))
        if residual_new > residual_norm and iterations > 1:
            # RQI can jump to a different eigenpair; keep the better iterate.
            break
        x, rho, residual_norm = x_new, rho_new, residual_new

    converged = residual_norm <= tol * max(1.0, abs(rho))
    return RQIResult(rho, x, residual_norm, iterations, converged)
