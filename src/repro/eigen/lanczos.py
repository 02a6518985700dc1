"""Lanczos iteration for the smallest nontrivial Laplacian eigenpair.

"The standard algorithm for computing a few eigenvalues and eigenvectors of
large sparse symmetric matrices is the Lanczos algorithm." (Section 3.)

The Laplacian ``Q`` is positive semidefinite with a known null vector — the
constant vector ``u = (1, ..., 1)`` when the graph is connected.  We therefore
run Lanczos on ``Q`` restricted to the orthogonal complement of ``u``
(deflation by projection) and extract the *smallest* Ritz pair, which then
approximates ``(lambda_2, x_2)``.

Reorthogonalization policy
--------------------------
Finite-precision Lanczos loses orthogonality exactly as Ritz pairs converge,
and because ``0`` is an extreme eigenvalue of ``Q`` the lost orthogonality
shows up as *ghost* copies of converged Ritz values (and of the deflated null
vector).  Two defenses are provided:

* ``reorth="selective"`` (default) — Simon's ω-recurrence estimates the
  worst-case loss of orthogonality of the incoming basis vector each step and
  triggers a full Gram–Schmidt pass against the stored basis only when the
  estimate crosses ``sqrt(eps)``.  That maintains *semiorthogonality*, which
  is sufficient for the computed Ritz values to be exact eigenvalues of a
  nearby matrix (Grcar/Simon) — i.e. no ghosts — at a fraction of the
  ``O(n·k²)`` cost of reorthogonalizing every step.
* ``reorth="full"`` — the escape hatch: reorthogonalize on every step, the
  pre-selective behaviour, for callers who want the belt-and-braces variant.

Either way the constant null vector is re-deflated on **every** step (the
projection is ``O(n)`` and the zero eigenvalue is the one direction selective
bookkeeping must never be allowed to miss), and the returned residual
``||Qx - λx||`` is computed explicitly from the Ritz pair — a ghost pair
cannot fake that check, which is what the convergence flag is based on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.utils.rng import default_rng

__all__ = ["LanczosResult", "lanczos_smallest_nontrivial", "deflate_constant"]

#: Machine epsilon and the semiorthogonality threshold of the ω-recurrence.
_EPS = float(np.finfo(np.float64).eps)
_SQRT_EPS = float(np.sqrt(_EPS))

#: Initial Krylov-block capacity; the preallocated block doubles on demand up
#: to ``max_iter + 1`` rows, so short runs never pay for the worst case.
_INITIAL_BLOCK_ROWS = 48


@dataclass(frozen=True)
class LanczosResult:
    """Result of a Lanczos run.

    Attributes
    ----------
    eigenvalue:
        Converged Ritz value approximating ``lambda_2``.
    eigenvector:
        Unit-norm Ritz vector orthogonal to the constant vector.
    residual_norm:
        ``||Q x - lambda x||_2`` at exit.
    iterations:
        Number of Lanczos steps performed.
    converged:
        Whether ``residual_norm <= tol * max(1, |eigenvalue|)``.
    reorth_count:
        Full reorthogonalization passes actually performed (every step under
        ``reorth="full"``).
    """

    eigenvalue: float
    eigenvector: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    reorth_count: int = 0


def deflate_constant(x: np.ndarray) -> np.ndarray:
    """Project *x* onto the orthogonal complement of the constant vector."""
    return x - x.mean()


def _as_operator(matrix):
    if sp.issparse(matrix):
        return matrix.tocsr(), matrix.shape[0]
    if isinstance(matrix, spla.LinearOperator):
        return matrix, matrix.shape[0]
    matrix = np.asarray(matrix, dtype=np.float64)
    return matrix, matrix.shape[0]


def _grown(basis: np.ndarray, rows_needed: int, max_rows: int) -> np.ndarray:
    """Return *basis* with capacity for ``rows_needed`` rows (geometric growth)."""
    if rows_needed <= basis.shape[0]:
        return basis
    new_rows = min(max_rows, max(rows_needed, 2 * basis.shape[0]))
    grown = np.zeros((new_rows, basis.shape[1]))
    grown[: basis.shape[0]] = basis
    return grown


def lanczos_smallest_nontrivial(
    laplacian,
    *,
    tol: float = 1e-8,
    max_iter: int | None = None,
    start: np.ndarray | None = None,
    rng=None,
    restarts: int = 3,
    reorth: str = "selective",
) -> LanczosResult:
    """Smallest nontrivial eigenpair of a graph Laplacian by Lanczos.

    Parameters
    ----------
    laplacian:
        Sparse/dense Laplacian matrix or a symmetric positive semidefinite
        linear operator with a constant null vector.
    tol:
        Relative residual tolerance ``||Qx - λx|| <= tol * max(1, λ)``.
    max_iter:
        Maximum Krylov dimension per restart (default ``min(n, max(2, 10·log2 n + 30))``).
    start:
        Optional start vector (will be deflated and normalized).  A good start
        vector — such as an interpolated coarse eigenvector — dramatically
        reduces the iteration count, which is what the multilevel scheme
        exploits.
    rng:
        Seed or generator for the random start vector.
    restarts:
        Number of thick-restart style outer restarts (restart from the current
        best Ritz vector) before giving up on the tolerance.
    reorth:
        ``"selective"`` (default; ω-recurrence-triggered reorthogonalization)
        or ``"full"`` (every step) — see the module docstring.

    Returns
    -------
    LanczosResult
    """
    if reorth not in ("selective", "full"):
        raise ValueError(f"reorth must be 'selective' or 'full', got {reorth!r}")
    op, n = _as_operator(laplacian)
    if n < 2:
        raise ValueError("Laplacian must be at least 2 x 2")
    if isinstance(op, spla.LinearOperator):
        matvec = op.matvec
    else:
        def matvec(v):
            return op @ v

    if max_iter is None:
        max_iter = int(min(n - 1, max(30, 10 * np.log2(max(n, 2)) + 30)))
    max_iter = max(1, min(max_iter, n - 1))

    rng = default_rng(rng)
    if start is None:
        q = rng.standard_normal(n)
    else:
        q = np.asarray(start, dtype=np.float64).copy()
    q = deflate_constant(q)
    norm = np.linalg.norm(q)
    if norm < 1e-300:
        q = deflate_constant(rng.standard_normal(n))
        norm = np.linalg.norm(q)
    q /= norm

    best = None
    total_iters = 0
    reorth_count = 0
    selective = reorth == "selective"
    # The Krylov block is preallocated and grown geometrically; every slot
    # read below (basis[:k_used], alphas[:k_used], betas[:k_used-1]) is
    # written first within each restart, so reuse cannot leak state between
    # restarts.
    basis = np.zeros((min(_INITIAL_BLOCK_ROWS, max_iter + 1), n))
    alphas = np.zeros(max_iter)
    betas = np.zeros(max_iter)
    # ω-recurrence state (selective mode): omega[j] estimates
    # |basis[k]·basis[j]|, omega_prev the same one step earlier.
    omega = np.zeros(max_iter + 1)
    omega_prev = np.zeros(max_iter + 1)
    for _restart in range(max(1, restarts)):
        basis[0] = q
        k_used = 0
        if selective:
            omega[:] = _EPS
            omega_prev[:] = _EPS
        for k in range(max_iter):
            basis = _grown(basis, k + 2, max_iter + 1)
            w = matvec(basis[k])
            w = deflate_constant(w)
            alphas[k] = float(np.dot(basis[k], w))
            w -= alphas[k] * basis[k]
            if k > 0:
                w -= betas[k - 1] * basis[k - 1]
            if selective:
                # Re-deflate the constant null vector every step: rounding
                # reintroduces a component along it, and because 0 is an
                # extreme eigenvalue of Q the iteration would amplify it into
                # a spurious zero Ritz value.
                w = deflate_constant(w)
                beta = float(np.linalg.norm(w))
                k_used = k + 1
                if beta < 1e-14:
                    break
                # Simon's ω-recurrence: estimate the loss of orthogonality of
                # the incoming vector against every stored basis vector and
                # reorthogonalize only when semiorthogonality (sqrt(eps)) is
                # about to be violated.
                omega_next = np.full(max_iter + 1, _EPS)
                if k > 0:
                    j = np.arange(k)
                    recur = (
                        betas[j] * omega[j + 1]
                        + (alphas[j] - alphas[k]) * omega[j]
                        - betas[k - 1] * omega_prev[j]
                    )
                    recur[1:] += betas[j[1:] - 1] * omega[j[1:] - 1]
                    omega_next[:k] = (
                        np.abs(recur) + 2.0 * _EPS * np.hypot(alphas[k], beta)
                    ) / beta
                if float(np.max(omega_next[: k + 1])) > _SQRT_EPS:
                    coeffs = basis[: k + 1] @ w
                    w -= basis[: k + 1].T @ coeffs
                    w = deflate_constant(w)
                    beta = float(np.linalg.norm(w))
                    reorth_count += 1
                    omega_next[: k + 1] = _EPS
                    if beta < 1e-14:
                        break
                omega_prev, omega = omega, omega_next
            else:
                # Full reorthogonalization against the basis built so far,
                # and an explicit re-deflation of the constant null vector.
                coeffs = basis[: k + 1] @ w
                w -= basis[: k + 1].T @ coeffs
                w = deflate_constant(w)
                reorth_count += 1
                beta = float(np.linalg.norm(w))
                k_used = k + 1
                if beta < 1e-14:
                    break
            betas[k] = beta
            basis[k + 1] = w / beta

        total_iters += k_used
        theta, s = la.eigh_tridiagonal(alphas[:k_used], betas[: k_used - 1])
        ritz_value = float(theta[0])
        ritz_vector = basis[:k_used].T @ s[:, 0]
        ritz_vector = deflate_constant(ritz_vector)
        ritz_norm = np.linalg.norm(ritz_vector)
        if ritz_norm < 1e-300:  # degenerate; retry with a fresh random vector
            q = deflate_constant(rng.standard_normal(n))
            q /= np.linalg.norm(q)
            continue
        ritz_vector /= ritz_norm
        residual = matvec(ritz_vector) - ritz_value * ritz_vector
        residual_norm = float(np.linalg.norm(residual))
        candidate = LanczosResult(
            eigenvalue=ritz_value,
            eigenvector=ritz_vector,
            residual_norm=residual_norm,
            iterations=total_iters,
            converged=residual_norm <= tol * max(1.0, abs(ritz_value)),
            reorth_count=reorth_count,
        )
        if best is None or candidate.residual_norm < best.residual_norm:
            best = candidate
        if candidate.converged:
            return candidate
        # Restart from the best Ritz vector found so far.
        q = best.eigenvector.copy()

    if best is None:  # pragma: no cover - requires repeatedly degenerate Ritz vectors
        raise RuntimeError("Lanczos failed to produce a nontrivial Ritz vector")
    if selective and not best.converged:
        # Semiorthogonality bounds the attainable Ritz residual at roughly
        # sqrt(eps) * ||Q||; tolerances tighter than that can stall under
        # selective reorthogonalization.  Self-heal with one full-reorth
        # restart from the best vector — the rare hard case pays for the
        # accuracy it asked for, every other caller keeps the cheap path.
        fallback = lanczos_smallest_nontrivial(
            laplacian, tol=tol, max_iter=max_iter, start=best.eigenvector,
            rng=rng, restarts=1, reorth="full",
        )
        if fallback.residual_norm < best.residual_norm:
            best = fallback
        from dataclasses import replace

        best = replace(
            best,
            iterations=total_iters + fallback.iterations,
            reorth_count=reorth_count + fallback.reorth_count,
        )
    return best
