"""Uniform front end for computing a second Laplacian eigenvector (Fiedler vector).

The paper computes the eigenvector either with Lanczos or with the multilevel
scheme; modern SciPy offers additional robust options (``eigsh`` / ARPACK with
a small shift, and LOBPCG).  :func:`fiedler_vector` exposes them all behind a
single ``method`` switch, and ``method="auto"`` picks a sensible solver based
on problem size:

=============  =====================================================
``dense``      full ``numpy.linalg.eigh`` on the dense Laplacian
               (exact; only for small graphs)
``lanczos``    :func:`repro.eigen.lanczos.lanczos_smallest_nontrivial`
``multilevel`` :func:`repro.eigen.multilevel.multilevel_fiedler`
``eigsh``      ``scipy.sparse.linalg.eigsh`` (shifted, smallest-magnitude)
``lobpcg``     ``scipy.sparse.linalg.lobpcg`` with constant-vector constraint
``auto``       dense for ``n <= 96``, lanczos for ``n <= 4000``,
               multilevel above
=============  =====================================================

All solvers return a vector orthogonal to the constant vector with a
deterministic sign convention (the entry of largest magnitude is positive),
so orderings derived from it are reproducible across solvers up to the
sort-direction choice Algorithm 1 makes anyway.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from repro.eigen.lanczos import deflate_constant, lanczos_smallest_nontrivial
from repro.eigen.multilevel import multilevel_fiedler
from repro.eigen.workspace import spectral_workspace
from repro.sparse.ops import structure_from_matrix
from repro.utils.rng import default_rng

__all__ = [
    "FiedlerResult", "fiedler_vector", "FIEDLER_METHODS", "FIEDLER_SOLVERS", "SOLVER_OPTIONS",
]

#: Methods accepted by :func:`fiedler_vector`.
FIEDLER_METHODS = ("auto", "dense", "lanczos", "multilevel", "eigsh", "lobpcg")


@dataclass(frozen=True)
class FiedlerResult:
    """A computed second Laplacian eigenpair.

    Attributes
    ----------
    eigenvalue:
        The algebraic connectivity estimate ``lambda_2``.
    eigenvector:
        Unit-norm Fiedler vector, orthogonal to the constant vector, with the
        largest-magnitude entry positive.
    method:
        The solver actually used (after ``auto`` resolution).
    residual_norm:
        ``||Q x - lambda x||_2``.
    converged:
        Whether the requested tolerance was met.
    """

    eigenvalue: float
    eigenvector: np.ndarray
    method: str
    residual_norm: float
    converged: bool


def _canonical_sign(x: np.ndarray) -> np.ndarray:
    """Flip the sign so the entry of largest magnitude is positive (ties: first)."""
    idx = int(np.argmax(np.abs(x)))
    if x[idx] < 0:
        return -x
    return x


def _resolve_auto(n: int) -> str:
    if n <= 96:
        return "dense"
    if n <= 4000:
        return "lanczos"
    return "multilevel"


def fiedler_vector(
    pattern,
    *,
    method: str = "auto",
    tol: float = 1e-8,
    rng=None,
    check_connected: bool = True,
    **solver_options,
) -> FiedlerResult:
    """Compute a second Laplacian eigenvector of the adjacency graph of *pattern*.

    Parameters
    ----------
    pattern:
        :class:`repro.sparse.SymmetricPattern`, SciPy sparse matrix, or dense
        array (structure only is used).
    method:
        One of :data:`FIEDLER_METHODS`.
    tol:
        Residual tolerance.
    rng:
        Seed or generator for the iterative solvers.
    check_connected:
        If true (default), raise :class:`ValueError` when the graph is
        disconnected — the Fiedler value of a disconnected graph is 0 and its
        eigenvector carries no ordering information.  Callers that handle
        components themselves (the spectral ordering does) pass ``False``.
    **solver_options:
        Extra keyword arguments for the solver (e.g. ``coarsest_size=...``
        for the multilevel method; :data:`SOLVER_OPTIONS` names what each
        takes).  An explicit *method* must take every one (else
        ``ValueError``).  ``auto`` forwards only those its resolved solver
        takes, so the components of one graph may resolve to different
        solvers.  A name no solver takes is a ``TypeError`` either way.

    Returns
    -------
    FiedlerResult
    """
    pattern = structure_from_matrix(pattern)
    n = pattern.n
    if n < 2:
        raise ValueError("the Fiedler vector is defined only for graphs with >= 2 vertices")
    if method not in FIEDLER_METHODS:
        raise ValueError(f"method must be one of {FIEDLER_METHODS}, got {method!r}")
    workspace = spectral_workspace(pattern)
    if check_connected and workspace.components()[0] != 1:
        raise ValueError(
            "the adjacency graph is disconnected; order each connected component "
            "separately (the spectral ordering does this automatically)"
        )

    resolved = _resolve_auto(n) if method == "auto" else method
    solver_options = _forwarded_options(method, resolved, solver_options)
    rng = default_rng(rng)

    # Persistent-store fast path: a converged eigensolve is cached keyed by
    # the structure digest, the full solver configuration AND the rng state
    # before the solve; the entry replays the solver's rng consumption on
    # load, so a warm run returns the bit-identical vector and leaves the
    # caller's random stream exactly where a cold run would.  Restricted to
    # the repo-owned deterministic iterations (lanczos / multilevel).
    store_slot = None
    if resolved in ("lanczos", "multilevel"):
        from repro.store import spectral as codecs
        from repro.store.core import get_default_store

        store = get_default_store()
        if store is not None:
            state_before = codecs.rng_state_json(rng)
            if state_before is not None:
                params = codecs.fiedler_params(
                    resolved, tol, solver_options, state_before
                )
                if params is not None:
                    digest = workspace.digest()
                    cached = codecs.load_fiedler(store, digest, params, rng)
                    if cached is not None:
                        return cached
                    store_slot = (store, digest, params)

    laplacian = workspace.laplacian()

    if resolved == "dense":
        values, vectors = np.linalg.eigh(laplacian.toarray())
        eigenvalue = float(values[1])
        vector = deflate_constant(vectors[:, 1])
        vector /= np.linalg.norm(vector)
        residual = float(np.linalg.norm(laplacian @ vector - eigenvalue * vector))
        converged = True
    elif resolved == "lanczos":
        result = lanczos_smallest_nontrivial(
            laplacian, tol=tol, rng=rng, **solver_options
        )
        eigenvalue, vector = result.eigenvalue, result.eigenvector
        residual, converged = result.residual_norm, result.converged
    elif resolved == "multilevel":
        result = multilevel_fiedler(
            pattern, tol=tol, rng=rng, **solver_options
        )
        eigenvalue, vector = result.eigenvalue, result.eigenvector
        residual, converged = result.residual_norm, result.converged
    elif resolved == "eigsh":
        eigenvalue, vector, residual, converged = _fiedler_eigsh(
            laplacian, tol=tol, rng=rng, **solver_options
        )
    elif resolved == "lobpcg":
        eigenvalue, vector, residual, converged = _fiedler_lobpcg(
            laplacian, tol=tol, rng=rng, **solver_options
        )
    else:  # pragma: no cover - guarded by FIEDLER_METHODS check
        raise AssertionError(resolved)

    vector = _canonical_sign(vector)
    result = FiedlerResult(
        eigenvalue=float(eigenvalue),
        eigenvector=vector,
        method=resolved,
        residual_norm=float(residual),
        converged=bool(converged),
    )
    if store_slot is not None and result.converged:
        from repro.store import spectral as codecs

        store, digest, params = store_slot
        state_after = codecs.rng_state_json(rng)
        if state_after is not None:
            try:
                codecs.save_fiedler(store, digest, params, result, state_after)
            except OSError:
                pass  # a read-only/full store must not fail the solve
    return result


def _forwarded_options(method: str, resolved: str, options: dict) -> dict:
    """The *options* the *resolved* solver takes; raise on one it may not drop."""
    accepted = SOLVER_OPTIONS[resolved]
    for name in options:
        if not any(name in names for names in SOLVER_OPTIONS.values()):
            raise TypeError(f"fiedler_vector() got an unexpected keyword argument {name!r}")
        if name not in accepted and method != "auto":
            raise ValueError(
                f"Fiedler method {method!r} takes no option {name!r}; "
                f"it takes {sorted(accepted)}"
            )
    return {name: value for name, value in options.items() if name in accepted}


def _fiedler_eigsh(laplacian, *, tol: float, rng, maxiter: int | None = None):
    """Second-smallest eigenpair via ARPACK shift-invert around zero.

    The singular Laplacian is factored unshifted (``sigma=0``); when that
    shift-invert solve fails, ARPACK's ``which="SM"`` mode runs instead.
    Either way the two smallest eigenpairs are requested and the nontrivial
    one selected.
    """
    n = laplacian.shape[0]
    v0 = default_rng(rng).standard_normal(n)
    k = 2
    try:
        values, vectors = spla.eigsh(
            laplacian, k=k, sigma=0.0, which="LM", v0=v0, maxiter=maxiter, tol=tol
        )
    except (RuntimeError, spla.ArpackError, ValueError):
        # Shift-invert can fail on tiny/singular systems; fall back to SM mode.
        values, vectors = spla.eigsh(
            laplacian, k=k, which="SM", v0=v0, maxiter=maxiter, tol=max(tol, 1e-10)
        )
    order = np.argsort(values)
    values, vectors = values[order], vectors[:, order]
    vector = deflate_constant(vectors[:, 1])
    norm = np.linalg.norm(vector)
    if norm < 1e-300:
        vector = deflate_constant(vectors[:, 0])
        norm = np.linalg.norm(vector)
    vector /= norm
    eigenvalue = float(values[1])
    residual = float(np.linalg.norm(laplacian @ vector - eigenvalue * vector))
    return eigenvalue, vector, residual, residual <= tol * max(1.0, abs(eigenvalue))


def _fiedler_lobpcg(laplacian, *, tol: float, rng, maxiter: int = 500):
    """Second-smallest eigenpair via LOBPCG with the constant vector constrained out."""
    n = laplacian.shape[0]
    generator = default_rng(rng)
    x0 = generator.standard_normal((n, 1))
    x0 -= x0.mean(axis=0, keepdims=True)
    ones = np.ones((n, 1)) / np.sqrt(n)
    import warnings

    with warnings.catch_warnings():
        # LOBPCG warns when postprocessing stops slightly above the requested
        # tolerance; the residual is checked and reported explicitly below.
        warnings.simplefilter("ignore")
        values, vectors = spla.lobpcg(
            laplacian, x0, Y=ones, largest=False, tol=tol, maxiter=maxiter
        )
    vector = deflate_constant(vectors[:, 0])
    vector /= np.linalg.norm(vector)
    eigenvalue = float(values[0])
    residual = float(np.linalg.norm(laplacian @ vector - eigenvalue * vector))
    return eigenvalue, vector, residual, residual <= tol * max(1.0, abs(eigenvalue))


#: The solver each iterative method runs: the ``**solver_options`` of
#: :func:`fiedler_vector` are keyword arguments of the resolved method's.
FIEDLER_SOLVERS = {
    "lanczos": lanczos_smallest_nontrivial,
    "multilevel": multilevel_fiedler,
    "eigsh": _fiedler_eigsh,
    "lobpcg": _fiedler_lobpcg,
}

#: The ``**solver_options`` names each method's solver takes: its keyword
#: parameters after the first, less ``tol`` and ``rng``, which
#: :func:`fiedler_vector` passes itself.  ``dense`` takes none.
SOLVER_OPTIONS = {"dense": frozenset()} | {
    method: frozenset(
        name for name, parameter in list(inspect.signature(solver).parameters.items())[1:]
        if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
    ) - {"tol", "rng"}
    for method, solver in FIEDLER_SOLVERS.items()
}
