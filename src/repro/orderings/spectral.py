"""The spectral envelope-reducing ordering (Algorithm 1 of the paper).

    ALGORITHM 1. Spectral Algorithm
      1. Given the sparsity structure of a matrix M, form the Laplacian
         matrix L.
      2. Compute a second eigenvector x_2 of L.
      3. Sort the components of the eigenvector in nondecreasing order, and
         reorder the matrix M using the corresponding permutation vector.
         Also sort the components in nonincreasing order, and compute the
         corresponding reordering of the matrix M.  Choose the permutation
         that leads to the smaller envelope size.

The eigenvector computation (step 2) is delegated to
:func:`repro.eigen.fiedler.fiedler_vector`, which offers Lanczos, the
multilevel scheme of Section 3, and SciPy's solvers.  Step 3 is a stable sort
of the eigenvector components; ties (equal components, which arise from graph
symmetries) are broken by vertex degree and then original index so that the
result is deterministic.

The paper assumes the matrix is irreducible; disconnected matrices are
handled by ordering each connected component independently and concatenating,
which preserves the per-component envelope optimality properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.envelope.metrics import envelope_size
from repro.eigen.fiedler import fiedler_vector
from repro.orderings.base import Ordering, order_by_components
from repro.sparse.ops import structure_from_matrix
from repro.sparse.pattern import SymmetricPattern

__all__ = ["SpectralOrderingResult", "spectral_ordering", "ordering_from_vector"]


@dataclass(frozen=True)
class SpectralOrderingResult:
    """Detailed result of a spectral ordering on a *connected* pattern.

    Attributes
    ----------
    ordering:
        The chosen :class:`Ordering` (nondecreasing or nonincreasing sort,
        whichever gives the smaller envelope).
    fiedler_value:
        Estimate of ``lambda_2``.
    fiedler_vector:
        The eigenvector used (original vertex numbering).
    direction:
        ``"nondecreasing"`` or ``"nonincreasing"`` — the winning sort
        direction of Algorithm 1 step 3.
    envelope_nondecreasing / envelope_nonincreasing:
        Envelope sizes of the two candidate orderings.
    solver:
        Eigen-solver used (after ``auto`` resolution).
    """

    ordering: Ordering
    fiedler_value: float
    fiedler_vector: np.ndarray
    direction: str
    envelope_nondecreasing: int
    envelope_nonincreasing: int
    solver: str = "auto"
    extra: dict = field(default_factory=dict)


def ordering_from_vector(
    vector: np.ndarray,
    pattern: SymmetricPattern | None = None,
    direction: str = "nondecreasing",
) -> np.ndarray:
    """Permutation induced by sorting the components of *vector*.

    Ties are broken by vertex degree (if *pattern* is given) and then by
    original index, making the ordering deterministic — Theorem 2.3 leaves
    the tie handling free, so any stable rule yields a closest permutation
    vector.

    Returns
    -------
    numpy.ndarray
        New-to-old permutation: position ``k`` holds the vertex with the
        ``k``-th smallest (or largest) component.
    """
    vector = np.asarray(vector, dtype=np.float64)
    n = vector.size
    if direction not in ("nondecreasing", "nonincreasing"):
        raise ValueError(f"direction must be 'nondecreasing' or 'nonincreasing', got {direction!r}")
    keys_primary = vector if direction == "nondecreasing" else -vector
    if pattern is not None:
        degrees = pattern.degree().astype(np.float64)
    else:
        degrees = np.zeros(n)
    # np.lexsort sorts by the *last* key first.
    order = np.lexsort((np.arange(n), degrees, keys_primary))
    return order.astype(np.intp)


def _spectral_component(
    pattern: SymmetricPattern,
    method: str,
    tol: float,
    rng,
    solver_options: dict,
    detail_sink: list | None = None,
) -> np.ndarray:
    """Algorithm 1 on one connected component; returns the new-to-old permutation."""
    n = pattern.n
    if n == 1:
        if detail_sink is not None:
            detail_sink.append(None)
        return np.zeros(1, dtype=np.intp)
    result = fiedler_vector(
        pattern,
        method=method,
        tol=tol,
        rng=rng,
        check_connected=False,
        **solver_options,
    )
    vec = result.eigenvector
    perm_up = ordering_from_vector(vec, pattern, "nondecreasing")
    perm_down = ordering_from_vector(vec, pattern, "nonincreasing")
    esize_up = envelope_size(pattern, perm_up)
    esize_down = envelope_size(pattern, perm_down)
    if esize_down < esize_up:
        chosen, direction = perm_down, "nonincreasing"
    else:
        chosen, direction = perm_up, "nondecreasing"
    if detail_sink is not None:
        detail_sink.append(
            {
                "fiedler_value": result.eigenvalue,
                "fiedler_vector": vec,
                "direction": direction,
                "envelope_nondecreasing": esize_up,
                "envelope_nonincreasing": esize_down,
                "solver": result.method,
                "converged": result.converged,
            }
        )
    return chosen


def spectral_ordering(
    pattern,
    *,
    method: str = "auto",
    tol: float = 1e-8,
    rng=None,
    return_details: bool = False,
    **solver_options,
):
    """Spectral envelope-reducing ordering (Algorithm 1).

    Parameters
    ----------
    pattern:
        Matrix structure (pattern, SciPy sparse matrix or dense array).
    method:
        Eigen-solver passed to :func:`repro.eigen.fiedler.fiedler_vector`
        (``"auto"``, ``"lanczos"``, ``"multilevel"``, ``"eigsh"``,
        ``"lobpcg"``, ``"dense"``).
    tol:
        Eigen-residual tolerance.
    rng:
        Seed or generator for the iterative solvers.
    return_details:
        If true, return a :class:`SpectralOrderingResult` (connected input
        only — with several components the per-component details are attached
        to ``Ordering.metadata["components"]`` instead).
    **solver_options:
        Extra options forwarded to the eigen-solver (e.g. ``coarsest_size``;
        see :func:`repro.eigen.fiedler.fiedler_vector`).

    Returns
    -------
    Ordering or SpectralOrderingResult
    """
    pattern = structure_from_matrix(pattern)
    details: list = []
    ordering = order_by_components(
        pattern,
        lambda sub: _spectral_component(sub, method, tol, rng, solver_options, details),
        algorithm="spectral",
        metadata={"method": method, "tol": tol},
    )
    component_details = [d for d in details if d is not None]
    if component_details:
        ordering.metadata["components"] = component_details
        # Summary fields for the common connected case.
        ordering.metadata["direction"] = component_details[0]["direction"]
        ordering.metadata["fiedler_value"] = component_details[0]["fiedler_value"]
        ordering.metadata["solver"] = component_details[0]["solver"]

    if not return_details:
        return ordering
    if not component_details:
        raise ValueError("return_details requires at least one nontrivial component")
    first = component_details[0]
    return SpectralOrderingResult(
        ordering=ordering,
        fiedler_value=float(first["fiedler_value"]),
        fiedler_vector=np.asarray(first["fiedler_vector"]),
        direction=first["direction"],
        envelope_nondecreasing=int(first["envelope_nondecreasing"]),
        envelope_nonincreasing=int(first["envelope_nonincreasing"]),
        solver=first["solver"],
        extra={"num_components": ordering.metadata.get("num_components", 1)},
    )
