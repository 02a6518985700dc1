"""The multilevel Fiedler-vector algorithm (Barnard & Simon; paper Section 3).

The three ingredients added to Lanczos are:

* **Contraction** — build a series of smaller graphs by maximal independent
  sets and breadth-first domain growing
  (:func:`repro.graph.coarsen.coarsening_hierarchy`), each at most half the
  size of the one before, stopping when the graph has at most
  ``coarsest_size`` vertices (the paper uses "typically 100"), after
  :data:`~repro.graph.coarsen.MAX_LEVELS` contractions, or when a
  contraction stops shrinking it;
* **Interpolation** — prolong a coarse second eigenvector to the next finer
  graph (:func:`repro.graph.coarsen.interpolate_block`);
* **Refinement** — polish the interpolated vector with Rayleigh Quotient
  Iteration (:func:`repro.eigen.rqi.rayleigh_quotient_iteration`), which
  "usually requires only one or perhaps two iterations".

Robustness addition (documented deviation from the paper): RQI converges to
the eigenpair *nearest its starting Rayleigh quotient*, which on graphs with
clustered low eigenvalues (unstructured meshes, random geometric graphs) can
be ``lambda_3`` or higher when the piecewise-constant interpolation is rough.
To keep the solver reliable on such graphs a small *block* of the three
lowest coarse eigenvectors is carried up the hierarchy and refined with a
few warm-started LOBPCG iterations per level (20 at the finest level and in
the final polish, 10 below), with the constant vector constrained out.  The
leading refined vector is still passed through RQI exactly as the paper
describes; the block is the safety net that keeps it attached to the bottom
of the spectrum.

Hot-path layout: the Laplacian, the component split and the coarsening
hierarchy (plus one prebuilt Laplacian per level) come from the shared
:class:`repro.eigen.workspace.SpectralWorkspace` plan attached to the
pattern, so repeated solves — ``spectral`` and ``hybrid`` cells of one suite
problem, bench repeats, the two sort directions of Algorithm 1 — never
re-coarsen or re-assemble a matrix.  Per-level refinement bounds the RQI
inner MINRES sweep (at most 80 iterations: the tail of a long MINRES sweep
polishes digits the next level's interpolation throws away) and
relaxes the intermediate-level LOBPCG tolerance to ``1e-6`` so converged
levels exit early; the finest level and the final polish still run at the
caller's ``tol``.  A warm-started Lanczos guard then tries to close a
residual that is above the bar but within ``_GUARD_RESIDUAL_WINDOW`` (1e3)
of it.  The guard does not backstop the residual contract: a residual
further above the bar is returned unconverged without the guard running
(``grid2d_pattern(60, 48)`` ends at 1.4e-4, BODY at scale 0.25 at 1.4e-5,
both against a 1e-8 bar), and ``converged`` reports it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from repro.eigen.lanczos import deflate_constant, lanczos_smallest_nontrivial
from repro.eigen.rqi import rayleigh_quotient, rayleigh_quotient_iteration
from repro.eigen.workspace import spectral_workspace
from repro.graph.coarsen import interpolate_block
from repro.sparse.pattern import SymmetricPattern
from repro.utils.rng import default_rng

__all__ = ["MultilevelResult", "multilevel_fiedler"]

#: Intermediate hierarchy levels refine to this tolerance (or the caller's
#: ``tol`` if looser): the next interpolation re-introduces O(1e-2) error, so
#: polishing coarse levels to 1e-8 is wasted work.  The finest level and the
#: final polish always use the caller's ``tol``.
_INTERMEDIATE_TOL = 1e-6

#: Cap on MINRES iterations inside each per-level RQI refinement.
_RQI_INNER_CAP = 80

#: Low eigenvector approximations carried up the hierarchy (the robustness
#: block of the module docstring; 1 would be the paper's single vector).
_BLOCK_SIZE = 3

#: Warm-started LOBPCG iterations at the finest level and in the final polish.
_LOBPCG_STEPS = 20

#: LOBPCG sweep budget at *intermediate* levels: the next interpolation
#: discards most of the extra accuracy, and the finest-level sweep, polish
#: and guard decide the final residual.
_INTERMEDIATE_LOBPCG_STEPS = 10

#: The warm-started Lanczos guard only runs when the residual is within this
#: factor of the tolerance: its bounded budget (40 steps x 2 restarts)
#: reliably closes gaps of a few orders of magnitude but cannot rescue a
#: residual thousands of times above tol (measured on the bench problems —
#: it burns its whole budget and returns the start vector's residual), so
#: such results are returned unconverged without the wasted sweep, exactly
#: as they were when the guard ran and failed.
_GUARD_RESIDUAL_WINDOW = 1e3


@dataclass(frozen=True)
class MultilevelResult:
    """Result of the multilevel Fiedler computation.

    Attributes
    ----------
    eigenvalue:
        Estimate of ``lambda_2`` on the original graph.
    eigenvector:
        Unit-norm Fiedler-vector estimate, orthogonal to the constant vector.
    residual_norm:
        Laplacian eigen-residual on the original graph.
    levels:
        Number of contraction levels used (0 means the graph was already
        small enough for a direct coarse solve).
    level_sizes:
        Vertex counts of every graph in the hierarchy, finest first.
    coarse_iterations:
        Lanczos iterations spent on the coarsest graph (0 when it was solved
        densely).
    refinement_iterations:
        Total RQI steps summed over all refinement sweeps.
    converged:
        Whether ``residual_norm <= tol * max(1, |eigenvalue|)``.
    """

    eigenvalue: float
    eigenvector: np.ndarray
    residual_norm: float
    levels: int
    level_sizes: list = field(default_factory=list)
    coarse_iterations: int = 0
    refinement_iterations: int = 0
    converged: bool = False


def _orthonormal_block(block: np.ndarray, rng) -> np.ndarray:
    """Deflate the constant vector from every column and orthonormalize."""
    block = np.atleast_2d(np.asarray(block, dtype=np.float64))
    if block.ndim == 1:
        block = block[:, None]
    block = block - block.mean(axis=0, keepdims=True)
    n, k = block.shape
    # Replace (numerically) zero columns with random deflated vectors.
    norms = np.linalg.norm(block, axis=0)
    for j in np.flatnonzero(norms < 1e-12):
        block[:, j] = deflate_constant(rng.standard_normal(n))
    q, _ = np.linalg.qr(block)
    return q


def _coarse_block_solve(lap, tol: float, rng) -> np.ndarray:
    """Smallest nontrivial eigenvectors of the coarsest graph's Laplacian *lap*.

    The coarsest graph normally has at most ``coarsest_size`` (about 100)
    vertices and is solved densely.  On hub graphs the maximal independent
    set keeps most of the leaves, each contraction removes only a few percent
    of the vertices, and the hierarchy can spend its
    :data:`~repro.graph.coarsen.MAX_LEVELS` contractions first: RANDOM/RMAT
    at scale 0.02 still ends at 1,357 vertices after 50 contractions.  Such a
    coarsest graph is solved by constrained LOBPCG from a random block
    instead.
    """
    n = lap.shape[0]
    k = int(min(_BLOCK_SIZE, max(1, n - 1)))
    if n <= 600:
        _values, vectors = np.linalg.eigh(lap.toarray())
        block = vectors[:, 1 : 1 + k]
    else:
        start = _orthonormal_block(rng.standard_normal((n, k)), rng)
        _values, block = _lobpcg_refine(lap, start, tol=tol, maxiter=300)
    if block.shape[1] < k:  # pad with random deflated columns for tiny graphs
        pad = rng.standard_normal((n, k - block.shape[1]))
        block = np.hstack([block, pad])
    return _orthonormal_block(block, rng)


def _lobpcg_refine(laplacian, block: np.ndarray, tol: float, maxiter: int):
    """Warm-started LOBPCG sweep with the constant vector constrained out."""
    n = laplacian.shape[0]
    k = block.shape[1]
    if n < 5 * k + 2 or k < 1:
        # LOBPCG is unreliable on very small problems; fall back to dense.
        values, vectors = np.linalg.eigh(laplacian.toarray())
        return values[1 : 1 + k], vectors[:, 1 : 1 + k]
    ones = np.ones((n, 1)) / np.sqrt(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        values, vectors = spla.lobpcg(
            laplacian, block, Y=ones, largest=False, tol=tol, maxiter=maxiter
        )
    order = np.argsort(values)
    return np.asarray(values)[order], np.asarray(vectors)[:, order]


def _leading_residual(lap, block: np.ndarray):
    """``(vector, rho, residual)`` of the block's leading column on *lap*."""
    vector = deflate_constant(block[:, 0])
    vector /= np.linalg.norm(vector)
    rho = rayleigh_quotient(lap, vector)
    residual = float(np.linalg.norm(lap @ vector - rho * vector))
    return vector, rho, residual


def multilevel_fiedler(
    pattern: SymmetricPattern,
    *,
    coarsest_size: int = 100,
    tol: float = 1e-8,
    rqi_steps: int = 2,
    rng=None,
) -> MultilevelResult:
    """Compute the Fiedler vector with the multilevel contract/interpolate/refine scheme.

    Parameters
    ----------
    pattern:
        Adjacency structure of a *connected* graph (callers split components
        first; see :func:`repro.orderings.spectral.spectral_ordering`).
    coarsest_size:
        Contraction stops once the coarse graph has at most this many
        vertices ("typically 100" in the paper).
    tol:
        Residual tolerance for the finest-level refinement and the final
        result (intermediate levels use ``max(tol, 1e-6)``; see module
        docstring).
    rqi_steps:
        Maximum RQI steps applied to the leading vector at the finest level
        ("one or perhaps two" usually suffice); coarser levels take at most
        one.
    rng:
        Seed or generator for the random fallbacks.

    Returns
    -------
    MultilevelResult
    """
    n = pattern.n
    if n < 2:
        raise ValueError("the graph must have at least 2 vertices")
    rng = default_rng(rng)

    workspace = spectral_workspace(pattern)
    hierarchy, level_laps = workspace.hierarchy(coarsest_size)
    level_sizes = [pattern.n] + [lvl.coarse_pattern.n for lvl in hierarchy]

    # The finest-level Laplacian is shared by every refinement sweep, the
    # final polish and the residual bookkeeping below — and, through the
    # workspace, with every other solve on this pattern.
    full_lap = workspace.laplacian()
    coarsest_lap = level_laps[-1] if hierarchy else full_lap

    mid_tol = max(tol, _INTERMEDIATE_TOL)

    # --- coarse solve --------------------------------------------------- #
    block = _coarse_block_solve(coarsest_lap, tol, rng)
    coarse_iterations = 0  # dense coarse solve: no Lanczos iterations to report

    # --- interpolate + refine up the hierarchy --------------------------- #
    refinement_iterations = 0
    for idx in range(len(hierarchy) - 1, -1, -1):
        level = hierarchy[idx]
        fine_lap = full_lap if idx == 0 else level_laps[idx - 1]
        fine_n = level.fine_n
        level_tol = tol if idx == 0 else mid_tol

        block = _orthonormal_block(interpolate_block(level, block), rng)

        # Paper-faithful step: Rayleigh Quotient Iteration on the leading
        # vector — "usually requires only one or perhaps two iterations".
        # One step suffices at intermediate levels (the next interpolation
        # re-roughens the vector anyway); the finest level gets the caller's
        # full ``rqi_steps`` budget.
        refined = rayleigh_quotient_iteration(
            fine_lap, block[:, 0], tol=level_tol,
            max_iter=rqi_steps if idx == 0 else min(rqi_steps, 1),
            inner_iter=min(fine_n, _RQI_INNER_CAP),
        )
        refinement_iterations += refined.iterations
        block[:, 0] = refined.eigenvector
        block = _orthonormal_block(block, rng)

        # Robustness step: a short warm-started LOBPCG sweep on the block —
        # full budget at the finest level (it owns the residual contract
        # together with the polish below), reduced budget at intermediate
        # levels whose extra digits the next interpolation discards.
        level_steps = _LOBPCG_STEPS if idx == 0 else _INTERMEDIATE_LOBPCG_STEPS
        _values, block = _lobpcg_refine(
            fine_lap, block, tol=level_tol, maxiter=level_steps
        )
        block = _orthonormal_block(block, rng)

    # --- final polish / bookkeeping on the original graph ----------------- #
    vector, rho, residual = _leading_residual(full_lap, block)
    if hierarchy and residual > tol * max(1.0, abs(rho)):
        _values, block = _lobpcg_refine(
            full_lap, block, tol=tol, maxiter=_LOBPCG_STEPS
        )
        vector, rho, residual = _leading_residual(full_lap, block)

    tol_bar = tol * max(1.0, abs(rho))
    if tol_bar < residual <= _GUARD_RESIDUAL_WINDOW * tol_bar:
        # Last resort: warm-started Lanczos from the multilevel vector.
        guard = lanczos_smallest_nontrivial(
            full_lap, start=vector, tol=tol, max_iter=40, restarts=2, rng=rng,
        )
        coarse_iterations += guard.iterations
        if guard.eigenvalue <= rho + tol and guard.residual_norm <= residual:
            vector, rho, residual = guard.eigenvector, guard.eigenvalue, guard.residual_norm

    return MultilevelResult(
        eigenvalue=float(rho),
        eigenvector=vector,
        residual_norm=residual,
        levels=len(hierarchy),
        level_sizes=level_sizes,
        coarse_iterations=coarse_iterations,
        refinement_iterations=refinement_iterations,
        converged=residual <= tol * max(1.0, abs(rho)),
    )
