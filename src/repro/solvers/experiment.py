"""The ordering -> IC(0) -> PCG experiment (the intro's preconditioning motivation).

One call runs, for a given SPD matrix and a given ordering: build the IC(0)
factor of the reordered matrix, run preconditioned CG, and report iteration
counts and timings.  The ablation benchmark sweeps this over the library's
orderings to quantify the claim that envelope-reducing preorderings help
incomplete-factorization preconditioners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.bench.core import time_call
from repro.orderings.base import Ordering
from repro.solvers.cg import CGResult, conjugate_gradient
from repro.solvers.ic import incomplete_cholesky, jacobi_preconditioner
from repro.utils.validation import check_square

__all__ = ["PcgExperimentResult", "preconditioned_cg_experiment"]


@dataclass(frozen=True)
class PcgExperimentResult:
    """Outcome of one ordering/preconditioner/CG run.

    Attributes
    ----------
    ordering_name:
        Label of the ordering used (``"natural"`` when none).
    preconditioner:
        ``"ic0"``, ``"jacobi"`` or ``"none"``.
    cg:
        The :class:`CGResult` (in the *reordered* variable order).
    x:
        Solution mapped back to the original variable order.
    setup_time:
        Seconds spent building the preconditioner.
    solve_time:
        Seconds spent in CG.
    ic_shift:
        Diagonal shift IC(0) needed (0.0 normally).
    """

    ordering_name: str
    preconditioner: str
    cg: CGResult
    x: np.ndarray
    setup_time: float
    solve_time: float
    ic_shift: float = 0.0

    @property
    def iterations(self) -> int:
        """CG iterations performed."""
        return self.cg.iterations


def preconditioned_cg_experiment(
    matrix,
    b,
    ordering: Ordering | None = None,
    *,
    preconditioner: str = "ic0",
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> PcgExperimentResult:
    """Reorder, build a preconditioner, and solve ``A x = b`` with PCG.

    Parameters
    ----------
    matrix:
        SPD SciPy sparse matrix or dense array.
    b:
        Right-hand side (original ordering).
    ordering:
        Optional :class:`Ordering`; ``None`` keeps the natural order.
    preconditioner:
        ``"ic0"`` (default), ``"jacobi"`` or ``"none"``.
    tol, max_iter:
        CG controls.

    Returns
    -------
    PcgExperimentResult
    """
    matrix, n = check_square(matrix, "matrix")
    a = sp.csr_matrix(matrix, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},), got {b.shape}")

    if ordering is None:
        permuted, b_permuted = a, b
        name = "natural"
    else:
        perm = ordering.perm
        permuted = a[perm][:, perm].tocsr()
        b_permuted = b[perm]
        name = ordering.algorithm

    setup_time = 0.0
    ic_shift = 0.0
    if preconditioner == "ic0":
        ic, setup_time = time_call(incomplete_cholesky, permuted)
        apply_m = ic.apply
        ic_shift = ic.shifted
    elif preconditioner == "jacobi":
        apply_m, setup_time = time_call(jacobi_preconditioner, permuted)
    elif preconditioner == "none":
        apply_m = None
    else:
        raise ValueError(f"preconditioner must be 'ic0', 'jacobi' or 'none', got {preconditioner!r}")

    cg, solve_time = time_call(
        conjugate_gradient, permuted, b_permuted, preconditioner=apply_m, tol=tol, max_iter=max_iter
    )

    if ordering is None:
        x = cg.x
    else:
        x = np.empty(n, dtype=np.float64)
        x[ordering.perm] = cg.x

    return PcgExperimentResult(
        ordering_name=name,
        preconditioner=preconditioner,
        cg=cg,
        x=x,
        setup_time=setup_time,
        solve_time=solve_time,
        ic_shift=ic_shift,
    )
