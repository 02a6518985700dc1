"""Envelope (skyline) storage and factorization substrate.

Table 4.4 of the paper reports envelope-factorization times (SPARSPAK's
envelope Cholesky routine) for spectrally reordered matrices versus RCM.
This subpackage provides the equivalent machinery:

* :mod:`repro.factor.storage` — the row-oriented envelope (skyline) storage
  scheme: for every row, the contiguous segment from its first structural
  nonzero to the diagonal;
* :mod:`repro.factor.cholesky` — the envelope Cholesky factorization
  ``A = L L^T`` performed entirely inside the envelope (which is closed under
  the factorization: no fill occurs outside it), with operation counting;
* :mod:`repro.factor.solve` — forward/backward envelope triangular solves and
  the one-call :func:`repro.factor.solve.envelope_solve`.

The factorization cost grows with the sum of squared row widths — the
quadratic behaviour Table 4.4 demonstrates — so reducing the envelope
directly reduces both memory and factorization time.
"""

from repro.factor.storage import EnvelopeStorage
from repro.factor.cholesky import EnvelopeCholesky, envelope_cholesky, estimate_factor_work
from repro.factor.solve import envelope_solve

__all__ = [
    "EnvelopeStorage",
    "EnvelopeCholesky",
    "envelope_cholesky",
    "estimate_factor_work",
    "envelope_solve",
]
