"""Envelope parameters, 1- and 2-sums, spectral bounds and ordering theory (paper Section 2).

* :mod:`repro.envelope.metrics` — row widths, bandwidth, envelope size,
  envelope work, frontwidths/wavefront (Section 2.1 and 2.4 definitions);
* :mod:`repro.envelope.sums` — the 1-sum and 2-sum linking the envelope
  problem to the quadratic assignment formulation;
* :mod:`repro.envelope.bounds` — the inequalities of Theorem 2.1 and the
  Laplacian-eigenvalue bounds of Theorem 2.2;
* :mod:`repro.envelope.theory` — closest permutation vectors (Theorem 2.3 /
  Lemma 2.4), the permutation-vector set ``P``, and adjacency-ordering checks
  (Section 2.4, Theorem 2.5).
"""

from repro.envelope.metrics import (
    EnvelopeStatistics,
    bandwidth,
    envelope_size,
    envelope_statistics,
    envelope_work,
    first_nonzero_columns,
    frontwidths,
    row_widths,
)
from repro.envelope.sums import one_sum, two_sum
from repro.envelope.bounds import (
    envelope_size_bounds,
    envelope_work_bounds,
    theorem_2_1_relations,
    two_sum_lower_bound,
)
from repro.envelope.theory import (
    centered_permutation_values,
    closest_permutation_vector,
    is_adjacency_ordering,
    permutation_vector_from_ordering,
)
from repro.envelope.optimal import (
    ExactEnvelopeResult,
    minimum_bandwidth,
    minimum_envelope_size,
)

__all__ = [
    "EnvelopeStatistics",
    "row_widths",
    "first_nonzero_columns",
    "bandwidth",
    "envelope_size",
    "envelope_work",
    "frontwidths",
    "envelope_statistics",
    "one_sum",
    "two_sum",
    "envelope_size_bounds",
    "envelope_work_bounds",
    "two_sum_lower_bound",
    "theorem_2_1_relations",
    "closest_permutation_vector",
    "centered_permutation_values",
    "permutation_vector_from_ordering",
    "is_adjacency_ordering",
    "ExactEnvelopeResult",
    "minimum_envelope_size",
    "minimum_bandwidth",
]
