"""Reordering algorithms.

The paper's contribution is the *spectral* envelope-reducing ordering
(:mod:`repro.orderings.spectral`).  The algorithms it is evaluated against are
implemented here as well, from their original descriptions:

* Cuthill-McKee and reverse Cuthill-McKee (:mod:`repro.orderings.cuthill_mckee`),
* Gibbs-Poole-Stockmeyer (:mod:`repro.orderings.gps`),
* Gibbs-King (:mod:`repro.orderings.gibbs_king`),

plus two extensions the paper points to:

* Sloan's algorithm (:mod:`repro.orderings.sloan`), the other classical
  profile-reduction heuristic,
* a hybrid spectral + local refinement pass (:mod:`repro.orderings.hybrid`),
  the "limited use of a local reordering strategy" suggested in Section 4.

Every algorithm returns an :class:`repro.orderings.base.Ordering` — a
validated permutation with a uniform new-to-old convention — and handles
disconnected matrices by ordering each connected component independently.
"""

from repro.orderings.base import (
    Ordering,
    identity_ordering,
    order_by_components,
    random_ordering,
)
from repro.orderings.cuthill_mckee import cuthill_mckee_ordering, rcm_ordering
from repro.orderings.gps import gps_ordering
from repro.orderings.gibbs_king import gibbs_king_ordering
from repro.orderings.king import king_ordering, reverse_king_ordering
from repro.orderings.sloan import sloan_ordering
from repro.orderings.spectral import spectral_ordering
from repro.orderings.hybrid import hybrid_spectral_ordering
from repro.orderings.registry import ORDERING_ALGORITHMS, get_ordering_algorithm

__all__ = [
    "Ordering",
    "identity_ordering",
    "random_ordering",
    "order_by_components",
    "cuthill_mckee_ordering",
    "rcm_ordering",
    "gps_ordering",
    "gibbs_king_ordering",
    "king_ordering",
    "reverse_king_ordering",
    "sloan_ordering",
    "spectral_ordering",
    "hybrid_spectral_ordering",
    "ORDERING_ALGORITHMS",
    "get_ordering_algorithm",
]
