"""The Gibbs-King (GK) profile-reducing ordering.

Gibbs (1976, TOMS Algorithm 509) combines the GPS combined level structure
with King's numbering criterion.  The paper observes (Section 4):

    "Generally the GPS algorithm yields a lower bandwidth while the GK
    algorithm yields a lower envelope size.  Our results are in agreement
    with this conclusion."

The implementation reuses the GPS phases 1-2
(:func:`repro.orderings.gps.combined_level_structure`) and replaces the
within-level numbering rule by King's criterion: the next vertex chosen is the
candidate whose numbering enlarges the active front the least, i.e. the one
with the fewest unnumbered neighbours that are not yet adjacent to any
numbered vertex (:func:`repro.orderings.gps.number_by_levels` with
``tie_break="king"``).  As with GPS, the better of the ordering and its
reverse (by envelope size) is returned.
"""

from __future__ import annotations

import numpy as np

from repro.orderings.base import Ordering, forward_or_reverse, order_by_components
from repro.orderings.gps import combined_level_structure, number_by_levels
from repro.sparse.pattern import SymmetricPattern

__all__ = ["gibbs_king_ordering"]


def _gk_component(pattern: SymmetricPattern) -> np.ndarray:
    if pattern.n == 1:
        return np.zeros(1, dtype=np.intp)
    levels, _height, start, _end = combined_level_structure(pattern)
    forward = number_by_levels(pattern, levels, start, tie_break="king")
    return forward_or_reverse(pattern, forward)


def gibbs_king_ordering(pattern) -> Ordering:
    """Gibbs-King ordering of a symmetric matrix structure.

    Returns
    -------
    Ordering
        ``algorithm == "gk"``; metadata records the number of components.
    """
    return order_by_components(pattern, _gk_component, algorithm="gk")
