"""King's profile-reducing ordering (and its reverse).

King (1970) numbers vertices one at a time, always choosing the candidate that
increases the active front the least.  The Gibbs-King algorithm evaluated in
the paper is exactly this numbering rule applied inside the
Gibbs-Poole-Stockmeyer combined level structure; the *plain* King ordering
applies it inside an ordinary rooted level structure from a pseudo-peripheral
node.  It is included as an additional baseline (it predates GK and is the
ancestor of the frontwidth-greedy family) and is exercised by the ablation
benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.graph.peripheral import pseudo_peripheral_node
from repro.orderings.base import Ordering, forward_or_reverse, order_by_components
from repro.orderings.gps import number_by_levels
from repro.sparse.pattern import SymmetricPattern

__all__ = ["king_ordering", "reverse_king_ordering"]


def _king_component(pattern: SymmetricPattern) -> np.ndarray:
    if pattern.n == 1:
        return np.zeros(1, dtype=np.intp)
    root, structure = pseudo_peripheral_node(pattern)
    levels = structure.level_of.copy()
    # Unreached vertices cannot exist on a connected component, but clamp for safety.
    levels[levels < 0] = int(levels.max(initial=0)) + 1
    forward = number_by_levels(pattern, levels, int(root), tie_break="king")
    return forward_or_reverse(pattern, forward)


def king_ordering(pattern) -> Ordering:
    """King's ordering of a symmetric matrix structure.

    Returns
    -------
    Ordering
        ``algorithm == "king"``.
    """
    return order_by_components(pattern, _king_component, algorithm="king")


def reverse_king_ordering(pattern) -> Ordering:
    """The reverse of King's ordering (by analogy with CM -> RCM)."""
    king = king_ordering(pattern)
    return Ordering(king.perm[::-1].copy(), algorithm="reverse-king",
                    metadata=dict(king.metadata))
