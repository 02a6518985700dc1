"""Graph substrate.

The adjacency graph ``G(A)`` of a symmetric matrix ``A`` (represented by a
:class:`repro.sparse.SymmetricPattern`) is the object every ordering algorithm
actually works on.  This subpackage provides:

* breadth-first search, rooted level structures and eccentricities
  (:mod:`repro.graph.traversal`) — the engine of the RCM/GPS/GK baselines;
* connected components (:mod:`repro.graph.components`);
* pseudo-peripheral node / pseudo-diameter search
  (:mod:`repro.graph.peripheral`) — the George-Liu shrinking strategy;
* Laplacian matrix assembly (:mod:`repro.graph.laplacian`) — Section 2.2 of
  the paper;
* multilevel graph contraction by maximal independent sets and domain growing
  (:mod:`repro.graph.coarsen`) — Section 3 of the paper.
"""

from repro.graph.traversal import (
    RootedLevelStructure,
    bfs_order,
    breadth_first_levels,
)
from repro.graph.components import connected_components, is_connected, largest_component
from repro.graph.peripheral import pseudo_diameter, pseudo_peripheral_node
from repro.graph.laplacian import adjacency_matrix, laplacian_matrix
from repro.graph.coarsen import (
    CoarseLevel,
    coarsen_graph,
    coarsening_hierarchy,
    maximal_independent_set,
)

__all__ = [
    "RootedLevelStructure",
    "breadth_first_levels",
    "bfs_order",
    "connected_components",
    "is_connected",
    "largest_component",
    "pseudo_peripheral_node",
    "pseudo_diameter",
    "laplacian_matrix",
    "adjacency_matrix",
    "maximal_independent_set",
    "coarsen_graph",
    "coarsening_hierarchy",
    "CoarseLevel",
]
