"""Multilevel graph contraction (Section 3 of the paper).

The multilevel Fiedler-vector algorithm of Barnard & Simon needs three graph
operations:

* **Contraction** — "first finding a maximal independent set of vertices,
  which are to be the vertices of the contracted graph.  The edges of the
  contracted graph are determined by growing domains from the selected
  vertices in a breadth-first manner, adding an edge to the contracted graph
  when two domains intersect."  (Section 3.)
* **Interpolation** — carrying an eigenvector of the contracted graph back to
  the fine graph: each fine vertex takes the value of the coarse vertex whose
  domain it belongs to (piecewise-constant prolongation).
* A **hierarchy** of contractions down to a small coarsest graph
  ("typically 100" vertices in the paper).  Every level of it at least
  halves its graph, except possibly the last: a contraction that keeps more
  than half of the vertices is folded together with the next into one level.
  On hub graphs the degree-ordered independent set keeps the leaves, and one
  contraction can remove as little as 1.5% of the vertices; without the fold
  the solver would refine once per such contraction (RANDOM/RMAT@0.02: 50
  levels from 10,958 down to 1,357 vertices, against 3 with it).

This module provides those three pieces; the eigen-solver that consumes them
lives in :mod:`repro.eigen.multilevel`.  The independent set is always the
greedy scan in nondecreasing degree order, which draws no random numbers, so
a hierarchy is a pure function of the structure and ``coarsest_size``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.pattern import SymmetricPattern

__all__ = [
    "MAX_LEVELS",
    "maximal_independent_set",
    "coarsen_graph",
    "coarsening_hierarchy",
    "interpolate_block",
    "CoarseLevel",
]

#: Safety cap on the contractions (:func:`coarsen_graph` calls) one hierarchy
#: makes.  Folded contractions count one each, so a hierarchy has at most
#: this many levels and usually far fewer.
MAX_LEVELS = 50


def maximal_independent_set(pattern: SymmetricPattern) -> np.ndarray:
    """Greedy maximal independent set of the graph.

    Vertices are scanned in nondecreasing degree order (stable, so ties go
    by index): low-degree vertices first give a large independent set.

    Returns
    -------
    numpy.ndarray
        Sorted vertex indices of a maximal independent set.  Maximality means
        every vertex outside the set has a neighbour inside it.
    """
    n = pattern.n
    if n == 0:
        return np.empty(0, dtype=np.intp)
    order = np.argsort(pattern.degree(), kind="stable")

    # The sequential greedy scan selects v iff no scan-earlier neighbor was
    # selected — i.e. the lexicographically-first MIS under the scan ranking.
    # That fixpoint is computed here in *rounds* (the classic parallelization
    # of greedy MIS): each round selects every undecided vertex whose rank is
    # a strict minimum among its undecided neighbors, then blocks the selected
    # vertices' neighborhoods.  Identical output, whole-array work per round.
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n, dtype=np.intp)
    selected = np.zeros(n, dtype=bool)
    undecided = np.ones(n, dtype=bool)
    rounds = 0
    while True:
        pending = np.flatnonzero(undecided)
        if pending.size == 0:
            break
        if rounds >= 64:
            # Adversarial rank layouts (e.g. a path ranked along its length)
            # decide only O(1) vertices per round; finish those few scan-order
            # — the greedy fixpoint is confluent, so the result is unchanged.
            _greedy_tail(pattern, order, selected, undecided)
            break
        rounds += 1
        slab, offsets = pattern.neighbor_slab(pending)
        neighbor_rank = np.where(undecided[slab], rank[slab], n)
        counts = offsets[1:] - offsets[:-1]
        min_rank = np.full(pending.size, n, dtype=np.intp)
        nonempty = counts > 0
        if slab.size:
            min_rank[nonempty] = np.minimum.reduceat(
                neighbor_rank, offsets[:-1][nonempty]
            )
        wins = pending[rank[pending] < min_rank]
        selected[wins] = True
        undecided[wins] = False
        blocked_slab, _ = pattern.neighbor_slab(wins)
        undecided[blocked_slab] = False
    return np.flatnonzero(selected).astype(np.intp)


def _greedy_tail(pattern, order, selected, undecided) -> None:
    """Finish an interrupted round-based MIS with the sequential greedy scan.

    Mutates ``selected`` / ``undecided`` in place.  Correctness: every already
    -selected vertex is in the greedy solution and every already-blocked
    vertex has a selected smaller-rank neighbor, so scanning the remaining
    undecided vertices in rank order completes the same fixpoint.
    """
    indptr, indices = pattern.indptr, pattern.indices
    for v in order:
        if not undecided[v]:
            continue
        selected[v] = True
        undecided[v] = False
        undecided[indices[indptr[v] : indptr[v + 1]]] = False


def _grow_domains(pattern: SymmetricPattern, mis: np.ndarray, domain_of: np.ndarray) -> None:
    """Simultaneous whole-frontier BFS domain growth (in place).

    Each ring claims every still-unassigned neighbor of the frontier for the
    domain of its first-discovering frontier vertex (frontier order, rows in
    sorted adjacency order) — the same tie-breaking as the vertex-at-a-time
    sweep it replaces (:func:`repro.reference.grow_domains_reference`).
    """
    frontier = mis.copy()
    while frontier.size:
        candidates, parents = pattern.claim_frontier(frontier, domain_of < 0)
        if candidates.size == 0:
            break
        domain_of[candidates] = domain_of[frontier[parents]]
        frontier = candidates


@dataclass(frozen=True)
class CoarseLevel:
    """One level of the contraction hierarchy.

    Attributes
    ----------
    fine_n:
        Number of vertices in the fine graph.
    coarse_pattern:
        Adjacency structure of the contracted graph.
    coarse_vertices:
        Fine-graph indices of the independent-set vertices, i.e.
        ``coarse_vertices[c]`` is the fine vertex that became coarse vertex ``c``.
    domain_of:
        For every fine vertex, the coarse vertex (index into the coarse graph)
        whose domain it was absorbed into.
    """

    fine_n: int
    coarse_pattern: SymmetricPattern
    coarse_vertices: np.ndarray
    domain_of: np.ndarray


def coarsen_graph(pattern: SymmetricPattern) -> CoarseLevel:
    """Contract the graph by one level (maximal independent set + domain growing).

    Domains are grown from the independent-set vertices breadth-first and
    simultaneously (one BFS ring per sweep), so each fine vertex joins the
    domain of the *nearest* selected vertex (ties broken by whichever domain
    reaches it first in the sweep).  An edge connects two coarse vertices when
    their domains touch — i.e. some fine edge joins the two domains.

    Isolated fine vertices become their own coarse vertices (they are always
    in the independent set), so the coarse graph never loses components.
    """
    n = pattern.n
    mis = maximal_independent_set(pattern)
    n_coarse = mis.size
    domain_of = np.full(n, -1, dtype=np.intp)
    domain_of[mis] = np.arange(n_coarse, dtype=np.intp)
    _grow_domains(pattern, mis, domain_of)

    # Any vertex still unassigned lies in a component with no selected vertex,
    # which cannot happen for a *maximal* independent set; assert the invariant.
    if np.any(domain_of < 0):  # pragma: no cover - defensive
        raise AssertionError("domain growing left unassigned vertices")

    # Coarse edges: for every fine edge (u, v) with different domains, connect
    # them.  Both directions of each fine edge are stored, so no extra
    # symmetrization pass is needed.
    indptr, indices = pattern.indptr, pattern.indices
    rows = np.repeat(np.arange(n), np.diff(indptr))
    cu, cv = domain_of[rows], domain_of[indices]
    mask = cu != cv
    coarse_pattern = SymmetricPattern.from_edge_arrays(
        n_coarse, cu[mask], cv[mask], symmetrize=False
    )
    return CoarseLevel(
        fine_n=n,
        coarse_pattern=coarse_pattern,
        coarse_vertices=mis,
        domain_of=domain_of,
    )


def coarsening_hierarchy(
    pattern: SymmetricPattern, coarsest_size: int = 100
) -> list[CoarseLevel]:
    """Build the full contraction hierarchy down to ``coarsest_size`` vertices.

    Contraction stops when the graph has at most *coarsest_size* vertices
    ("typically 100" in the paper), when :data:`MAX_LEVELS` contractions have
    been made, or when a contraction fails to shrink the graph (possible on
    graphs without edges, where the independent set is the whole vertex set).

    Every level halves its graph (``2 * coarse_pattern.n <= fine_n``), except
    possibly the last, which ends at one of the three stops above.  While a
    level keeps more than half of its fine vertices, the next contraction is
    folded into it: its ``domain_of`` maps each fine vertex through both
    contractions and its ``coarse_vertices`` are the fine indices of the
    surviving seeds.  A folded level is therefore a valid :class:`CoarseLevel`
    (its coarse edges are exactly the fine edges that cross domains), and
    interpolating through it equals interpolating through its contractions
    one at a time.

    Returns
    -------
    list of CoarseLevel
        ``levels[0]`` contracts the input graph; ``levels[-1].coarse_pattern``
        is the coarsest graph.  The list is empty when the input is already
        small enough.
    """
    levels: list[CoarseLevel] = []
    current = pattern
    for _ in range(MAX_LEVELS):
        if current.n <= coarsest_size:
            break
        step = coarsen_graph(current)
        if step.coarse_pattern.n >= current.n:
            break  # no progress; stop rather than loop forever
        if levels and 2 * current.n > levels[-1].fine_n:
            # The last level keeps more than half of its graph: fold this
            # contraction into it instead of starting a new level.
            last = levels.pop()
            step = CoarseLevel(
                fine_n=last.fine_n,
                coarse_pattern=step.coarse_pattern,
                coarse_vertices=last.coarse_vertices[step.coarse_vertices],
                domain_of=step.domain_of[last.domain_of],
            )
        levels.append(step)
        current = step.coarse_pattern
    return levels


def interpolate_block(level: CoarseLevel, coarse_block: np.ndarray) -> np.ndarray:
    """Prolong a block of coarse-graph column vectors to the fine graph.

    Each fine vertex receives the row of the coarse vertex whose domain it
    belongs to (piecewise-constant interpolation).  This "provides a good
    approximation to an eigenvector of the larger graph" (Section 3) which the
    Rayleigh Quotient Iteration then refines.  One fancy-indexing gather
    prolongs the whole ``(n_coarse, k)`` block.
    """
    coarse_block = np.asarray(coarse_block, dtype=np.float64)
    if coarse_block.ndim != 2 or coarse_block.shape[0] != level.coarse_pattern.n:
        raise ValueError(
            f"coarse_block must have shape ({level.coarse_pattern.n}, k), "
            f"got {coarse_block.shape}"
        )
    return coarse_block[level.domain_of, :]
