"""Pseudo-peripheral nodes and pseudo-diameters.

The GPS, GK and RCM algorithms all start a breadth-first search "from a
suitable vertex" — a *pseudo-peripheral* node, i.e. one whose eccentricity is
close to the graph diameter.  The standard way to find one is the George-Liu
strategy (George & Liu 1979; used by SPARSPAK's RCM): root a level structure,
probe every vertex of its last level in order of increasing degree, and
re-root at the first one that is deeper, until none is.  The
Gibbs-Poole-Stockmeyer algorithm additionally needs the *pair* of endpoints
(a pseudo-diameter), which :func:`pseudo_diameter` returns.  Its endpoint
scan uses the Duff-Reid-Scott (1989) shrinking: of the last level it probes
only the first vertex of each distinct degree, so it sweeps once per degree
rather than once per last-level vertex.  GK, GPS and Sloan start from the
pseudo-diameter; RCM and King from the pseudo-peripheral node alone.

A search called without ``start`` is a pure function of the structure, so
its result is memoized on the pattern's
:class:`~repro.eigen.workspace.SpectralWorkspace`: the GK, GPS, Sloan and
RCM cells of one cached problem share one search.  The memo is keyed by the
search's name and parameters only, so a test that runs the reference BFS
(:func:`repro.reference.breadth_first_levels_reference`) inside a search
must use a pattern object that has not searched yet.  Its level structures
hold read-only arrays, so a caller that writes to one raises instead of
corrupting the next caller's result.  A call with an explicit ``start`` (a
restart included) always searches.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.graph.traversal import RootedLevelStructure, bfs_graph, breadth_first_levels
from repro.sparse.pattern import SymmetricPattern

__all__ = [
    "pseudo_peripheral_node",
    "pseudo_diameter",
]


def _read_only(structure: RootedLevelStructure) -> None:
    structure.level_of.flags.writeable = False
    for level in structure.levels:
        level.flags.writeable = False


def _memoized(pattern: SymmetricPattern, key: tuple, search):
    """The memoized result of a start-free search on *pattern*.

    *key* names the search and its parameters; *search* runs on a miss.
    """
    from repro.eigen.workspace import spectral_workspace

    def run():
        result = search()
        for part in result:
            if isinstance(part, RootedLevelStructure):
                _read_only(part)
        return result

    return spectral_workspace(pattern).search(key, run)


def pseudo_peripheral_node(
    pattern: SymmetricPattern,
    start: int | None = None,
    max_iterations: int = 20,
    *,
    graph=None,
) -> tuple[int, RootedLevelStructure]:
    """Find a pseudo-peripheral node with the George-Liu strategy.

    Each round probes every vertex of the current last level, by increasing
    degree, and re-roots at the first one whose level structure is deeper;
    a round in which none is deeper ends the search on the narrowest
    structure of the same depth met in it.

    Parameters
    ----------
    pattern:
        Adjacency structure (only the component containing *start* is explored).
    start:
        Initial guess, an integer (a float raises ``TypeError``); defaults
        to a vertex of minimum degree.  Without it the result is memoized on
        the pattern (see the module docstring).
    max_iterations:
        Safety cap on the number of re-rooting rounds (the strategy converges
        in a handful of rounds in practice).
    graph:
        :func:`repro.graph.traversal.bfs_graph` of *pattern*; built once here
        when omitted and shared by every sweep of the search.

    Returns
    -------
    (node, level_structure):
        The pseudo-peripheral node found and its rooted level structure.
    """
    if start is None:
        return _memoized(
            pattern, ("peripheral", max_iterations),
            lambda: _pseudo_peripheral_node(pattern, None, max_iterations, graph),
        )
    return _pseudo_peripheral_node(pattern, start, max_iterations, graph)


def _pseudo_peripheral_node(pattern, start, max_iterations, graph):
    n = pattern.n
    if n == 0:
        raise ValueError("cannot find a pseudo-peripheral node of an empty graph")
    degrees = pattern.degree()
    node = int(np.argmin(degrees)) if start is None else operator.index(start)
    if graph is None:
        graph = bfs_graph(pattern)
    structure = breadth_first_levels(pattern, node, graph=graph)

    for _ in range(max_iterations):
        last_level = structure.levels[-1]
        # Probe every last-level vertex by increasing degree (stable order);
        # unlike the endpoint scan of pseudo_diameter, nothing is left out.
        order = np.asarray(last_level, dtype=np.intp)[
            np.argsort(degrees[np.asarray(last_level, dtype=np.intp)], kind="stable")
        ]
        improved = False
        best_width = structure.width
        for candidate in order:
            trial = breadth_first_levels(pattern, int(candidate), graph=graph)
            if trial.height > structure.height or (
                trial.height == structure.height and trial.width < best_width
            ):
                if trial.height > structure.height:
                    improved = True
                node = int(candidate)
                structure = trial
                best_width = trial.width
                if improved:
                    break
        if not improved:
            break
    return node, structure


def pseudo_diameter(
    pattern: SymmetricPattern,
    start: int | None = None,
    *,
    graph=None,
) -> tuple[int, int, RootedLevelStructure, RootedLevelStructure]:
    """Find a pseudo-diameter (pair of mutually distant vertices).

    Implements the endpoint search of the Gibbs-Poole-Stockmeyer algorithm:
    find a pseudo-peripheral node ``u``; from the last level of ``L(u)``
    take the first vertex of each distinct degree, by increasing degree (the
    Duff-Reid-Scott shrinking), and pick the candidate ``v`` whose level
    structure has the smallest width.  A candidate deeper than ``u``
    restarts the search from it, under the same rule.  Every sweep,
    including those of a restart, reads one
    :func:`repro.graph.traversal.bfs_graph`
    (*graph*, or built here when omitted).  Without *start* the result is
    memoized on the pattern (see the module docstring).

    Returns
    -------
    (u, v, structure_u, structure_v)
    """
    if start is None:
        return _memoized(pattern, ("diameter",), lambda: _pseudo_diameter(pattern, None, graph))
    return _pseudo_diameter(pattern, start, graph)


def _pseudo_diameter(pattern, start, graph):
    if graph is None:
        graph = bfs_graph(pattern)
    u, structure_u = pseudo_peripheral_node(pattern, start=start, graph=graph)
    degrees = pattern.degree()
    last = np.asarray(structure_u.levels[-1], dtype=np.intp)
    # GPS examines the last level by increasing degree, keeping the structure
    # of minimum width among those with eccentricity equal to that of u;
    # Duff-Reid-Scott shrinking keeps one candidate per distinct degree, the
    # first in the level's order (np.unique returns first occurrences).
    candidates = last[np.unique(degrees[last], return_index=True)[1]]
    best_v = int(candidates[0])
    best_structure = breadth_first_levels(pattern, best_v, graph=graph)
    best_width = best_structure.width
    for candidate in candidates[1:]:
        trial = breadth_first_levels(pattern, int(candidate), graph=graph)
        if trial.height > structure_u.height:
            # Found a deeper structure: restart the whole search from there.
            return pseudo_diameter(pattern, start=int(candidate), graph=graph)
        if trial.width < best_width:
            best_v, best_structure, best_width = int(candidate), trial, trial.width
    return u, best_v, structure_u, best_structure
