"""Pseudo-peripheral nodes and pseudo-diameters.

The GPS, GK and RCM algorithms all start a breadth-first search "from a
suitable vertex" — a *pseudo-peripheral* node, i.e. one whose eccentricity is
close to the graph diameter.  The standard way to find one is the George-Liu
shrinking strategy (George & Liu 1979; used by SPARSPAK's RCM): repeatedly
root a level structure at a minimum-degree vertex of the deepest last level
until the eccentricity stops increasing.  The Gibbs-Poole-Stockmeyer algorithm
additionally needs the *pair* of endpoints (a pseudo-diameter), which
:func:`pseudo_diameter` returns.

The paper also cites Grimes, Pierce & Simon (1990) who find a
pseudo-peripheral node from the eigenvector of the adjacency matrix for the
largest eigenvalue; that variant is provided as
:func:`spectral_pseudo_peripheral_node` for completeness and is exercised by
the ablation benchmarks.

A search called without ``start`` is a pure function of the structure, so
its result is memoized on the pattern's
:class:`~repro.eigen.workspace.SpectralWorkspace`: the GK, GPS, Sloan and
RCM cells of one cached problem share one search.  The memo is keyed by
the backend tier that serves ``bfs_levels``, so a run on the reference
``python`` tier never reuses a numpy-tier search, and its level structures
hold read-only arrays, so a caller that writes to one raises instead of
corrupting the next caller's result.  A call with an explicit ``start``
(a restart included) always searches.
"""

from __future__ import annotations

import operator

import numpy as np

from repro import backends
from repro.graph.traversal import RootedLevelStructure, bfs_graph, breadth_first_levels
from repro.sparse.pattern import SymmetricPattern

__all__ = [
    "pseudo_peripheral_node",
    "pseudo_diameter",
    "spectral_pseudo_peripheral_node",
]


def _read_only(structure: RootedLevelStructure) -> None:
    structure.level_of.flags.writeable = False
    for level in structure.levels:
        level.flags.writeable = False


def _memoized(pattern: SymmetricPattern, key: tuple, search):
    """The memoized result of a start-free search on *pattern*.

    *key* names the search and its parameters; the requested backend tier,
    read without recording a dispatch event, is appended to it.  *search*
    runs on a miss.
    """
    from repro.eigen.workspace import spectral_workspace

    def run():
        result = search()
        for part in result:
            if isinstance(part, RootedLevelStructure):
                _read_only(part)
        return result

    return spectral_workspace(pattern).search((*key, backends.requested_backend()), run)


def pseudo_peripheral_node(
    pattern: SymmetricPattern,
    start: int | None = None,
    max_iterations: int = 20,
    *,
    graph=None,
) -> tuple[int, RootedLevelStructure]:
    """Find a pseudo-peripheral node with the George-Liu shrinking strategy.

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
        # Sort the last level by degree and probe candidates of smallest degree;
        # shrinking the candidate set keeps the cost low (George & Liu).
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
    find a pseudo-peripheral node ``u``; among the minimum-degree vertices of
    the last level of ``L(u)``, pick the one ``v`` whose level structure has
    the smallest width.  Every sweep, including those of a restart from a
    deeper vertex, reads one :func:`repro.graph.traversal.bfs_graph`
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
    # GPS examines the last level sorted by degree, keeping the structure of
    # minimum width among those with eccentricity equal to that of u.
    candidates = last[np.argsort(degrees[last], kind="stable")]
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


def spectral_pseudo_peripheral_node(pattern: SymmetricPattern) -> int:
    """Pseudo-peripheral node from the dominant adjacency eigenvector.

    Grimes, Pierce & Simon (1990) observe that a vertex minimizing the entry
    of the Perron eigenvector of the adjacency matrix is a good
    pseudo-peripheral node.  A few power iterations suffice.
    """
    n = pattern.n
    if n == 0:
        raise ValueError("empty graph")
    if pattern.nnz_offdiag == 0:
        return 0
    adjacency = pattern.to_scipy("adjacency")
    x = np.ones(n) / np.sqrt(n)
    for _ in range(50):
        y = adjacency @ x
        norm = np.linalg.norm(y)
        if norm == 0:
            break
        y /= norm
        if np.linalg.norm(y - x) < 1e-10:
            x = y
            break
        x = y
    return int(np.argmin(np.abs(x)))
