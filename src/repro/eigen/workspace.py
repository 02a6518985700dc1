"""Per-pattern spectral execution plan: shared, memoized Fiedler scaffolding.

The spectral ordering pipeline keeps recomputing pure functions of the matrix
structure: the graph Laplacian, the connected-component split, and (for the
multilevel solver) the whole coarsening hierarchy with one Laplacian per
level.  A suite run asks for them once per algorithm per problem, a bench run
once per repeat, and the hybrid ordering twice per cell — all identical work.

:class:`SpectralWorkspace` memoizes those artifacts *on the pattern object
itself* (a ``_workspace`` slot on
:class:`~repro.sparse.pattern.SymmetricPattern`), so sharing falls out of the
existing object flow with no new plumbing:

* the per-worker problem cache (:func:`repro.batch.engine._cached_pattern`)
  hands every task of a problem the same pattern object, so ``spectral`` and
  ``hybrid`` cells reuse one plan, as do repeated bench/suite invocations in
  the same process;
* :func:`repro.orderings.base.order_by_components` reuses the cached
  component split (and the cached per-component subpatterns) for *every*
  ordering algorithm, and the subpatterns carry their own workspaces, so
  per-component Laplacians and hierarchies are shared too;
* :mod:`repro.graph.peripheral` keeps its start-free pseudo-peripheral and
  pseudo-diameter searches here (:meth:`SpectralWorkspace.search`), so the
  GK, GPS, Sloan and RCM cells of a problem share one search.

Everything memoized here is a deterministic pure function of the immutable
structure: Laplacian assembly, the component split, the pseudo-peripheral
searches, and the coarsening hierarchy, whose degree-order independent sets
draw no random numbers, so a warm run consumes exactly the random stream a
cold run does.  Warm-vs-cold byte-identity for every registered
spectral/hybrid algorithm is pinned by ``tests/test_spectral_workspace.py``.

Memory: a workspace lives exactly as long as its pattern; dropping the
pattern (e.g. :func:`repro.batch.engine.clear_problem_cache`) drops the plan
with it.  The coarsening hierarchies are the exception, as they need not be
small: on hub graphs the coarse graphs grow dense, and one pattern's
hierarchy with its level Laplacians can hold several times the pattern's
own arrays (RANDOM/BA@0.02: 7.8 MB against 1.5 MB; RANDOM/RMAT@0.02:
2.2 MB against 1.9 MB).  A process therefore keeps the hierarchies of one
workspace at a time; building or loading one for another pattern first
drops them.
Otherwise a long-lived worker would run each spectral cell on top of the
plans of every problem it had been dealt before, and its peak memory would
depend on which cells those were.

Persistence: when a default :mod:`repro.store` is configured (``--store`` /
``REPRO_STORE``), a coarsening hierarchy is loaded from disk on first touch
and stored on first build, so suite workers, bench repeats and server
processes share it across process boundaries.  A loaded hierarchy is
byte-identical to a built one, so the warm-vs-cold identity above extends
across processes; store I/O failures and corrupt entries silently fall back
to building.  (Converged Fiedler vectors are stored by
:func:`repro.eigen.fiedler.fiedler_vector`, addressed by :meth:`digest`.)
Everything else here stays in memory only.  The Laplacian, the component
labels and the component split are one pass over the structure each, and
their entries showed no end-to-end gain, weighed against their write cost; a
search costs less than a store read (``docs/performance.md``, "Persistent
artifact store").
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = ["SpectralWorkspace", "spectral_workspace"]

#: Weak reference to the one workspace whose hierarchies this process keeps
#: (see the module docstring), or ``None``.
_hierarchy_holder = None


class SpectralWorkspace:
    """Memoized spectral scaffolding of one :class:`SymmetricPattern`.

    Create via :func:`spectral_workspace` (which attaches the instance to the
    pattern) rather than directly.  ``info`` counts cache hits and builds per
    artifact kind — the warm-path tests assert on it.
    """

    __slots__ = ("pattern", "info", "_laplacian", "_components", "_split",
                 "_hierarchies", "_searches", "_digest", "__weakref__")

    def __init__(self, pattern):
        self.pattern = pattern
        self.info = {
            "laplacian_builds": 0, "laplacian_hits": 0,
            "components_builds": 0, "components_hits": 0,
            "split_builds": 0, "split_hits": 0,
            "hierarchy_builds": 0, "hierarchy_hits": 0,
            "peripheral_builds": 0, "peripheral_hits": 0,
            "diameter_builds": 0, "diameter_hits": 0,
        }
        self._laplacian = None
        self._components = None
        self._split = None
        self._hierarchies = {}
        self._searches = {}
        self._digest = None

    # ------------------------------------------------------------------ #
    # persistent store address
    # ------------------------------------------------------------------ #
    def digest(self) -> str:
        """Structural content digest of the pattern (memoized — it is the
        address prefix of every persistent artifact of this workspace)."""
        if self._digest is None:
            from repro.store.spectral import pattern_digest

            self._digest = pattern_digest(self.pattern)
        return self._digest

    # ------------------------------------------------------------------ #
    # Laplacian
    # ------------------------------------------------------------------ #
    def laplacian(self):
        """The (unweighted) graph Laplacian CSR, built once per pattern.

        Callers must treat the returned matrix as immutable — it is shared
        across every solver invocation on this pattern.
        """
        if self._laplacian is None:
            from repro.graph.laplacian import laplacian_matrix

            self._laplacian = laplacian_matrix(self.pattern)
            self.info["laplacian_builds"] += 1
        else:
            self.info["laplacian_hits"] += 1
        return self._laplacian

    # ------------------------------------------------------------------ #
    # connected components
    # ------------------------------------------------------------------ #
    def components(self):
        """``(num_components, labels)`` of the adjacency graph (cached)."""
        if self._components is None:
            from repro.graph.components import connected_components

            self._components = connected_components(self.pattern)
            self.info["components_builds"] += 1
        else:
            self.info["components_hits"] += 1
        return self._components

    def component_split(self):
        """Cached per-component ``(vertices, subpattern)`` list.

        ``subpattern`` is ``None`` for singleton components (no ordering work
        to do there).  The subpattern objects are shared across calls, so
        their own workspaces (and degree caches) warm up across algorithms.
        """
        if self._split is None:
            num_components, labels = self.components()
            split = []
            for c in range(num_components):
                vertices = np.flatnonzero(labels == c).astype(np.intp)
                sub = self.pattern.subpattern(vertices) if vertices.size > 1 else None
                split.append((vertices, sub))
            self._split = split
            self.info["split_builds"] += 1
        else:
            self.info["split_hits"] += 1
        return self._split

    # ------------------------------------------------------------------ #
    # coarsening hierarchy
    # ------------------------------------------------------------------ #
    def hierarchy(self, coarsest_size: int):
        """``(levels, level_laplacians)`` of the contraction hierarchy.

        ``levels`` is :func:`repro.graph.coarsen.coarsening_hierarchy`'s
        output; ``level_laplacians[i]`` is the Laplacian of
        ``levels[i].coarse_pattern`` (so the coarse solve and every
        interpolation → refinement sweep reuse one prebuilt CSR per level
        instead of re-assembling and re-symmetrizing).

        Memoized per ``coarsest_size``, in one workspace per process at a
        time.
        """
        from repro.graph.coarsen import coarsening_hierarchy
        from repro.graph.laplacian import laplacian_matrix

        key = int(coarsest_size)
        cached = self._hierarchies.get(key)
        if cached is None:
            self._hold_hierarchies()
            from repro.store import spectral as codecs
            from repro.store.core import get_default_store

            store = get_default_store()
            levels = (None if store is None
                      else codecs.load_hierarchy(store, self.digest(), key))
            if levels is None:
                levels = coarsening_hierarchy(self.pattern, coarsest_size=coarsest_size)
                self.info["hierarchy_builds"] += 1
                if store is not None:
                    try:
                        codecs.save_hierarchy(store, self.digest(), key, levels)
                    except OSError:
                        pass  # a read-only/full store must never fail the solve
            cached = (levels, [laplacian_matrix(lvl.coarse_pattern) for lvl in levels])
            self._hierarchies[key] = cached
        else:
            self.info["hierarchy_hits"] += 1
        return cached

    def _hold_hierarchies(self) -> None:
        """Make this the workspace whose hierarchies the process keeps,
        dropping the previous holder's before this one builds or loads."""
        global _hierarchy_holder
        holder = None if _hierarchy_holder is None else _hierarchy_holder()
        if holder is not None and holder is not self:
            holder._hierarchies.clear()
        _hierarchy_holder = weakref.ref(self)

    # ------------------------------------------------------------------ #
    # pseudo-peripheral searches
    # ------------------------------------------------------------------ #
    def search(self, key: tuple, run):
        """The memoized result of the start-free search *key*.

        :mod:`repro.graph.peripheral` keys its ``"peripheral"`` and
        ``"diameter"`` searches by name and parameters; *run* searches on a
        miss.  Results stay in memory: a search is cheaper
        than a store read, so it is never spilled.
        """
        cached = self._searches.get(key)
        if cached is None:
            cached = self._searches[key] = run()
            self.info[f"{key[0]}_builds"] += 1
        else:
            self.info[f"{key[0]}_hits"] += 1
        return cached


def spectral_workspace(pattern) -> SpectralWorkspace:
    """The :class:`SpectralWorkspace` attached to *pattern* (created on first use).

    Patterns are structurally immutable, so the workspace — a pure function
    of the structure — stays valid for the pattern's lifetime.  Derived
    patterns (``copy``/``permute``/``subpattern``) start with a fresh, empty
    workspace.
    """
    ws = pattern._workspace
    if ws is None:
        ws = SpectralWorkspace(pattern)
        pattern._workspace = ws
    return ws
