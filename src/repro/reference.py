"""Vertex-at-a-time reference implementations of the production kernels.

The production kernels are vectorized over whole frontiers and neighbor
slabs (:mod:`repro.graph.traversal`, :mod:`repro.graph.components`,
:mod:`repro.graph.coarsen`, :meth:`repro.sparse.pattern.SymmetricPattern.subpattern`)
or run heaps over Python lists (:mod:`repro.orderings.gps`,
:mod:`repro.orderings.sloan`).  This module keeps one loop-form twin of each
as the behavioural contract: every production kernel must produce
bit-identical output to its reference, on every input.  Each reference takes
the same arguments as the function it replaces and returns the same result,
so a test can substitute it in place with ``monkeypatch``:

* :func:`breadth_first_levels_reference` for
  :func:`repro.graph.traversal.breadth_first_levels`;
* :func:`bfs_order_reference` for :func:`repro.graph.traversal.bfs_order`;
* :func:`number_by_levels_reference` for
  :func:`repro.orderings.gps.number_by_levels`;
* :func:`sloan_component_reference` for
  :func:`repro.orderings.sloan._sloan_component`;
* :func:`connected_components_reference` for
  :func:`repro.graph.components.connected_components`;
* :func:`subpattern_reference` for
  :meth:`repro.sparse.pattern.SymmetricPattern.subpattern`;
* :func:`maximal_independent_set_reference` for
  :func:`repro.graph.coarsen.maximal_independent_set`;
* :func:`grow_domains_reference` for the domain sweep
  ``repro.graph.coarsen._grow_domains``.

``tests/test_kernels_reference.py`` compares each pair kernel by kernel on
random (including disconnected) graphs, and runs every registered ordering
with all eight references patched in; the differential sweep
(``tests/test_reference_differential.py``) and the golden suite artifacts
(``tests/golden/``) do the same end to end.  All integer work uses
``np.intp`` / ``np.int64`` to match the production dtypes exactly.

Production code never imports this module; it exists so the equivalence
guarantee stays testable forever, not just against a frozen artifact.
"""

from __future__ import annotations

import numpy as np

from repro.graph.peripheral import pseudo_diameter
from repro.graph.traversal import RootedLevelStructure, _checked_root
from repro.orderings.gps import _checked_numbering_input
from repro.sparse.pattern import SymmetricPattern

__all__ = [
    "breadth_first_levels_reference",
    "bfs_order_reference",
    "number_by_levels_reference",
    "sloan_component_reference",
    "connected_components_reference",
    "subpattern_reference",
    "maximal_independent_set_reference",
    "grow_domains_reference",
]


def breadth_first_levels_reference(
    pattern: SymmetricPattern, root: int, *, graph=None
) -> RootedLevelStructure:
    """Queue BFS from *root* (reference for
    :func:`repro.graph.traversal.breadth_first_levels`; *graph* is unused).

    Each dequeued vertex appends its undiscovered neighbours in adjacency
    order: the queue scan that ``scipy.sparse.csgraph.breadth_first_order``
    also runs, so levels, their internal order and ``level_of`` match the
    production path exactly.  Unreachable vertices keep ``level_of == -1``.
    """
    n = pattern.n
    root = _checked_root(root, n)
    indptr, indices = pattern.indptr, pattern.indices
    level_of = np.full(n, -1, dtype=np.intp)
    order = np.empty(n, dtype=np.intp)
    level_starts = np.zeros(n + 1, dtype=np.intp)

    order[0] = root
    level_of[root] = 0
    tail = 1
    level_starts[1] = 1
    num_levels = 1
    start = 0
    end = 1
    while end > start:
        for i in range(start, end):
            v = order[i]
            for jj in range(indptr[v], indptr[v + 1]):
                w = indices[jj]
                if level_of[w] < 0:
                    level_of[w] = num_levels
                    order[tail] = w
                    tail += 1
        start = end
        end = tail
        if end > start:
            num_levels += 1
            level_starts[num_levels] = end
    levels = [order[level_starts[k] : level_starts[k + 1]].copy() for k in range(num_levels)]
    return RootedLevelStructure(root, level_of, levels)


def bfs_order_reference(
    pattern: SymmetricPattern, root: int, sort_by_degree: bool = False
) -> np.ndarray:
    """Vertex-at-a-time BFS visitation order from *root* (reference for
    :func:`repro.graph.traversal.bfs_order`).

    With *sort_by_degree* the still-unvisited neighbours of each dequeued
    vertex are appended in nondecreasing degree (stable in adjacency
    position): the Cuthill-McKee enqueue rule.
    """
    n = pattern.n
    root = _checked_root(root, n)
    indptr, indices = pattern.indptr, pattern.indices
    degrees = pattern.degree()
    visited = np.zeros(n, dtype=np.bool_)
    order = np.empty(n, dtype=np.intp)
    buf = np.empty(n, dtype=np.intp)
    order[0] = root
    visited[root] = True
    tail = 1
    head = 0
    while head < tail:
        v = order[head]
        head += 1
        cnt = 0
        for jj in range(indptr[v], indptr[v + 1]):
            w = indices[jj]
            if not visited[w]:
                visited[w] = True
                buf[cnt] = w
                cnt += 1
        if sort_by_degree and cnt > 1:
            # Stable insertion sort by degree: equal degrees keep adjacency
            # order, matching the stable lexsort of the production path.
            for i in range(1, cnt):
                x = buf[i]
                dx = degrees[x]
                j = i - 1
                while j >= 0 and degrees[buf[j]] > dx:
                    buf[j + 1] = buf[j]
                    j -= 1
                buf[j + 1] = x
        for i in range(cnt):
            order[tail] = buf[i]
            tail += 1
    return order[:tail]


def number_by_levels_reference(
    pattern: SymmetricPattern, levels, start: int, tie_break: str = "degree"
) -> np.ndarray:
    """GPS/GK phase-3 level-by-level numbering (reference for
    :func:`repro.orderings.gps.number_by_levels`).

    The "touched candidates first" rule becomes a leading 0/1 key in a plain
    lexicographic argmin scan over the level; the production path's
    list-based lazy-deletion heap encodes the same lexicographic key in one
    int per entry.  ``tie_break="king"`` ranks by incrementally maintained
    active-front growth instead of plain degree.
    """
    if tie_break not in ("degree", "king"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    king = tie_break == "king"
    n = pattern.n
    levels, start = _checked_numbering_input(levels, start, n)
    indptr, indices = pattern.indptr, pattern.indices
    degrees = pattern.degree()
    numbered = np.zeros(n, dtype=np.bool_)
    # n encodes "no numbered neighbour yet": every real number is < n.
    bnn = np.full(n, n, dtype=np.intp)
    order = np.empty(n, dtype=np.intp)
    front_growth = degrees.astype(np.intp).copy()

    height = 0
    for v in range(n):
        if levels[v] > height:
            height = levels[v]
    # Counting sort by level: members[level_start[k]:level_start[k+1]] are
    # the vertices of level k in increasing order.
    level_start = np.zeros(height + 2, dtype=np.intp)
    for v in range(n):
        level_start[levels[v] + 1] += 1
    for k in range(height + 1):
        level_start[k + 1] += level_start[k]
    fill = level_start.copy()
    members = np.empty(n, dtype=np.intp)
    for v in range(n):
        members[fill[levels[v]]] = v
        fill[levels[v]] += 1

    def _number_vertex(v, number):
        if king:
            if bnn[v] >= n:
                for jj in range(indptr[v], indptr[v + 1]):
                    front_growth[indices[jj]] -= 1
            for jj in range(indptr[v], indptr[v + 1]):
                w = indices[jj]
                if (not numbered[w]) and bnn[w] >= n:
                    for kk in range(indptr[w], indptr[w + 1]):
                        front_growth[indices[kk]] -= 1
        for jj in range(indptr[v], indptr[v + 1]):
            w = indices[jj]
            if number < bnn[w]:
                bnn[w] = number

    order[0] = start
    numbered[start] = True
    _number_vertex(start, 0)
    count = 1

    for lvl in range(height + 1):
        lo = level_start[lvl]
        hi = level_start[lvl + 1]
        remaining = 0
        for i in range(lo, hi):
            if not numbered[members[i]]:
                remaining += 1
        for _ in range(remaining):
            # Lexicographic argmin over the still-unnumbered members with
            # keys (touched?, [front growth,] best neighbour number, degree,
            # vertex id).  The leading 0/1 "touched" key reproduces the
            # "candidates adjacent to a numbered vertex first" rule.
            best = -1
            b0 = np.intp(0)
            b1 = np.intp(0)
            b2 = np.intp(0)
            b3 = np.intp(0)
            for i in range(lo, hi):
                v = members[i]
                if numbered[v]:
                    continue
                k0 = np.intp(0) if bnn[v] < n else np.intp(1)
                k1 = front_growth[v] if king else np.intp(0)
                k2 = bnn[v]
                k3 = degrees[v]
                if best < 0:
                    better = True
                elif k0 != b0:
                    better = k0 < b0
                elif k1 != b1:
                    better = k1 < b1
                elif k2 != b2:
                    better = k2 < b2
                elif k3 != b3:
                    better = k3 < b3
                else:
                    better = False  # ascending scan: first hit wins vertex tie
                if better:
                    best = v
                    b0, b1, b2, b3 = k0, k1, k2, k3
            order[count] = best
            numbered[best] = True
            _number_vertex(best, count)
            count += 1
    return order


def sloan_component_reference(pattern: SymmetricPattern, w1: int, w2: int) -> np.ndarray:
    """Sloan's numbering of one connected component (reference for
    :func:`repro.orderings.sloan._sloan_component`).

    Array-based binary min-heap keyed ``(negated priority, push counter)``
    with lazy deletion.  Counters are unique, so vertices pop in (highest
    priority, earliest push) order: the order of the production path's
    bucket queue, which pops the front of a FIFO per priority value.  Push
    batches are deduplicated with the same keep-first (``w1 == 0``) /
    keep-last (``w1 != 0``) rule as ``_dedupe_batch``.
    """
    n = pattern.n
    if n == 1:
        return np.zeros(1, dtype=np.intp)
    start, _end, _su, end_structure = pseudo_diameter(pattern)
    dist_to_end = end_structure.level_of
    indptr, indices = pattern.indptr, pattern.indices
    degrees = pattern.degree()

    inactive = np.int8(0)
    preactive = np.int8(1)
    active = np.int8(2)
    done = np.int8(3)

    status = np.zeros(n, dtype=np.int8)
    priority = np.empty(n, dtype=np.int64)
    for v in range(n):
        priority[v] = -w1 * (np.int64(degrees[v]) + 1) + w2 * np.int64(dist_to_end[v])

    order = np.empty(n, dtype=np.intp)
    nnz = indices.shape[0]
    # Every vertex is numbered once (ring-1 pushes <= nnz in total) and
    # becomes newly-active at most once (ring-2 pushes <= nnz in total).
    cap = 2 * nnz + n + 2
    hp = np.empty(cap, dtype=np.int64)
    hc = np.empty(cap, dtype=np.int64)
    hv = np.empty(cap, dtype=np.intp)
    hsize = 0
    counter = np.int64(0)

    ring1 = np.empty(n, dtype=np.intp)
    targets = np.empty(nnz + 1, dtype=np.intp)
    mark = np.full(n, -1, dtype=np.int64)
    lastpos = np.zeros(n, dtype=np.int64)
    keep_first = w1 == 0

    def _push(p, c, v, size):
        i = size
        hp[i] = p
        hc[i] = c
        hv[i] = v
        while i > 0:
            parent = (i - 1) >> 1
            if hp[i] < hp[parent] or (hp[i] == hp[parent] and hc[i] < hc[parent]):
                hp[i], hp[parent] = hp[parent], hp[i]
                hc[i], hc[parent] = hc[parent], hc[i]
                hv[i], hv[parent] = hv[parent], hv[i]
                i = parent
            else:
                break

    def _sift_down(size):
        i = 0
        while True:
            left = 2 * i + 1
            if left >= size:
                break
            small = left
            right = left + 1
            if right < size and (
                hp[right] < hp[left]
                or (hp[right] == hp[left] and hc[right] < hc[left])
            ):
                small = right
            if hp[small] < hp[i] or (hp[small] == hp[i] and hc[small] < hc[i]):
                hp[i], hp[small] = hp[small], hp[i]
                hc[i], hc[small] = hc[small], hc[i]
                hv[i], hv[small] = hv[small], hv[i]
                i = small
            else:
                break

    status[start] = preactive
    _push(-priority[start], counter, start, hsize)
    hsize += 1
    counter += 1

    count = 0
    step = np.int64(0)
    while count < n:
        v = -1
        while hsize > 0:
            neg_p = hp[0]
            u = hv[0]
            hsize -= 1
            if hsize > 0:
                hp[0] = hp[hsize]
                hc[0] = hc[hsize]
                hv[0] = hv[hsize]
                _sift_down(hsize)
            if status[u] != done and -neg_p == priority[u]:
                v = u
                break
        if v < 0:  # pragma: no cover - defensive; component is connected
            for u in range(n):
                if status[u] != done:
                    v = u
                    break

        r1 = 0
        for jj in range(indptr[v], indptr[v + 1]):
            w = indices[jj]
            if status[w] != done:
                ring1[r1] = w
                r1 += 1
                priority[w] += w1
        if status[v] == preactive:
            for i in range(r1):
                w = ring1[i]
                if status[w] == inactive:
                    status[w] = preactive
        for i in range(r1):
            w = ring1[i]
            _push(-priority[w], counter, w, hsize)
            hsize += 1
            counter += 1

        order[count] = v
        status[v] = done
        count += 1

        # Second ring: neighbours of newly activated vertices.  Priority
        # increments happen for every slab occurrence; the push batch keeps
        # one governing entry per vertex (first for w1 == 0, last otherwise).
        t = 0
        for i in range(r1):
            w = ring1[i]
            if status[w] == preactive:
                status[w] = active
                for jj in range(indptr[w], indptr[w + 1]):
                    x = indices[jj]
                    if status[x] != done:
                        targets[t] = x
                        t += 1
                        priority[x] += w1
        if t > 0:
            for i in range(t):
                x = targets[i]
                if status[x] == inactive:
                    status[x] = preactive
            if keep_first:
                for i in range(t):
                    x = targets[i]
                    if mark[x] != step:
                        mark[x] = step
                        _push(-priority[x], counter, x, hsize)
                        hsize += 1
                        counter += 1
            else:
                for i in range(t):
                    lastpos[targets[i]] = i
                for i in range(t):
                    x = targets[i]
                    if lastpos[x] == i:
                        _push(-priority[x], counter, x, hsize)
                        hsize += 1
                        counter += 1
        step += 1

    return order


def connected_components_reference(pattern: SymmetricPattern) -> tuple[int, np.ndarray]:
    """Stack-based component labelling (reference for
    :func:`repro.graph.components.connected_components`)."""
    n = pattern.n
    labels = np.full(n, -1, dtype=np.intp)
    indptr, indices = pattern.indptr, pattern.indices
    current = 0
    stack = np.empty(n, dtype=np.intp)
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = current
        stack[0] = start
        top = 1
        while top:
            top -= 1
            v = stack[top]
            nbrs = indices[indptr[v] : indptr[v + 1]]
            fresh = nbrs[labels[nbrs] < 0]
            if fresh.size:
                labels[fresh] = current
                stack[top : top + fresh.size] = fresh
                top += fresh.size
        current += 1
    return current, labels


def subpattern_reference(pattern: SymmetricPattern, vertices) -> SymmetricPattern:
    """Edge-list induced substructure (reference for
    :meth:`repro.sparse.pattern.SymmetricPattern.subpattern`)."""
    from repro.utils.validation import as_int_array

    vertices = as_int_array(vertices, "vertices")
    if vertices.size and (vertices.min() < 0 or vertices.max() >= pattern.n):
        raise ValueError("vertices out of range")
    if np.unique(vertices).size != vertices.size:
        raise ValueError("vertices must be distinct")
    remap = -np.ones(pattern.n, dtype=np.intp)
    remap[vertices] = np.arange(vertices.size, dtype=np.intp)
    edges = []
    for new_i, old_i in enumerate(vertices):
        nbrs = pattern.neighbors(int(old_i))
        kept = remap[nbrs]
        for new_j in kept[kept >= 0]:
            edges.append((new_i, int(new_j)))
    return SymmetricPattern.from_edges(vertices.size, edges, symmetrize=False)


def maximal_independent_set_reference(pattern: SymmetricPattern) -> np.ndarray:
    """Sequential greedy MIS scan in nondecreasing degree order (reference
    for :func:`repro.graph.coarsen.maximal_independent_set`)."""
    n = pattern.n
    if n == 0:
        return np.empty(0, dtype=np.intp)
    order = np.argsort(pattern.degree(), kind="stable")
    selected = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    indptr, indices = pattern.indptr, pattern.indices
    for v in order:
        if blocked[v]:
            continue
        selected[v] = True
        blocked[v] = True
        blocked[indices[indptr[v] : indptr[v + 1]]] = True
    return np.flatnonzero(selected).astype(np.intp)


def grow_domains_reference(
    pattern: SymmetricPattern, mis: np.ndarray, domain_of: np.ndarray
) -> None:
    """Ring-by-ring simultaneous BFS domain growth, in place (reference for
    the domain sweep ``repro.graph.coarsen._grow_domains``).

    *domain_of* holds each MIS vertex's domain id and ``-1`` elsewhere; every
    vertex reached from the MIS gets the domain that claims it first."""
    indptr, indices = pattern.indptr, pattern.indices
    frontier = mis.copy()
    while frontier.size:
        next_frontier: list[int] = []
        for v in frontier:
            dom = domain_of[v]
            nbrs = indices[indptr[v] : indptr[v + 1]]
            fresh = nbrs[domain_of[nbrs] < 0]
            if fresh.size:
                domain_of[fresh] = dom
                next_frontier.extend(int(w) for w in fresh)
        frontier = np.asarray(next_frontier, dtype=np.intp)
