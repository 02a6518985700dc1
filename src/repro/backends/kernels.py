"""Loop-form hot kernels: the reference implementations of the ``python`` tier.

Every function in this module is a vertex-at-a-time loop over preallocated
arrays, run interpreted as the ``python`` backend: the reference that every
production (``numpy`` tier) path in :mod:`repro.graph.traversal`,
:mod:`repro.orderings.gps` and :mod:`repro.orderings.sloan` must reproduce
bit for bit.

Identity contracts (pinned by ``tests/test_backends.py`` kernel by kernel and
by the whole-ordering differential sweep, both run against the ``python``
tier):

* :func:`bfs_levels_kernel` is the queue BFS that
  ``scipy.sparse.csgraph.breadth_first_order`` also runs: each dequeued
  vertex appends its undiscovered neighbours in adjacency order, so levels,
  their internal order and ``level_of`` match the numpy path exactly.
* :func:`bfs_order_kernel` is the vertex-at-a-time Cuthill-McKee queue scan
  (stable insertion sort by degree replicates the stable lexsort).
* :func:`number_by_levels_kernel` transcribes the GPS/GK level numbering:
  the "touched candidates first" rule becomes a leading 0/1 key in a plain
  lexicographic argmin scan over the level.  It is the reference for the
  production path's list-based lazy-deletion heap, whose one-int entries
  encode the same lexicographic key.
* :func:`sloan_kernel` keeps a lazy-deletion binary heap of ``(negated
  priority, push counter)`` entries.  Counters are unique, so it pops in
  (highest priority, earliest push) order: the order of the numpy path's
  bucket queue, which pops the front of a FIFO per priority value.  Push
  batches are deduplicated with the same keep-first (``w1 == 0``) /
  keep-last (``w1 != 0``) rule as ``_dedupe_batch``.

All integer work uses ``np.intp`` / ``np.int64`` to match the production
dtypes exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bfs_levels_kernel",
    "bfs_order_kernel",
    "number_by_levels_kernel",
    "sloan_kernel",
    "LOOP_KERNELS",
]


def bfs_levels_kernel(indptr, indices, root, n):
    """Queue BFS from ``root`` producing level structure arrays.

    Returns ``(level_of, order, level_starts, num_levels)``: reached vertices
    in discovery order with ``order[level_starts[k]:level_starts[k+1]]`` the
    ``k``-th level.  Unreachable vertices keep ``level_of == -1``.
    """
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
    return level_of, order, level_starts, num_levels


def bfs_order_kernel(indptr, indices, degrees, root, sort_by_degree, n):
    """Vertex-at-a-time BFS visitation order from ``root``.

    With ``sort_by_degree`` the still-unvisited neighbours of each dequeued
    vertex are appended in nondecreasing degree (stable in adjacency
    position) — the Cuthill-McKee enqueue rule.  Returns ``(order, count)``;
    only ``order[:count]`` is meaningful.
    """
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
    return order, tail


def number_by_levels_kernel(indptr, indices, degrees, levels, start, king, n):
    """GPS/GK phase-3 level-by-level numbering (see ``orderings/gps.py``).

    ``king`` selects the Gibbs-King tie-break (incrementally maintained
    active-front growth) instead of plain degree.  Returns the new-to-old
    permutation of the component.
    """
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


def sloan_kernel(indptr, indices, degrees, dist_to_end, start, w1, w2, n):
    """Sloan's numbering loop over one connected component.

    Array-based binary min-heap keyed ``(negated priority, push counter)``
    with lazy deletion; counters are unique, so vertices pop in (highest
    priority, earliest push) order.  Returns the new-to-old permutation.
    """
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


#: Registry kernel name -> loop implementation (the ``python`` tier).
LOOP_KERNELS = {
    "bfs_levels": bfs_levels_kernel,
    "bfs_order": bfs_order_kernel,
    "number_by_levels": number_by_levels_kernel,
    "sloan": sloan_kernel,
}
