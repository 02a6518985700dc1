"""Codecs between spectral artifacts and :class:`~repro.store.core.ArtifactStore` entries.

Everything persisted here is a deterministic pure function of an immutable
:class:`~repro.sparse.pattern.SymmetricPattern` structure (plus, for Fiedler
vectors, the solver configuration and the exact rng state), so a loaded
artifact is **byte-identical** to a rebuilt one — the property the
warm-from-disk tests pin.  Each artifact kind carries its own builder-version
constant; bump it when the producing algorithm changes and old entries simply
stop being addressed.

Artifact kinds
--------------
``pattern``
    A problem's surrogate structure, keyed by registry name + scale (the
    cross-process twin of the per-worker problem cache, and the unit
    ``repro cache prewarm`` builds).
``laplacian`` / ``components`` / ``split`` / ``hierarchy``
    The :class:`~repro.eigen.workspace.SpectralWorkspace` artifacts, keyed by
    the pattern's structural digest.  Hierarchy entries additionally key on
    ``(coarsest_size, max_levels, strategy)`` and exist only for the
    deterministic MIS strategies; per-level Laplacians are *not* stored —
    they are rebuilt bit-identically by
    :func:`repro.graph.laplacian.laplacian_matrix` on load.
``fiedler``
    A converged :class:`~repro.eigen.fiedler.FiedlerResult`, keyed by solver
    method, tolerances, options **and a digest of the rng state before the
    solve**; the entry stores the rng state *after* the solve, which the
    loader restores so a warm run consumes exactly the random stream a cold
    run does.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = [
    "PATTERN_VERSION", "LAPLACIAN_VERSION", "COMPONENTS_VERSION",
    "SPLIT_VERSION", "HIERARCHY_VERSION", "FIEDLER_VERSION",
    "pattern_digest", "problem_digest", "rng_state_json", "rng_state_digest",
    "save_pattern", "load_pattern",
    "save_laplacian", "load_laplacian",
    "save_components", "load_components",
    "save_split", "load_split",
    "save_hierarchy", "load_hierarchy",
    "save_fiedler", "load_fiedler",
]

#: Builder versions — bump when the producing algorithm's output can change.
PATTERN_VERSION = 1      # repro.collections registry generators
LAPLACIAN_VERSION = 1    # repro.graph.laplacian.laplacian_matrix
COMPONENTS_VERSION = 1   # repro.graph.components.connected_components
SPLIT_VERSION = 1        # SpectralWorkspace.component_split
HIERARCHY_VERSION = 1    # repro.graph.coarsen.coarsening_hierarchy
FIEDLER_VERSION = 1      # repro.eigen lanczos / multilevel solvers


# --------------------------------------------------------------------- #
# digests
# --------------------------------------------------------------------- #
def pattern_digest(pattern) -> str:
    """Structural sha256 of a pattern: ``n`` plus the canonical CSR arrays.

    Index arrays are widened to a fixed int64 layout first, so the digest is
    platform-independent (``intp`` is 32-bit on some builds).
    """
    h = hashlib.sha256()
    h.update(str(int(pattern.n)).encode("ascii"))
    h.update(b"|")
    h.update(np.ascontiguousarray(pattern.indptr, dtype=np.int64).tobytes())
    h.update(b"|")
    h.update(np.ascontiguousarray(pattern.indices, dtype=np.int64).tobytes())
    return h.hexdigest()


def problem_digest(problem: str, scale) -> str:
    """Address digest of a registry problem surrogate (name + scale)."""
    scale_text = "default" if scale is None else repr(float(scale))
    return hashlib.sha256(
        f"problem:{str(problem).strip().upper()}|scale:{scale_text}".encode()
    ).hexdigest()


def rng_state_json(rng) -> str | None:
    """JSON text of a generator's bit-generator state, or ``None``.

    Only states that round-trip through JSON are usable as cache keys (the
    default PCG64 does; MT19937 carries an ndarray and is skipped — its user
    explicitly opted out of the default stream anyway).
    """
    try:
        return json.dumps(rng.bit_generator.state, sort_keys=True)
    except (AttributeError, TypeError):
        return None


def rng_state_digest(state_text: str) -> str:
    return hashlib.sha256(state_text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# pattern (the problem-cache artifact)
# --------------------------------------------------------------------- #
def save_pattern(store, problem: str, scale, pattern):
    return store.save(
        "pattern", PATTERN_VERSION, problem_digest(problem, scale),
        {"indptr": pattern.indptr, "indices": pattern.indices},
    )


def load_pattern(store, problem: str, scale):
    """Load a problem surrogate structure (``n`` is recovered from the CSR)."""
    arrays = store.load("pattern", PATTERN_VERSION,
                        problem_digest(problem, scale))
    if arrays is None:
        return None
    from repro.sparse.pattern import SymmetricPattern

    indptr = arrays["indptr"].astype(np.intp, copy=False)
    indices = arrays["indices"].astype(np.intp, copy=False)
    try:
        return SymmetricPattern(int(indptr.size - 1), indptr, indices)
    except ValueError:
        return None


# --------------------------------------------------------------------- #
# laplacian
# --------------------------------------------------------------------- #
def save_laplacian(store, digest: str, laplacian):
    return store.save(
        "laplacian", LAPLACIAN_VERSION, digest,
        {"indptr": laplacian.indptr, "indices": laplacian.indices,
         "data": laplacian.data},
    )


def load_laplacian(store, digest: str):
    arrays = store.load("laplacian", LAPLACIAN_VERSION, digest)
    if arrays is None:
        return None
    import scipy.sparse as sp

    indptr = arrays["indptr"]
    n = int(indptr.size - 1)
    try:
        lap = sp.csr_matrix(
            (arrays["data"], arrays["indices"], indptr), shape=(n, n)
        )
    except (ValueError, IndexError):
        return None
    lap.has_sorted_indices = True  # stored from a canonically-sorted build
    return lap


# --------------------------------------------------------------------- #
# connected components
# --------------------------------------------------------------------- #
def save_components(store, digest: str, num: int, labels):
    return store.save(
        "components", COMPONENTS_VERSION, digest,
        {"labels": labels, "num": np.asarray(int(num), dtype=np.int64)},
    )


def load_components(store, digest: str):
    arrays = store.load("components", COMPONENTS_VERSION, digest)
    if arrays is None:
        return None
    return int(arrays["num"][()]), arrays["labels"].astype(np.intp, copy=False)


# --------------------------------------------------------------------- #
# component split
# --------------------------------------------------------------------- #
def save_split(store, digest: str, split):
    """Pack ``[(vertices, subpattern-or-None), ...]`` into flat arrays.

    Per-component vertex lists and sub-CSR arrays are concatenated; sizes and
    per-component nnz counts carry the segmentation.  Singleton components
    (``sub is None``) contribute a size of 1 and an nnz of -1.
    """
    sizes = np.asarray([v.size for v, _sub in split], dtype=np.int64)
    nnzs = np.asarray(
        [-1 if sub is None else sub.indices.size for _v, sub in split],
        dtype=np.int64,
    )
    vertices = (np.concatenate([v for v, _sub in split])
                if split else np.empty(0, dtype=np.intp))
    indptrs = [sub.indptr for _v, sub in split if sub is not None]
    indices = [sub.indices for _v, sub in split if sub is not None]
    cat = lambda parts: (np.concatenate(parts) if parts
                         else np.empty(0, dtype=np.intp))
    return store.save(
        "split", SPLIT_VERSION, digest,
        {"sizes": sizes, "nnzs": nnzs, "vertices": vertices,
         "sub_indptr": cat(indptrs), "sub_indices": cat(indices)},
    )


def load_split(store, digest: str):
    arrays = store.load("split", SPLIT_VERSION, digest)
    if arrays is None:
        return None
    from repro.sparse.pattern import SymmetricPattern

    sizes = arrays["sizes"]
    nnzs = arrays["nnzs"]
    vertices = arrays["vertices"].astype(np.intp, copy=False)
    sub_indptr = arrays["sub_indptr"].astype(np.intp, copy=False)
    sub_indices = arrays["sub_indices"].astype(np.intp, copy=False)
    split = []
    v_at = p_at = i_at = 0
    try:
        for size, nnz in zip(sizes.tolist(), nnzs.tolist()):
            verts = vertices[v_at:v_at + size]
            v_at += size
            if nnz < 0:
                split.append((verts, None))
                continue
            indptr = sub_indptr[p_at:p_at + size + 1]
            p_at += size + 1
            indices = sub_indices[i_at:i_at + nnz]
            i_at += nnz
            split.append((verts, SymmetricPattern(int(size), indptr, indices)))
    except (ValueError, IndexError):
        return None
    if v_at != vertices.size or p_at != sub_indptr.size or i_at != sub_indices.size:
        return None
    return split


# --------------------------------------------------------------------- #
# coarsening hierarchy
# --------------------------------------------------------------------- #
def _hierarchy_params(coarsest_size: int, max_levels: int, strategy: str) -> dict:
    return {"coarsest_size": int(coarsest_size), "max_levels": int(max_levels),
            "strategy": str(strategy)}


def save_hierarchy(store, digest: str, coarsest_size, max_levels, strategy, levels):
    arrays = {"num_levels": np.asarray(len(levels), dtype=np.int64)}
    for i, level in enumerate(levels):
        arrays[f"l{i}_fine_n"] = np.asarray(int(level.fine_n), dtype=np.int64)
        arrays[f"l{i}_indptr"] = level.coarse_pattern.indptr
        arrays[f"l{i}_indices"] = level.coarse_pattern.indices
        arrays[f"l{i}_coarse_vertices"] = level.coarse_vertices
        arrays[f"l{i}_domain_of"] = level.domain_of
    return store.save(
        "hierarchy", HIERARCHY_VERSION, digest, arrays,
        params=_hierarchy_params(coarsest_size, max_levels, strategy),
    )


def load_hierarchy(store, digest: str, coarsest_size, max_levels, strategy):
    arrays = store.load(
        "hierarchy", HIERARCHY_VERSION, digest,
        params=_hierarchy_params(coarsest_size, max_levels, strategy),
    )
    if arrays is None:
        return None
    from repro.graph.coarsen import CoarseLevel
    from repro.sparse.pattern import SymmetricPattern

    levels = []
    try:
        num_levels = int(arrays["num_levels"][()])
        for i in range(num_levels):
            indptr = arrays[f"l{i}_indptr"].astype(np.intp, copy=False)
            coarse = SymmetricPattern(
                int(indptr.size - 1), indptr,
                arrays[f"l{i}_indices"].astype(np.intp, copy=False),
            )
            levels.append(CoarseLevel(
                fine_n=int(arrays[f"l{i}_fine_n"][()]),
                coarse_pattern=coarse,
                coarse_vertices=arrays[f"l{i}_coarse_vertices"].astype(
                    np.intp, copy=False),
                domain_of=arrays[f"l{i}_domain_of"].astype(np.intp, copy=False),
            ))
    except (KeyError, ValueError, IndexError):
        return None
    return levels


# --------------------------------------------------------------------- #
# converged Fiedler results
# --------------------------------------------------------------------- #
def fiedler_params(method: str, tol: float, solver_options: dict,
                   rng_state_text: str) -> dict | None:
    """Address params of one eigensolve, or ``None`` when uncacheable.

    Uncacheable means: solver options that do not canonicalize to JSON
    (callables, arrays) — the entry could not be addressed deterministically.
    """
    from repro.store.core import canonical_params

    try:
        options_text = canonical_params(dict(solver_options))
    except TypeError:
        return None
    return {
        "method": str(method),
        "tol": repr(float(tol)),
        "options": options_text,
        "rng": rng_state_digest(rng_state_text),
    }


def save_fiedler(store, digest: str, params: dict, result, rng_state_after: str):
    return store.save(
        "fiedler", FIEDLER_VERSION, digest,
        {
            "eigenvector": result.eigenvector,
            "eigenvalue": np.asarray(float(result.eigenvalue), dtype=np.float64),
            "residual_norm": np.asarray(float(result.residual_norm),
                                        dtype=np.float64),
            "converged": np.asarray(bool(result.converged)),
            "rng_state_after": np.array(rng_state_after),
        },
        params=params,
    )


def load_fiedler(store, digest: str, params: dict, rng):
    """Load a converged eigensolve and replay its rng side effect.

    On a hit, *rng*'s bit-generator state is restored to the post-solve
    state the cold run left behind, so every subsequent draw from *rng*
    matches the cold path exactly.
    """
    arrays = store.load("fiedler", FIEDLER_VERSION, digest, params=params)
    if arrays is None:
        return None
    from repro.eigen.fiedler import FiedlerResult

    try:
        state_after = json.loads(str(arrays["rng_state_after"][()]))
        result = FiedlerResult(
            eigenvalue=float(arrays["eigenvalue"][()]),
            eigenvector=arrays["eigenvector"],
            method=str(params["method"]),
            residual_norm=float(arrays["residual_norm"][()]),
            converged=bool(arrays["converged"][()]),
        )
        rng.bit_generator.state = state_after
    except (KeyError, ValueError, TypeError, RuntimeError):
        return None
    return result
