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
Only artifacts whose entries show a measured end-to-end gain, weighed
against their write cost, are stored:

``pattern``
    A problem's surrogate structure, keyed by registry name + resolved
    scale (the cross-process twin of the per-worker problem cache, and the
    unit ``repro cache prewarm`` builds).
``hierarchy``
    A :class:`~repro.eigen.workspace.SpectralWorkspace` coarsening
    hierarchy, keyed by the pattern's structural digest and
    ``coarsest_size``.  The address also holds the level cap and the MIS
    scan order (``max_levels`` 50, ``strategy`` ``"degree"``), which no
    caller sets, so entries written when they were options stay addressed.
    Per-level Laplacians are *not* stored — they are rebuilt
    bit-identically by :func:`repro.graph.laplacian.laplacian_matrix` on
    load.
``fiedler``
    A converged :class:`~repro.eigen.fiedler.FiedlerResult`, keyed by solver
    method, tolerances, options **and a digest of the rng state before the
    solve**; the entry stores the rng state *after* the solve, which the
    loader restores so a warm run consumes exactly the random stream a cold
    run does.

The Laplacian, the component labels and the component split showed none.
Each is one pass over the structure: at serving sizes a read is no faster
than a build, and at paper size a write costs what 7 to 21 warm reads save.
They stay in the workspace's memory only (``docs/performance.md``,
"Persistent artifact store").
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = [
    "PATTERN_VERSION", "HIERARCHY_VERSION", "FIEDLER_VERSION",
    "pattern_digest", "problem_digest", "rng_state_json", "rng_state_digest",
    "save_pattern", "load_pattern",
    "save_hierarchy", "load_hierarchy",
    "save_fiedler", "load_fiedler",
]

#: Builder versions — bump when the producing algorithm's output can change.
PATTERN_VERSION = 1      # repro.collections registry generators
HIERARCHY_VERSION = 2    # repro.graph.coarsen.coarsening_hierarchy
FIEDLER_VERSION = 2      # repro.eigen lanczos / multilevel solvers


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
    """Address digest of a registry problem surrogate (name + scale).

    The scale is the *resolved* one: ``None`` reads ``REPRO_BENCH_SCALE``
    (:func:`~repro.collections.registry.default_scale`), which can differ
    between runs sharing one store, and shares the explicit default's entry.
    """
    if scale is None:
        from repro.collections.registry import default_scale

        scale = default_scale()
    return hashlib.sha256(
        f"problem:{str(problem).strip().upper()}|scale:{float(scale)!r}".encode()
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
# coarsening hierarchy
# --------------------------------------------------------------------- #
def _hierarchy_params(coarsest_size: int) -> dict:
    from repro.graph.coarsen import MAX_LEVELS

    return {"coarsest_size": int(coarsest_size), "max_levels": MAX_LEVELS,
            "strategy": "degree"}


def save_hierarchy(store, digest: str, coarsest_size, levels):
    arrays = {"num_levels": np.asarray(len(levels), dtype=np.int64)}
    for i, level in enumerate(levels):
        arrays[f"l{i}_fine_n"] = np.asarray(int(level.fine_n), dtype=np.int64)
        arrays[f"l{i}_indptr"] = level.coarse_pattern.indptr
        arrays[f"l{i}_indices"] = level.coarse_pattern.indices
        arrays[f"l{i}_coarse_vertices"] = level.coarse_vertices
        arrays[f"l{i}_domain_of"] = level.domain_of
    return store.save(
        "hierarchy", HIERARCHY_VERSION, digest, arrays,
        params=_hierarchy_params(coarsest_size),
    )


def load_hierarchy(store, digest: str, coarsest_size):
    arrays = store.load(
        "hierarchy", HIERARCHY_VERSION, digest,
        params=_hierarchy_params(coarsest_size),
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
