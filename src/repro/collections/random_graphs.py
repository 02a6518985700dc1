"""Random-graph families: power-law and small-world stress workloads.

The paper's evaluation is confined to finite-element and structural
surrogates, so every kernel, cost model and timeout heuristic in this repo
grew up on mesh-like patterns: bounded degree, large diameter, good
separators.  The families here are the opposite regime — power-law degree
tails, tiny diameters, no useful separators — and exist to stress the
spectral machinery on graphs it was never tuned for:

* :func:`barabasi_albert_pattern` — preferential attachment (Batagelj-Brandes
  construction), power-law degree tail;
* :func:`erdos_renyi_gnp_pattern` — the classic G(n, p) Bernoulli model;
* :func:`erdos_renyi_gnm_pattern` — G(n, m): exactly ``m`` uniformly random
  distinct edges;
* :func:`watts_strogatz_pattern` — small-world ring lattice with random
  rewiring;
* :func:`rmat_pattern` — recursive-matrix (R-MAT / stochastic Kronecker)
  generator with Graph500-style quadrant probabilities.

All generators are deterministic given a seed, vectorized (numpy array ops
throughout — the only Python-level loops are over recursion *levels* or
top-up *rounds*, never over vertices or edges), and return a connected
:class:`repro.sparse.SymmetricPattern` (largest component extracted, as the
mesh generators do).

Registry integration
--------------------
:data:`RANDOM_PROBLEMS` registers one pinned configuration per family as a
first-class problem next to the paper matrices (``repro suite RANDOM/BA``,
``repro suite 'RANDOM/*'``).  Each :class:`GeneratorSpec` carries *analytic*
``expected_n(scale)`` / ``expected_nnz(scale)`` functions, so the scheduler's
:class:`repro.batch.sched.CostModel` can plan (and ``--timeout auto`` can
bound) cells it has never observed — unlike the paper problems, whose sizes
come from the paper's tables.

Scale semantics: ``scale=1.0`` targets ``2**20`` (~10^6) vertices and the
registry default (0.125) about 131k, so ``repro suite RANDOM/BA --scale 1.0``
is the n~10^6 acceptance cell of ROADMAP item 4.  The R-MAT vertex count is
rounded to the nearest power of two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.collections.generators import _ensure_connected
from repro.sparse.pattern import SymmetricPattern
from repro.utils.rng import default_rng
from repro.utils.validation import require_positive_int, require_scale

__all__ = [
    "GeneratorSpec",
    "RANDOM_PROBLEMS",
    "barabasi_albert_pattern",
    "erdos_renyi_gnp_pattern",
    "erdos_renyi_gnm_pattern",
    "watts_strogatz_pattern",
    "rmat_pattern",
]


# --------------------------------------------------------------------------- #
# generators
# --------------------------------------------------------------------------- #
def barabasi_albert_pattern(n: int, m: int = 4, seed=None) -> SymmetricPattern:
    """Preferential-attachment graph (Barabási-Albert model).

    Uses the Batagelj-Brandes linear-time construction: the edge list is a
    flat array ``M`` of ``2 n m`` endpoint slots where slot ``2e`` holds the
    attaching vertex ``e // m`` and slot ``2e + 1`` copies the value of a
    uniformly random earlier (or current) slot — choosing a uniform *slot*
    is exactly choosing a vertex with probability proportional to its
    current multigraph degree.  The copy chain is resolved by vectorized
    pointer chasing (each round follows every unresolved pointer one step;
    chain lengths are geometric, so the expected round count is O(log n m)),
    keeping the whole construction free of per-vertex Python loops.

    Self-loops and parallel edges of the multigraph are collapsed by the
    pattern constructor, and the largest component is extracted (the
    occasional early vertex whose every stub self-looped).
    """
    n = require_positive_int(n, "n", minimum=2)
    m = require_positive_int(m, "m", minimum=1)
    if m >= n:
        raise ValueError(f"m must be smaller than n, got m={m}, n={n}")
    rng = default_rng(seed)
    stubs = n * m
    e = np.arange(stubs, dtype=np.int64)
    heads = e // m
    # Uniform over the 2e already-written slots plus the just-written head
    # (the inclusive upper end is what makes early self-loops possible, as in
    # the original construction).
    r = rng.integers(0, 2 * e + 1)
    ptr = r.copy()
    odd = (ptr & 1).astype(bool)
    while odd.any():
        # Odd slot 2k+1 copies slot r[k]; follow until an even (head) slot.
        ptr = np.where(odd, r[ptr >> 1], ptr)
        odd = (ptr & 1).astype(bool)
    tails = (ptr >> 1) // m
    pattern = SymmetricPattern.from_edge_arrays(n, heads, tails)
    return _ensure_connected(pattern)


def _decode_pair_indices(n: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices of the strict upper triangle to ``(i, j)`` pairs.

    Row-major enumeration of pairs ``0 <= i < j < n``:
    ``k = i (2n - i - 1) / 2 + (j - i - 1)``.  The inverse is computed in
    float64 (exact well past ``n = 10^6``: the discriminant stays below
    2^53) and corrected by one integer step each way against rounding.
    """
    k = np.asarray(k, dtype=np.int64)

    def row_offset(i: np.ndarray) -> np.ndarray:
        return i * (2 * n - i - 1) // 2

    b = 2.0 * n - 1.0
    i = np.floor((b - np.sqrt(b * b - 8.0 * k.astype(np.float64))) / 2.0)
    i = np.clip(i.astype(np.int64), 0, n - 2)
    i = np.where(row_offset(i) > k, i - 1, i)
    i = np.where(row_offset(i + 1) <= k, i + 1, i)
    j = k - row_offset(i) + i + 1
    return i, j


def erdos_renyi_gnp_pattern(
    n: int, p: float | None = None, avg_degree: float = 8.0, seed=None
) -> SymmetricPattern:
    """Erdős–Rényi G(n, p): each of the ``n (n-1) / 2`` pairs is an edge
    independently with probability ``p`` (default: ``avg_degree / (n - 1)``).

    Sampled without materializing the pair space: the edge *count* is drawn
    from the exact Binomial, then that many pair indices are drawn uniformly
    and deduplicated.  The with-replacement draw loses a vanishing fraction
    of edges to birthday collisions (~``E^2 / n^2 (n-1)``, under 0.1% for
    every registered configuration), a bias far inside the model's own
    standard deviation.
    """
    n = require_positive_int(n, "n", minimum=2)
    if p is None:
        p = min(1.0, float(avg_degree) / (n - 1))
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    rng = default_rng(seed)
    n_pairs = n * (n - 1) // 2
    n_edges = int(rng.binomial(n_pairs, p))
    k = np.unique(rng.integers(0, n_pairs, size=n_edges))
    rows, cols = _decode_pair_indices(n, k)
    return _ensure_connected(SymmetricPattern.from_edge_arrays(n, rows, cols))


def erdos_renyi_gnm_pattern(n: int, n_edges: int | None = None, seed=None) -> SymmetricPattern:
    """Erdős–Rényi G(n, m): exactly ``n_edges`` distinct uniformly random
    edges (default ``4 n``, average degree 8).

    Pair indices are drawn with replacement and deduplicated *in first-draw
    order* — sequential sampling without replacement, so the kept prefix of
    ``n_edges`` indices is a uniform random subset.  The top-up loop runs a
    constant expected number of rounds (not per-edge).
    """
    n = require_positive_int(n, "n", minimum=2)
    n_pairs = n * (n - 1) // 2
    if n_edges is None:
        n_edges = min(4 * n, n_pairs)
    n_edges = require_positive_int(n_edges, "n_edges", minimum=1)
    if n_edges > n_pairs:
        raise ValueError(f"n_edges must not exceed {n_pairs} for n={n}, got {n_edges}")
    rng = default_rng(seed)
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < n_edges:
        missing = n_edges - chosen.size
        batch = rng.integers(0, n_pairs, size=missing + missing // 8 + 16)
        combined = np.concatenate([chosen, batch])
        _, first = np.unique(combined, return_index=True)
        chosen = combined[np.sort(first)]
    rows, cols = _decode_pair_indices(n, chosen[:n_edges])
    return _ensure_connected(SymmetricPattern.from_edge_arrays(n, rows, cols))


def watts_strogatz_pattern(n: int, k: int = 6, beta: float = 0.1, seed=None) -> SymmetricPattern:
    """Watts–Strogatz small world: ring lattice (each vertex joined to its
    ``k // 2`` nearest neighbours on each side) with every edge rewired to a
    uniformly random endpoint with probability ``beta``.

    Rewiring keeps the source endpoint, as in the original model; rewired
    edges that land on their source or duplicate an existing edge are
    collapsed by the pattern constructor (an O(beta k / n) loss).
    """
    n = require_positive_int(n, "n", minimum=4)
    k = require_positive_int(k, "k", minimum=2)
    if k % 2 != 0:
        raise ValueError(f"k must be even (k//2 neighbours per side), got {k}")
    if k >= n:
        raise ValueError(f"k must be smaller than n, got k={k}, n={n}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    rng = default_rng(seed)
    base = np.arange(n, dtype=np.int64)
    rows = np.concatenate([base for _ in range(k // 2)])
    cols = np.concatenate([(base + d) % n for d in range(1, k // 2 + 1)])
    rewire = rng.random(rows.size) < beta
    targets = rng.integers(0, n, size=rows.size)
    cols = np.where(rewire, targets, cols)
    return _ensure_connected(SymmetricPattern.from_edge_arrays(n, rows, cols))


def rmat_pattern(
    levels: int,
    edge_factor: int = 8,
    probabilities: tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05),
    seed=None,
) -> SymmetricPattern:
    """R-MAT / stochastic-Kronecker graph on ``2**levels`` vertices.

    Each of the ``edge_factor * 2**levels`` edge draws descends the adjacency
    matrix one quadrant per level with probabilities ``(a, b, c, d)`` (the
    Graph500 defaults), accumulating one row and one column bit per level —
    a loop over *levels* (= log2 n), with every level a single vectorized
    draw over all edges.  The result is symmetrized, duplicate edges and
    self-loops are collapsed, and the largest component is extracted; the
    skewed quadrant probabilities make both the duplicate fraction and the
    isolated-vertex fraction substantial, which is exactly the hub-heavy
    structure this family exists to stress.
    """
    levels = require_positive_int(levels, "levels", minimum=2)
    edge_factor = require_positive_int(edge_factor, "edge_factor", minimum=1)
    a, b, c, d = (float(x) for x in probabilities)
    if min(a, b, c, d) < 0 or abs(a + b + c + d - 1.0) > 1e-9:
        raise ValueError(
            f"quadrant probabilities must be non-negative and sum to 1, got {probabilities}"
        )
    rng = default_rng(seed)
    n = 1 << levels
    n_draws = edge_factor * n
    rows = np.zeros(n_draws, dtype=np.int64)
    cols = np.zeros(n_draws, dtype=np.int64)
    for _ in range(levels):
        u = rng.random(n_draws)
        row_bit = u >= a + b
        col_bit = ((u >= a) & (u < a + b)) | (u >= a + b + c)
        rows = (rows << 1) | row_bit
        cols = (cols << 1) | col_bit
    pattern = SymmetricPattern.from_edge_arrays(n, rows, cols)
    return _ensure_connected(pattern)


# --------------------------------------------------------------------------- #
# registry specs
# --------------------------------------------------------------------------- #
#: Vertex-count target at ``scale=1.0`` (the n~10^6 regime of ROADMAP item 4).
BASE_N = 1 << 20

#: Smallest vertex count a scaled-down family drops to.
MIN_N = 64


def _scaled_n(scale: float) -> int:
    return max(MIN_N, int(round(BASE_N * float(scale))))


def _rmat_levels(scale: float) -> int:
    return max(1, int(round(np.log2(_scaled_n(scale)))))


@dataclass(frozen=True)
class GeneratorSpec:
    """One registered random-graph family configuration.

    The random twin of :class:`repro.collections.registry.ProblemSpec`:
    where a paper problem carries the paper's reported sizes, a generator
    family carries *analytic* size functions — ``expected_n(scale)`` and
    ``expected_nnz(scale)`` (pattern nonzeros including the implicit
    diagonal) — derived from the model's parameters.  The scheduler's cost
    model uses them to plan, and ``--timeout auto`` to bound, cells that
    were never observed; the property tests pin the measured nonzero count
    of every family to its analytic estimate within ``nnz_rtol``.
    """

    name: str
    family: str
    description: str
    generator: Callable[[float], SymmetricPattern]
    expected_n: Callable[[float], int]
    expected_nnz: Callable[[float], int]
    params: dict = field(default_factory=dict)
    #: Relative tolerance of ``expected_nnz`` vs the measured count.  Tight
    #: for the models with exact edge accounting, loose for R-MAT, whose
    #: duplicate-edge and isolated-vertex fractions drift with size.
    nnz_rtol: float = 0.10
    table: str = "random"

    def build(self, scale: float | None = None) -> SymmetricPattern:
        """Build the family instance at the given (or default) scale."""
        from repro.collections.registry import default_scale

        if scale is None:
            scale = default_scale()
        require_scale(scale)
        return self.generator(scale)


def _ba_nnz(scale: float) -> int:
    # m new multigraph edges per vertex; self-loop/duplicate collapse costs
    # well under 1% (the uniform-slot draw rarely lands on the current head).
    n = _scaled_n(scale)
    return int(n + 2 * 4 * n)


def _gnp_nnz(scale: float) -> int:
    # Binomial mean: n(n-1)/2 pairs at p = 8/(n-1) gives 4n edges.
    n = _scaled_n(scale)
    return int(n + 8 * n)


def _gnm_nnz(scale: float) -> int:
    # Exactly 4n distinct edges by construction.
    n = _scaled_n(scale)
    return int(n + 8 * n)


def _ws_nnz(scale: float) -> int:
    # Ring lattice carries exactly n k / 2 = 3n edges; rewiring collapses an
    # O(beta k / n) fraction into self-loops and duplicates.
    n = _scaled_n(scale)
    return int(n + 6 * n * 0.995)


def _rmat_nnz(scale: float) -> int:
    # 8 n edge draws; after symmetrization/dedup and the largest-component
    # trim, roughly 84% survive as distinct off-diagonal pairs and about 75%
    # of the vertices remain (measured across levels 8-17 at the Graph500
    # quadrant mix; see the calibration test in
    # tests/test_collections_generators.py, which pins a wide tolerance).
    n = 1 << _rmat_levels(scale)
    return int(0.75 * n + 2 * 8 * n * 0.84)


RANDOM_PROBLEMS: dict[str, GeneratorSpec] = {
    spec.name: spec
    for spec in [
        GeneratorSpec(
            name="RANDOM/BA",
            family="barabasi-albert",
            description="Preferential attachment (power-law tail), m=4, seed 101",
            generator=lambda scale: barabasi_albert_pattern(_scaled_n(scale), m=4, seed=101),
            expected_n=_scaled_n,
            expected_nnz=_ba_nnz,
            params={"m": 4, "seed": 101},
        ),
        GeneratorSpec(
            name="RANDOM/GNP",
            family="erdos-renyi-gnp",
            description="Erdos-Renyi G(n,p), expected degree 8, seed 102",
            generator=lambda scale: erdos_renyi_gnp_pattern(
                _scaled_n(scale), avg_degree=8.0, seed=102
            ),
            expected_n=_scaled_n,
            expected_nnz=_gnp_nnz,
            params={"avg_degree": 8.0, "seed": 102},
        ),
        GeneratorSpec(
            name="RANDOM/GNM",
            family="erdos-renyi-gnm",
            description="Erdos-Renyi G(n,m), exactly 4n edges, seed 103",
            generator=lambda scale: erdos_renyi_gnm_pattern(_scaled_n(scale), seed=103),
            expected_n=_scaled_n,
            expected_nnz=_gnm_nnz,
            params={"edges_per_vertex": 4, "seed": 103},
        ),
        GeneratorSpec(
            name="RANDOM/WS",
            family="watts-strogatz",
            description="Watts-Strogatz small world, k=6, beta=0.1, seed 104",
            generator=lambda scale: watts_strogatz_pattern(
                _scaled_n(scale), k=6, beta=0.1, seed=104
            ),
            expected_n=_scaled_n,
            expected_nnz=_ws_nnz,
            params={"k": 6, "beta": 0.1, "seed": 104},
        ),
        GeneratorSpec(
            name="RANDOM/RMAT",
            family="rmat",
            description="R-MAT (Graph500 quadrants), edge factor 8, seed 105",
            generator=lambda scale: rmat_pattern(_rmat_levels(scale), edge_factor=8, seed=105),
            expected_n=lambda scale: int(0.75 * (1 << _rmat_levels(scale))),
            expected_nnz=_rmat_nnz,
            params={"edge_factor": 8, "probabilities": (0.57, 0.19, 0.19, 0.05), "seed": 105},
            nnz_rtol=0.25,
        ),
    ]
}
