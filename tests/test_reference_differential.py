"""Differential sweep: every registered ordering on 25 random small patterns.

Two independent oracles are checked on every ``(pattern, algorithm)`` pair:

1. **Kernel equivalence** — the ordering computed on the vectorized
   production kernels must equal, permutation entry for permutation entry,
   the ordering computed on the vertex-at-a-time references: the loop
   kernels of the ``python`` backend tier plus the :mod:`repro.reference`
   twins (the same patching used by ``tests/test_kernels_reference.py``,
   here driven across a larger and nastier corpus).
2. **Metric recomputation** — the envelope statistics the batch engine
   would record for that ordering (bandwidth, envelope size/work, 1-sum,
   2-sum, frontwidths) must match a brute-force recomputation from the
   permuted *dense* pattern, an implementation that shares no code with
   :mod:`repro.envelope.metrics`.

The corpus mixes the shapes that break frontier/slab code: connected
graphs, multi-component graphs, pendant (degree-1) chains and isolated
vertices — 25 patterns, deterministically generated from
:func:`repro.utils.rng.default_rng` seeds — plus small instances of the
random-graph families (Barabási–Albert, Watts–Strogatz, R-MAT), whose
power-law degree tails and hub-dominated frontiers are exactly where slab
kernels can diverge from the naive loops.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.envelope.metrics import envelope_statistics
from repro.graph.components import connected_components
from repro.orderings.registry import ORDERING_ALGORITHMS
from repro.sparse.pattern import SymmetricPattern
from repro.utils.rng import default_rng
from tests.test_kernels_reference import _patch_reference_kernels

N_PATTERNS = 25


def _random_pattern(seed: int) -> SymmetricPattern:
    """One deterministic pattern; the kind cycles through five shapes."""
    rng = default_rng(550_000 + seed)
    kind = seed % 5
    n = int(rng.integers(4, 33))
    if kind == 0:
        # connected: random spanning tree plus a few chords
        edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        extra = rng.integers(0, n, size=(n // 2, 2))
        edges += [(int(a), int(b)) for a, b in extra if a != b]
    elif kind == 1:
        # sparse random graph — almost surely disconnected
        pairs = rng.integers(0, n, size=(max(1, n // 3), 2))
        edges = [(int(a), int(b)) for a, b in pairs if a != b]
    elif kind == 2:
        # pendant-heavy: a short path core with degree-1 leaves hanging off
        core = max(2, n // 3)
        edges = [(i, i + 1) for i in range(core - 1)]
        edges += [(int(rng.integers(0, core)), v) for v in range(core, n)]
    elif kind == 3:
        # isolated vertices: edges confined to the first half
        half = max(2, n // 2)
        pairs = rng.integers(0, half, size=(half, 2))
        edges = [(int(a), int(b)) for a, b in pairs if a != b]
    else:
        # denser random graph (ties and cliques stress tie-breaking)
        pairs = rng.integers(0, n, size=(2 * n, 2))
        edges = [(int(a), int(b)) for a, b in pairs if a != b]
    return SymmetricPattern.from_edges(n, edges)


def _family_patterns() -> list[SymmetricPattern]:
    """Small instances of the power-law / small-world generator families."""
    from repro.collections.random_graphs import (
        barabasi_albert_pattern,
        rmat_pattern,
        watts_strogatz_pattern,
    )

    return [
        barabasi_albert_pattern(24, m=2, seed=210),
        barabasi_albert_pattern(36, m=3, seed=211),
        watts_strogatz_pattern(30, k=4, beta=0.2, seed=212),
        watts_strogatz_pattern(24, k=6, beta=0.3, seed=213),
        rmat_pattern(5, edge_factor=3, seed=214),
        rmat_pattern(5, edge_factor=2, seed=215),
    ]


FAMILY_PATTERNS = _family_patterns()
N_FAMILY_PATTERNS = 6

PATTERNS = [_random_pattern(seed) for seed in range(N_PATTERNS)] + FAMILY_PATTERNS


def test_corpus_covers_the_advertised_shapes():
    """The corpus really contains connected graphs, disconnected graphs,
    pendant vertices, isolated vertices and the generator families
    (otherwise the sweep would silently stop exercising those paths)."""
    assert len(FAMILY_PATTERNS) == N_FAMILY_PATTERNS
    assert len(PATTERNS) == N_PATTERNS + N_FAMILY_PATTERNS
    # the family patterns bring hub-dominated degree distributions
    assert any(p.degree().max() >= 3 * p.degree().mean() for p in FAMILY_PATTERNS)
    component_counts = [connected_components(p)[0] for p in PATTERNS]
    assert any(count == 1 for count in component_counts)
    assert any(count > 1 for count in component_counts)
    degrees = [np.asarray(p.degree()) for p in PATTERNS]
    assert any((d == 1).any() for d in degrees)
    assert any((d == 0).any() for d in degrees)


def brute_force_metrics(pattern: SymmetricPattern, perm: np.ndarray) -> dict:
    """Envelope statistics recomputed from the permuted dense pattern.

    Definitions straight from the paper (Sections 2.1, 2.3, 2.4), applied
    to the explicitly permuted boolean matrix — quadratic and slow, but
    independent of every production code path.
    """
    n = pattern.n
    dense = pattern.to_dense_pattern()[np.ix_(perm, perm)]
    np.fill_diagonal(dense, True)

    firsts = np.array([np.flatnonzero(dense[i])[0] for i in range(n)], dtype=int)
    widths = np.arange(n) - firsts
    one_sum = sum(int(i - j) for i in range(n) for j in range(i)
                  if dense[i, j])
    two_sum = sum(int(i - j) ** 2 for i in range(n) for j in range(i)
                  if dense[i, j])
    fronts = np.array([
        sum(1 for v in range(j, n) if dense[v, :j].any())
        for j in range(1, n + 1)
    ], dtype=float)
    return {
        "n": n,
        "nnz": int(dense.sum()),
        "bandwidth": int(widths.max(initial=0)),
        "envelope_size": int(widths.sum()),
        "envelope_work": int(np.dot(widths, widths)),
        "one_sum": one_sum,
        "two_sum": two_sum,
        "max_frontwidth": int(fronts.max(initial=0)),
        "mean_frontwidth": float(fronts.mean()) if n else 0.0,
        "rms_frontwidth": float(np.sqrt(np.mean(fronts**2))) if n else 0.0,
    }


def _call_with_seed(func, pattern, seed: int):
    """Run an ordering with a deterministic rng when the algorithm takes one."""
    kwargs = {}
    if "rng" in inspect.signature(func).parameters:
        kwargs["rng"] = np.random.default_rng(seed)
    return func(pattern, **kwargs)


@pytest.mark.parametrize("algorithm", sorted(ORDERING_ALGORITHMS))
def test_ordering_differential_sweep(algorithm):
    """Vectorized == reference kernels AND metrics == brute force, for one
    registered algorithm across the whole corpus (25 random shapes plus the
    generator-family patterns)."""
    func = ORDERING_ALGORITHMS[algorithm]
    for seed, pattern in enumerate(PATTERNS):
        fast = _call_with_seed(func, pattern, seed)
        with pytest.MonkeyPatch.context() as context:
            _patch_reference_kernels(context)
            # A fresh copy: the fast call's memoized component split and
            # searches must not stand in for the reference run's.
            naive = _call_with_seed(func, pattern.copy(), seed)
        assert np.array_equal(fast.perm, naive.perm), (
            f"{algorithm} diverged from the reference kernels on "
            f"pattern #{seed} (n={pattern.n})"
        )

        stats = envelope_statistics(pattern, fast.perm).as_dict()
        expected = brute_force_metrics(pattern, np.asarray(fast.perm))
        for name, value in expected.items():
            assert stats[name] == pytest.approx(value), (
                f"{algorithm} pattern #{seed}: metric {name} is "
                f"{stats[name]!r}, brute force says {value!r}"
            )
