"""The spectral execution-plan layer (repro.eigen.workspace).

The workspace memoizes pure functions of the immutable pattern structure —
Laplacian, component split, coarsening hierarchy — so the *warm* cache path
must be **bit-identical** to a cold run for every registered spectral/hybrid
algorithm: same permutation, same envelope metrics, same consumed random
stream.  That property is what lets the per-worker problem cache share one
plan across a problem's spectral and hybrid cells and across bench repeats.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.batch import BatchTask, derive_seed
from repro.batch.engine import execute_task
from repro.collections.generators import random_geometric_pattern
from repro.collections.meshes import grid2d_pattern
from repro.eigen.multilevel import multilevel_fiedler
from repro.eigen.workspace import SpectralWorkspace, spectral_workspace
from repro.envelope.metrics import envelope_statistics
from repro.graph.laplacian import adjacency_matrix, laplacian_matrix
from repro.orderings.registry import ORDERING_ALGORITHMS
from repro.sparse.pattern import SymmetricPattern

SPECTRAL_ALGORITHMS = ("spectral", "hybrid")


def _patterns():
    """Connected, disconnected and pathological structures."""
    rng = np.random.default_rng(7)
    disconnected = SymmetricPattern.from_edges(
        19,
        [(i, i + 1) for i in range(8)]                 # a path component
        + [(10 + i, 10 + (i + 1) % 5) for i in range(5)]  # a cycle component
        # vertices 15..18 isolated
    )
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 40, size=(120, 2)) if a != b]
    return [
        grid2d_pattern(9, 8),
        random_geometric_pattern(70, seed=3),
        disconnected,
        SymmetricPattern.from_edges(40, edges),
    ]


@pytest.mark.parametrize("algorithm", SPECTRAL_ALGORITHMS)
def test_warm_workspace_is_bit_identical_to_cold(algorithm):
    """Orderings AND metrics from a warm (cached) pattern match a cold run."""
    func = ORDERING_ALGORITHMS[algorithm]
    for seed, pattern in enumerate(_patterns()):
        cold_pattern = pattern.copy()  # fresh object: empty workspace
        cold = func(cold_pattern, rng=np.random.default_rng(seed))
        first = func(pattern, rng=np.random.default_rng(seed))   # populates cache
        warm = func(pattern, rng=np.random.default_rng(seed))    # served from cache
        assert np.array_equal(first.perm, cold.perm)
        assert np.array_equal(warm.perm, cold.perm), (
            f"{algorithm} warm run diverged from cold on pattern #{seed}"
        )
        cold_stats = envelope_statistics(cold_pattern, cold.perm).as_dict()
        warm_stats = envelope_statistics(pattern, warm.perm).as_dict()
        assert warm_stats == cold_stats


@pytest.mark.parametrize("algorithm", SPECTRAL_ALGORITHMS)
def test_warm_task_record_matches_cold_canonical_form(algorithm):
    """The batch engine's record (metrics included) is cache-invariant."""
    pattern = random_geometric_pattern(80, seed=11)
    task = BatchTask(problem="X", algorithm=algorithm, scale=None,
                     seed=derive_seed(0, "X", algorithm))
    cold = execute_task(task, pattern=pattern.copy())
    execute_task(task, pattern=pattern)  # warm the workspace
    warm = execute_task(task, pattern=pattern)
    assert cold.status == warm.status == "ok"
    assert warm.to_dict(include_timing=False) == cold.to_dict(include_timing=False)


def test_workspace_attaches_once_and_counts_hits():
    pattern = grid2d_pattern(12, 10)
    ws = spectral_workspace(pattern)
    assert spectral_workspace(pattern) is ws
    lap = ws.laplacian()
    assert ws.laplacian() is lap
    assert ws.info["laplacian_builds"] == 1
    assert ws.info["laplacian_hits"] == 1
    num, labels = ws.components()
    assert num == 1 and labels.shape == (pattern.n,)
    ws.components()
    assert ws.info["components_hits"] == 1


def test_derived_patterns_get_fresh_workspaces():
    pattern = grid2d_pattern(6, 5)
    ws = spectral_workspace(pattern)
    assert spectral_workspace(pattern.copy()) is not ws
    perm = np.arange(pattern.n)[::-1].copy()
    assert spectral_workspace(pattern.permute(perm)) is not ws


def test_component_split_matches_manual_split():
    pattern = _patterns()[2]  # the disconnected one
    ws = spectral_workspace(pattern)
    num, labels = ws.components()
    split = ws.component_split()
    assert len(split) == num
    for c, (vertices, sub) in enumerate(split):
        np.testing.assert_array_equal(vertices, np.flatnonzero(labels == c))
        if vertices.size == 1:
            assert sub is None
        else:
            expected = pattern.subpattern(vertices)
            assert sub == expected
    # second call is served from the cache with the same objects
    again = ws.component_split()
    assert all(a is b or (a[1] is b[1]) for a, b in zip(split, again))
    assert ws.info["split_hits"] >= 1


def test_hierarchy_cached_for_deterministic_strategies():
    pattern = random_geometric_pattern(300, seed=5)
    ws = spectral_workspace(pattern)
    rng = np.random.default_rng(0)
    levels, laps = ws.hierarchy(40, 50, "degree", rng)
    levels2, laps2 = ws.hierarchy(40, 50, "degree", np.random.default_rng(1))
    assert levels2 is levels and laps2 is laps
    assert ws.info["hierarchy_builds"] == 1
    assert ws.info["hierarchy_hits"] == 1
    assert len(laps) == len(levels)
    for level, lap in zip(levels, laps):
        assert lap.shape == (level.coarse_pattern.n,) * 2
    # a different key is a different cache entry
    ws.hierarchy(60, 50, "degree", rng)
    assert ws.info["hierarchy_builds"] == 2
    assert ws.hierarchy(40, 50, "degree", rng)[0] is levels


def test_hierarchies_are_kept_for_one_workspace_at_a_time():
    """A hierarchy can outweigh its pattern several times over (hub graphs),
    so building one for another pattern drops the previous pattern's."""
    rng = np.random.default_rng(0)
    gone = spectral_workspace(random_geometric_pattern(300, seed=4))
    gone.hierarchy(40, 50, "degree", rng)
    del gone  # a holder that was collected drops nothing
    gc.collect()  # the workspace and its pattern refer to each other
    first = spectral_workspace(random_geometric_pattern(300, seed=5))
    second = spectral_workspace(random_geometric_pattern(300, seed=6))
    levels, _laps = first.hierarchy(40, 50, "degree", rng)
    first.hierarchy(60, 50, "degree", rng)
    second.hierarchy(40, 50, "degree", rng)
    second.hierarchy(40, 50, "degree", rng)
    assert second.info["hierarchy_builds"] == 1
    assert second.info["hierarchy_hits"] == 1
    # both of the first workspace's entries went; a rebuild is equal
    rebuilt, _laps = first.hierarchy(40, 50, "degree", rng)
    first.hierarchy(60, 50, "degree", rng)
    assert first.info["hierarchy_builds"] == 4
    assert first.info["hierarchy_hits"] == 0
    assert rebuilt is not levels
    assert [level.coarse_pattern for level in rebuilt] == [
        level.coarse_pattern for level in levels]
    second.hierarchy(40, 50, "degree", rng)
    assert second.info["hierarchy_builds"] == 2


def test_random_strategy_bypasses_the_cache_and_preserves_rng_stream():
    pattern = random_geometric_pattern(300, seed=5)
    ws = spectral_workspace(pattern)
    a = multilevel_fiedler(pattern, coarsest_size=40, mis_strategy="random", rng=9)
    b = multilevel_fiedler(pattern, coarsest_size=40, mis_strategy="random", rng=9)
    assert ws.info["hierarchy_uncached"] >= 2
    assert a.eigenvalue == pytest.approx(b.eigenvalue, rel=1e-12)
    np.testing.assert_allclose(a.eigenvector, b.eigenvector)


def test_direct_laplacian_build_matches_legacy_construction():
    """The fused CSR assembly is structurally identical to diags(d) - B."""
    cases = _patterns() + [
        SymmetricPattern.from_edges(5, []),        # isolated vertices only
        SymmetricPattern.from_edges(1, []),
        SymmetricPattern.from_edges(0, []),
    ]
    for pattern in cases:
        direct = laplacian_matrix(pattern)
        b = adjacency_matrix(pattern)
        degrees = np.asarray(b.sum(axis=1)).ravel()
        legacy = (sp.diags(degrees, format="csr") - b).tocsr()
        assert direct.shape == legacy.shape
        np.testing.assert_array_equal(direct.indptr, legacy.indptr)
        np.testing.assert_array_equal(direct.indices, legacy.indices)
        np.testing.assert_array_equal(direct.data, legacy.data)


def test_workspace_counters_start_clean():
    ws = SpectralWorkspace(grid2d_pattern(4, 4))
    assert all(v == 0 for v in ws.info.values())
