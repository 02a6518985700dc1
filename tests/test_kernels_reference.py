"""Equivalence of the vectorized hot-path kernels with their references.

The fast kernels (compiled BFS levels, round-based MIS, heap-based level
numbering, Sloan's bucket queue, ...) promise **bit-identical** output
to a vertex-at-a-time reference: the loop kernels of
:mod:`repro.backends.kernels` (run through the ``python`` backend tier) for
BFS, Cuthill-McKee, GPS/GK numbering and Sloan, and the twins retained in
:mod:`repro.reference` for components, subpatterns, MIS and domain growth.
These property tests enforce the promise two ways:

* kernel by kernel, on a corpus of random graphs (connected, disconnected,
  edgeless, path/star shapes) — here for the :mod:`repro.reference` twins,
  in ``tests/test_backends.py::TestKernelIdentity`` for the loop kernels;
* end to end: every registered ordering algorithm is run once normally and
  once with every reference patched in, and the permutations must match
  exactly — including on disconnected patterns.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.graph.components
import repro.graph.coarsen
import repro.orderings.gps
from repro import backends, reference
from repro.collections.meshes import grid2d_pattern
from repro.graph.coarsen import _grow_domains, maximal_independent_set
from repro.graph.components import connected_components
from repro.orderings.registry import ORDERING_ALGORITHMS
from repro.sparse.pattern import SymmetricPattern


def random_pattern(rng: np.random.Generator, n: int, density: float) -> SymmetricPattern:
    m = int(density * n)
    if m == 0:
        return SymmetricPattern.empty(n)
    edges = rng.integers(0, n, size=(m, 2))
    return SymmetricPattern.from_edge_arrays(n, edges[:, 0], edges[:, 1])


def corpus() -> list[SymmetricPattern]:
    """A deterministic mix of shapes: sparse/dense random graphs (many of
    them disconnected), an edgeless pattern, a path, and a star."""
    rng = np.random.default_rng(20260729)
    patterns = [
        random_pattern(rng, int(rng.integers(2, 60)), float(rng.uniform(0.0, 3.5)))
        for _ in range(24)
    ]
    patterns.append(SymmetricPattern.empty(7))
    n = 31
    patterns.append(SymmetricPattern.from_edges(n, [(i, i + 1) for i in range(n - 1)]))
    patterns.append(SymmetricPattern.from_edges(n, [(0, i) for i in range(1, n)]))
    return patterns


CORPUS = corpus()
CONNECTED = [p for p in CORPUS if p.n and connected_components(p)[0] == 1]


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=lambda i: f"graph{i}")
def test_components_and_subpattern_match_reference(index):
    pattern = CORPUS[index]
    count, labels = connected_components(pattern)
    ref_count, ref_labels = reference.connected_components_reference(pattern)
    assert count == ref_count
    assert np.array_equal(labels, ref_labels)

    rng = np.random.default_rng(1000 + index)
    subset = rng.permutation(pattern.n)[: int(rng.integers(0, pattern.n + 1))]
    assert pattern.subpattern(subset) == reference.subpattern_reference(pattern, subset)


@pytest.mark.parametrize("strategy", ["degree", "natural", "random"])
@pytest.mark.parametrize("index", range(len(CORPUS)), ids=lambda i: f"graph{i}")
def test_mis_and_domain_growth_match_reference(index, strategy):
    pattern = CORPUS[index]
    mis = maximal_independent_set(
        pattern, rng=np.random.default_rng(index), strategy=strategy
    )
    ref = reference.maximal_independent_set_reference(
        pattern, rng=np.random.default_rng(index), strategy=strategy
    )
    assert np.array_equal(mis, ref)

    domain_of = np.full(pattern.n, -1, dtype=np.intp)
    domain_of[mis] = np.arange(mis.size, dtype=np.intp)
    _grow_domains(pattern, mis, domain_of)
    assert np.array_equal(domain_of, reference.grow_domains_reference(pattern, mis))


def test_mis_greedy_tail_matches_reference_on_adversarial_rank():
    # A long path scanned along its length decides O(1) vertices per round,
    # forcing the sequential-tail fallback of the round-based MIS.
    n = 400
    pattern = SymmetricPattern.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    mis = maximal_independent_set(pattern, strategy="natural")
    ref = reference.maximal_independent_set_reference(pattern, strategy="natural")
    assert np.array_equal(mis, ref)
    assert np.array_equal(mis, np.arange(0, n, 2))


# --------------------------------------------------------------------- #
# end-to-end: all registered algorithms with the reference kernels
# patched in must reproduce the production orderings exactly
# --------------------------------------------------------------------- #
def _patch_reference_kernels(monkeypatch) -> None:
    """Route every kernel to its reference for the life of *monkeypatch*.

    The BFS, Cuthill-McKee, GPS/GK numbering, Sloan and matvec sites run
    their loop kernels through the ``python`` tier; the rest are replaced by
    their :mod:`repro.reference` twins.
    """
    def grow_domains_inplace(pattern, mis, domain_of):
        domain_of[:] = reference.grow_domains_reference(pattern, mis)

    # backends.set_backend("python"), undone when the patch context closes.
    monkeypatch.setattr(backends, "_override", "python")
    monkeypatch.setattr(repro.graph.coarsen, "maximal_independent_set",
                        reference.maximal_independent_set_reference)
    monkeypatch.setattr(repro.graph.coarsen, "_grow_domains", grow_domains_inplace)
    # order_by_components now routes through the spectral workspace, whose
    # lazy import reads repro.graph.components at call time — patching the
    # source module covers it.
    for module in (repro.graph.components, repro.orderings.gps):
        monkeypatch.setattr(module, "connected_components",
                            reference.connected_components_reference)
    monkeypatch.setattr(SymmetricPattern, "subpattern", reference.subpattern_reference)


@pytest.mark.parametrize("kernel, algorithm", [
    ("bfs_levels", "rcm"),
    ("bfs_order", "rcm"),
    ("number_by_levels", "gps"),
    ("sloan", "sloan"),
    ("spmv", "spectral"),
])
def test_reference_patch_runs_the_loop_kernels(kernel, algorithm):
    """Under the patch each dispatched kernel really runs its loop form, so
    the end-to-end comparisons cannot pass by comparing numpy with numpy."""
    pattern = grid2d_pattern(12, 10)  # past the dense eigensolver cutoff
    backends.reset_events()
    with pytest.MonkeyPatch.context() as context:
        _patch_reference_kernels(context)
        ORDERING_ALGORITHMS[algorithm](pattern)
    events = backends.backend_events()
    assert events.get(f"{kernel}:python", 0) >= 1
    assert not any(key.endswith(":numpy") for key in events)


@pytest.mark.parametrize("algorithm", sorted(ORDERING_ALGORITHMS))
def test_registered_algorithms_unchanged_by_kernel_vectorization(algorithm):
    """Every registered ordering — on connected *and* disconnected patterns —
    is bit-identical whether built on the vectorized or the reference kernels."""
    func = ORDERING_ALGORITHMS[algorithm]
    rng = np.random.default_rng(99)
    patterns = [
        random_pattern(rng, 30, 1.2),   # disconnected with high probability
        random_pattern(rng, 24, 2.5),
        SymmetricPattern.from_edges(
            17, [(i, i + 1) for i in range(7)] + [(9 + i, 9 + (i + 1) % 5) for i in range(5)]
        ),                              # two components + isolated vertices
    ]
    for seed, pattern in enumerate(patterns):
        kwargs = {"rng": np.random.default_rng(seed)} if algorithm == "random" else {}
        fast = func(pattern, **kwargs)
        with pytest.MonkeyPatch.context() as context:
            _patch_reference_kernels(context)
            kwargs = {"rng": np.random.default_rng(seed)} if algorithm == "random" else {}
            # A fresh copy so the naive run cannot reuse the fast run's
            # memoized workspace (component split, Laplacian, hierarchy) —
            # the reference kernels must actually execute.
            naive = func(pattern.copy(), **kwargs)
        assert np.array_equal(fast.perm, naive.perm), (
            f"{algorithm} diverged from the reference kernels on pattern #{seed}"
        )
