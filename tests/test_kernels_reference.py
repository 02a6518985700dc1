"""Equivalence of the production kernels with their references.

The fast kernels (compiled BFS levels, whole-level Cuthill-McKee expansion,
heap-based level numbering, Sloan's bucket queue, round-based MIS, ...)
promise **bit-identical** output to the vertex-at-a-time references of
:mod:`repro.reference`.  These tests enforce the promise two ways:

* kernel by kernel, on a corpus of random graphs (connected, disconnected,
  edgeless, path/star shapes) plus wide-level and stiff graphs;
* end to end: every registered ordering algorithm, and a suite run, is
  computed once normally and once with every reference substituted
  (:func:`_patch_reference_kernels`), and the results must match exactly —
  including on disconnected patterns.

Tests are the only way a reference runs: a guard test fails if production
code imports :mod:`repro.reference`.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.graph.coarsen as coarsen
import repro.graph.components as components
import repro.graph.peripheral as peripheral
import repro.graph.traversal as traversal
import repro.orderings.gps as gps
import repro.orderings.sloan as sloan
from repro import reference
from repro.batch import clear_problem_cache, run_suite
from repro.collections.meshes import grid2d_pattern
from repro.orderings.cuthill_mckee import cuthill_mckee_ordering
from repro.orderings.registry import ORDERING_ALGORITHMS
from repro.sparse.pattern import SymmetricPattern
from repro.utils.rng import default_rng


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
CONNECTED = [p for p in CORPUS if p.n and components.connected_components(p)[0] == 1]


def _patterns() -> list[SymmetricPattern]:
    """A small corpus: meshes, a pendant chain, a disconnected graph."""
    rng = default_rng(77)
    out = [grid2d_pattern(9, 7), grid2d_pattern(4, 25)]
    # pendant-heavy
    edges = [(i, i + 1) for i in range(9)]
    edges += [(int(rng.integers(0, 10)), v) for v in range(10, 24)]
    out.append(SymmetricPattern.from_edges(24, edges))
    # disconnected with isolated vertices
    pairs = rng.integers(0, 12, size=(14, 2))
    out.append(SymmetricPattern.from_edges(20, [(int(a), int(b)) for a, b in pairs if a != b]))
    return out


PATTERNS = _patterns()


def _wide_level_patterns() -> list[SymmetricPattern]:
    """Wide, tie-heavy levels: power-law and small-world graphs at n ~ 2k,
    a complete bipartite K_{30,30} and a star of stars."""
    from repro.collections.registry import load_problem

    out = [load_problem(name, scale=0.002)[0] for name in ("RANDOM/WS", "RANDOM/BA")]
    out.append(SymmetricPattern.from_edges(60, [(i, 30 + j) for i in range(30)
                                                for j in range(30)]))
    hubs = range(1, 13)
    leaves = [(h, 13 + 12 * (h - 1) + k) for h in hubs for k in range(12)]
    out.append(SymmetricPattern.from_edges(157, [(0, h) for h in hubs] + leaves))
    return out


def _stiff_patterns() -> list[SymmetricPattern]:
    """A stiff multi-dof 3-D solid (BCSSTK30@0.02: n = 777, nnz 35.6k),
    whose high-degree levels are full of front-growth ties."""
    from repro.collections.registry import load_problem

    return [load_problem("BCSSTK30", scale=0.02)[0]]


WIDE = _wide_level_patterns()

#: Inputs of the level-numbering and Sloan identity tests: the small
#: connected corpus, the wide-level graphs and the stiff solid above.
NUMBERING_INPUTS = CONNECTED + WIDE + _stiff_patterns()


def _numbering_id(index: int) -> str:
    if index < len(CONNECTED):
        return f"conn{index}"
    index -= len(CONNECTED)
    return f"wide{index}" if index < len(WIDE) else f"stiff{index - len(WIDE)}"


# --------------------------------------------------------------------- #
# substituting the references
# --------------------------------------------------------------------- #
#: Each production kernel and the :mod:`repro.reference` function that
#: replaces it.
REFERENCES = [
    (traversal.breadth_first_levels, reference.breadth_first_levels_reference),
    (traversal.bfs_order, reference.bfs_order_reference),
    (gps.number_by_levels, reference.number_by_levels_reference),
    (sloan._sloan_component, reference.sloan_component_reference),
    (components.connected_components, reference.connected_components_reference),
    (SymmetricPattern.subpattern, reference.subpattern_reference),
    (coarsen.maximal_independent_set, reference.maximal_independent_set_reference),
    (coarsen._grow_domains, reference.grow_domains_reference),
]
REFERENCE_IDS = [ref.__name__ for _production, ref in REFERENCES]


def _bindings(func) -> list:
    """Every ``(holder, name)`` bound to *func*: attributes of the loaded
    ``repro`` modules and of :class:`SymmetricPattern`."""
    holders = [module for name, module in list(sys.modules.items())
               if module is not None and (name == "repro" or name.startswith("repro."))]
    holders.append(SymmetricPattern)
    return [(holder, key) for holder in holders
            for key, value in list(vars(holder).items()) if value is func]


@contextlib.contextmanager
def _patch_reference_kernels():
    """Replace every binding of each production kernel with its reference.

    The problem cache is cleared on entry and on exit.  A cached pattern
    carries the searches, component split and hierarchy its workspace
    memoized, so a suite cell on it would skip the reference BFS, component
    and coarsening kernels, and a production run after the patch would
    reuse what the references computed.  Direct callers get the same
    protection by passing a fresh copy of their pattern.
    """
    clear_problem_cache()
    try:
        with pytest.MonkeyPatch.context() as context:
            for production, ref in REFERENCES:
                for holder, key in _bindings(production):
                    context.setattr(holder, key, ref)
            yield
    finally:
        clear_problem_cache()


def _production_and_reference(call, pattern):
    """``call(pattern)`` on the production kernels, then ``call`` on a fresh
    copy of *pattern* (so no memoized search stands in for a reference
    sweep) with every reference substituted."""
    production = call(pattern)
    with _patch_reference_kernels():
        return production, call(pattern.copy())


@contextlib.contextmanager
def _counted_calls(functions):
    """Count the calls of each of *functions* (by code object, so whatever
    name they are reached through) made in this thread, by name."""
    codes = {func.__code__: func.__name__ for func in functions}
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


@pytest.mark.parametrize("production, ref", REFERENCES, ids=REFERENCE_IDS)
def test_reference_takes_the_arguments_of_its_production_kernel(production, ref):
    """Each reference is a drop-in: after the pattern (``self`` for
    :meth:`SymmetricPattern.subpattern`) its parameters match the production
    kernel's in name, kind and default, so every call site binds the same
    arguments whichever of the two it reaches."""
    wanted = list(inspect.signature(production).parameters.values())
    got = list(inspect.signature(ref).parameters.values())
    assert len(got) == len(wanted)
    assert got[0].kind == wanted[0].kind
    assert [(p.name, p.kind, p.default) for p in got[1:]] == [
        (p.name, p.kind, p.default) for p in wanted[1:]]


# --------------------------------------------------------------------- #
# kernel by kernel
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("index", range(len(CORPUS)), ids=lambda i: f"graph{i}")
def test_components_and_subpattern_match_reference(index):
    pattern = CORPUS[index]
    count, labels = components.connected_components(pattern)
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
    mis = coarsen.maximal_independent_set(
        pattern, rng=np.random.default_rng(index), strategy=strategy
    )
    ref = reference.maximal_independent_set_reference(
        pattern, rng=np.random.default_rng(index), strategy=strategy
    )
    assert np.array_equal(mis, ref)

    domain_of = np.full(pattern.n, -1, dtype=np.intp)
    domain_of[mis] = np.arange(mis.size, dtype=np.intp)
    ref_domain_of = domain_of.copy()
    coarsen._grow_domains(pattern, mis, domain_of)
    reference.grow_domains_reference(pattern, mis, ref_domain_of)
    assert np.array_equal(domain_of, ref_domain_of)


def test_mis_greedy_tail_matches_reference_on_adversarial_rank():
    # A long path scanned along its length decides O(1) vertices per round,
    # forcing the sequential-tail fallback of the round-based MIS.
    n = 400
    pattern = SymmetricPattern.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    mis = coarsen.maximal_independent_set(pattern, strategy="natural")
    ref = reference.maximal_independent_set_reference(pattern, strategy="natural")
    assert np.array_equal(mis, ref)
    assert np.array_equal(mis, np.arange(0, n, 2))


def assert_structure_equal(a, b):
    assert np.array_equal(a.level_of, b.level_of)
    assert len(a.levels) == len(b.levels)
    for la, lb in zip(a.levels, b.levels):
        assert np.array_equal(np.asarray(la), np.asarray(lb))


class TestKernelIdentity:
    """The BFS, Cuthill-McKee, GPS/GK numbering and Sloan kernels against
    their references, each substituted in place."""

    @pytest.mark.parametrize("index", range(len(CORPUS)), ids=lambda i: f"graph{i}")
    def test_bfs_kernels_on_corpus(self, index):
        """A random root and both Cuthill-McKee enqueue rules."""
        pattern = CORPUS[index]
        rng = np.random.default_rng(index)
        root = int(rng.integers(0, pattern.n))
        assert_structure_equal(*_production_and_reference(
            lambda p: traversal.breadth_first_levels(p, root), pattern))
        for sort_by_degree in (False, True):
            assert np.array_equal(*_production_and_reference(
                lambda p: traversal.bfs_order(p, root, sort_by_degree), pattern))

    @pytest.mark.parametrize("tie_break", ["degree", "king"])
    @pytest.mark.parametrize("index", range(len(NUMBERING_INPUTS)), ids=_numbering_id)
    def test_number_by_levels_on_corpus(self, index, tie_break):
        """On rooted BFS levels (king_ordering's) and on the GPS combined
        levels (gps/gk's), where a level can mix touched and untouched
        vertices."""
        pattern = NUMBERING_INPUTS[index]
        rng = np.random.default_rng(2000 + index)
        root = int(rng.integers(0, pattern.n))
        levels = traversal.breadth_first_levels(pattern, root).level_of.copy()
        levels[levels < 0] = int(levels.max(initial=0)) + 1
        combined, _height, start, _end = gps.combined_level_structure(pattern)

        for level_of, first in ((levels, root), (combined, start)):
            assert np.array_equal(*_production_and_reference(
                lambda p: gps.number_by_levels(p, level_of, first, tie_break=tie_break),
                pattern))

    @pytest.mark.parametrize("weights", [(2, 1), (1, 2), (0, 1), (16, 1), (1, 0), (1, 16)])
    @pytest.mark.parametrize("index", range(len(NUMBERING_INPUTS)), ids=_numbering_id)
    def test_sloan_component_on_corpus(self, index, weights):
        """The wide-level graphs spread priorities over many buckets of the
        production bucket queue."""
        pattern = NUMBERING_INPUTS[index]
        w1, w2 = weights
        assert np.array_equal(*_production_and_reference(
            lambda p: sloan._sloan_component(p, w1, w2), pattern))

    def test_breadth_first_levels(self):
        """Both ends of each pattern, plus n = 1, an isolated root, a root in
        the last component of a disconnected pattern and an edgeless graph;
        the production path both with a per-call and with a prebuilt graph."""
        split = SymmetricPattern.from_edges(
            9, [(0, 1), (1, 2), (4, 5), (6, 7), (7, 8), (6, 8)])
        cases = [(pattern, root) for pattern in PATTERNS
                 for root in (0, pattern.n - 1)]
        cases += [(SymmetricPattern.empty(1), 0), (split, 3), (split, 8),
                  (SymmetricPattern.empty(7), 3)]
        for pattern, root in cases:
            production, ref = _production_and_reference(
                lambda p: traversal.breadth_first_levels(p, root), pattern)
            assert_structure_equal(production, ref)
            assert_structure_equal(
                traversal.breadth_first_levels(pattern, root, graph=traversal.bfs_graph(pattern)),
                ref)

    def test_bfs_order_both_enqueue_rules(self):
        for pattern in PATTERNS:
            for sort_by_degree in (False, True):
                assert np.array_equal(*_production_and_reference(
                    lambda p: traversal.bfs_order(p, 0, sort_by_degree), pattern))

    def test_sloan_weight_variants(self):
        from repro.orderings.sloan import sloan_ordering

        for pattern in PATTERNS:
            for w1, w2 in [(2, 1), (1, 2), (0, 3), (16, 1)]:
                base, ref = _production_and_reference(
                    lambda p: sloan_ordering(p, w1=w1, w2=w2), pattern)
                assert np.array_equal(base.perm, ref.perm), (w1, w2, pattern.n)

    def test_level_numbering_king_and_gps(self):
        from repro.orderings.gps import gps_ordering
        from repro.orderings.king import king_ordering

        for pattern in PATTERNS:
            for func in (gps_ordering, king_ordering):
                base, ref = _production_and_reference(func, pattern)
                assert np.array_equal(base.perm, ref.perm)


NUMBER_BY_LEVELS = [gps.number_by_levels, reference.number_by_levels_reference]
BFS_ORDER = [traversal.bfs_order, reference.bfs_order_reference]
BFS_LEVELS = [traversal.breadth_first_levels, reference.breadth_first_levels_reference]


def _name(func) -> str:
    return func.__name__


class TestInputChecks:
    """Bad roots, starts and levels raise the same error in each production
    kernel and its reference, and an integer-like root is taken as its
    index, never as a mask or a truncated float."""

    GRID = grid2d_pattern(5, 4)

    def _levels(self):
        return gps.combined_level_structure(self.GRID)[0].copy()

    @pytest.mark.parametrize("number", NUMBER_BY_LEVELS, ids=_name)
    def test_number_by_levels_rejects_a_start_out_of_range(self, number):
        levels = self._levels()
        for start in (-1, self.GRID.n):
            with pytest.raises(ValueError, match="out of range"):
                number(self.GRID, levels, start)

    @pytest.mark.parametrize("number", NUMBER_BY_LEVELS, ids=_name)
    def test_number_by_levels_rejects_a_float_start(self, number):
        levels = self._levels()
        for start in (1.5, 2.0, np.float64(3.0)):
            with pytest.raises(TypeError):
                number(self.GRID, levels, start)

    @pytest.mark.parametrize("number", NUMBER_BY_LEVELS, ids=_name)
    def test_number_by_levels_rejects_a_negative_level(self, number):
        levels = self._levels()
        levels[7] = -1
        with pytest.raises(ValueError, match="nonnegative"):
            number(self.GRID, levels, 0)

    @pytest.mark.parametrize("number", NUMBER_BY_LEVELS, ids=_name)
    def test_number_by_levels_rejects_float_levels(self, number):
        levels = self._levels().astype(float)
        with pytest.raises(TypeError, match="integer"):
            number(self.GRID, levels, 0, tie_break="king")

    @pytest.mark.parametrize("number", NUMBER_BY_LEVELS, ids=_name)
    def test_number_by_levels_rejects_levels_of_the_wrong_shape(self, number):
        levels = self._levels()
        for bad in (levels[:-1], levels.reshape(4, 5), np.append(levels, 0)):
            with pytest.raises(ValueError, match="shape"):
                number(self.GRID, bad, 0)

    @pytest.mark.parametrize("number", NUMBER_BY_LEVELS, ids=_name)
    def test_number_by_levels_takes_any_integer_type(self, number):
        levels = self._levels()
        expected = gps.number_by_levels(self.GRID, levels, 0, tie_break="king")
        got = number(self.GRID, levels.astype(np.int32), np.int64(0), tie_break="king")
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("order", BFS_ORDER, ids=_name)
    def test_bfs_order_takes_a_bool_root_as_its_index(self, order):
        for sort_by_degree in (False, True):
            got = order(self.GRID, True, sort_by_degree)
            assert got.size == self.GRID.n
            assert np.array_equal(got, traversal.bfs_order(self.GRID, 1, sort_by_degree))

    @pytest.mark.parametrize("levels", BFS_LEVELS, ids=_name)
    def test_breadth_first_levels_rejects_a_root_out_of_range(self, levels):
        for root in (-1, self.GRID.n):
            with pytest.raises(ValueError, match="out of range"):
                levels(self.GRID, root)

    @pytest.mark.parametrize("levels", BFS_LEVELS, ids=_name)
    def test_breadth_first_levels_takes_a_bool_root_as_its_index(self, levels):
        assert_structure_equal(levels(self.GRID, True),
                               traversal.breadth_first_levels(self.GRID, 1))
        with pytest.raises(TypeError):
            levels(self.GRID, 1.5)

    @pytest.mark.parametrize("order", BFS_ORDER, ids=_name)
    def test_float_roots_raise(self, order):
        with pytest.raises(TypeError):
            order(self.GRID, 1.5)
        with pytest.raises(TypeError):
            peripheral.pseudo_peripheral_node(self.GRID, start=1.7)
        with pytest.raises(TypeError):
            peripheral.pseudo_diameter(self.GRID, start=1.7)
        with pytest.raises(TypeError):
            cuthill_mckee_ordering(self.GRID, start=1.5)


# --------------------------------------------------------------------- #
# end to end: all registered algorithms with the references substituted
# must reproduce the production orderings exactly
# --------------------------------------------------------------------- #
def _suite_on_every_algorithm():
    # Every registered algorithm, so every call site runs.  POW9 at 0.05:
    # GPS leaves unassigned vertices (a subpattern), and multilevel
    # spectral coarsens (MIS and domain growth).
    return run_suite(["POW9"], sorted(ORDERING_ALGORITHMS), scale=0.05,
                     algorithm_options={"spectral": {"method": "multilevel"}})


@pytest.fixture(scope="module")
def patched_suite_calls():
    """Calls of each production kernel and each reference in a suite run
    under the patch, after a production run of the same suite filled the
    problem cache with its searches, component splits and hierarchies."""
    _suite_on_every_algorithm()
    functions = [func for pair in REFERENCES for func in pair]
    with _patch_reference_kernels(), _counted_calls(functions) as calls:
        _suite_on_every_algorithm()
    return calls


@pytest.mark.parametrize("production, ref", REFERENCES, ids=REFERENCE_IDS)
def test_reference_patch_runs_the_loop_kernels(patched_suite_calls, production, ref):
    """Under the patch the reference runs and the production kernel does
    not, so the end-to-end comparisons cannot pass by comparing production
    with production."""
    assert patched_suite_calls[ref.__name__] > 0
    assert patched_suite_calls[production.__name__] == 0


def test_production_kernels_run_again_after_the_reference_patch():
    """A suite after the patch searches with the production BFS, reusing
    nothing the references memoized."""
    with _patch_reference_kernels():
        _suite_on_every_algorithm()
    with _counted_calls([traversal.breadth_first_levels]) as calls:
        _suite_on_every_algorithm()
    assert calls["breadth_first_levels"] > 0


@pytest.mark.parametrize("algorithm", sorted(ORDERING_ALGORITHMS))
def test_registered_algorithms_unchanged_by_kernel_vectorization(algorithm):
    """Every registered ordering — on connected *and* disconnected patterns —
    is bit-identical whether built on the production or the reference kernels."""
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
        def order(p):
            kwargs = {"rng": np.random.default_rng(seed)} if algorithm == "random" else {}
            return func(p, **kwargs)

        # The reference run gets a fresh copy, so it cannot reuse the
        # production run's memoized workspace (component split, searches,
        # hierarchy): the reference kernels must actually execute.
        fast, naive = _production_and_reference(order, pattern)
        assert np.array_equal(fast.perm, naive.perm), (
            f"{algorithm} diverged from the reference kernels on pattern #{seed}"
        )


def test_canonical_suite_artifact_unchanged_by_references():
    suite = run_suite(["POW9"], ["rcm", "sloan", "spectral", "hybrid"], scale=0.05)
    with _patch_reference_kernels():
        on_references = run_suite(["POW9"], ["rcm", "sloan", "spectral", "hybrid"],
                                  scale=0.05)
    assert on_references.to_json(include_timing=False) == suite.to_json(include_timing=False)


# --------------------------------------------------------------------- #
# guard: production code never reaches a reference
# --------------------------------------------------------------------- #
SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src"


def _imported_names(path: Path) -> set[str]:
    """Every module a source file imports, and every ``module.name`` it
    imports from one, with relative imports made absolute."""
    module = ".".join(path.relative_to(SOURCE_ROOT).with_suffix("").parts)
    package = module.removesuffix(".__init__") if path.name == "__init__.py" \
        else module.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")[: len(package.split(".")) - node.level + 1] \
                if node.level else []
            base = ".".join(parts + ([node.module] if node.module else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_production_code_never_imports_a_reference():
    """Only tests substitute a reference: no module but ``repro/reference.py``
    imports it, nothing imports the retired ``repro.backends`` registry, and
    no module reads the retired ``REPRO_BACKEND`` switch."""
    offenders = []
    for path in sorted((SOURCE_ROOT / "repro").rglob("*.py")):
        rel = path.relative_to(SOURCE_ROOT).as_posix()
        if "REPRO_BACKEND" in path.read_text():
            offenders.append(f"{rel}: REPRO_BACKEND")
        if rel == "repro/reference.py":
            continue
        for name in sorted(_imported_names(path)):
            if name.split(".")[:2] in (["repro", "reference"], ["repro", "backends"]):
                offenders.append(f"{rel}: imports {name}")
    assert offenders == []
