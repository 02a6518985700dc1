"""Tests of the per-kernel backend registry (:mod:`repro.backends`).

Covers the registry semantics (request resolution, env precedence, an
unrecognized env value served as numpy and reported), bit-identity of the
vectorized production paths against the loop kernels — the reference
implementations of BFS levels, the Cuthill-McKee enqueue, GPS/GK numbering
and Sloan, run as the ``python`` tier — the backend block of suite
artifacts and ``/statsz``, the bench trend/diff backend dimension, the CLI
surface, and external-problem registration (``repro fetch --register``).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import backends
from repro.backends import kernels as loop_kernels
from repro.cli import main
from repro.collections.meshes import grid2d_pattern
from repro.graph.traversal import bfs_graph, bfs_order, breadth_first_levels
from repro.orderings.gps import combined_level_structure, number_by_levels
from repro.orderings.sloan import _sloan_component
from repro.sparse.pattern import SymmetricPattern
from repro.utils.rng import default_rng
from tests.test_kernels_reference import CONNECTED, CORPUS


@pytest.fixture(autouse=True)
def _clean_backend_state(monkeypatch):
    """Every test starts (and leaves) with no override, no env, no counters.

    The teardown pops the env vars directly: the CLI under test exports
    ``REPRO_BACKEND`` by writing ``os.environ`` itself, which monkeypatch
    (having seen the var absent at setup) would not undo.
    """
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    backends.set_backend(None)
    backends.reset_events()
    yield
    os.environ.pop("REPRO_BACKEND", None)
    backends.set_backend(None)
    backends.reset_events()


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
# registry semantics
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_requestable_names_normalize(self):
        assert backends.normalize_backend(" Python ") == "python"
        assert backends.normalize_backend("NUMPY") == "numpy"
        for name in ("cython", "auto", "numba"):
            with pytest.raises(ValueError, match="unknown backend"):
                backends.normalize_backend(name)

    def test_default_request_is_numpy(self):
        assert backends.BACKENDS == ("numpy", "python")
        assert backends.requested_backend() == "numpy"
        assert backends.backend_summary() == {"requested": "numpy"}

    def test_env_sets_request_and_override_outranks_it(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert backends.requested_backend() == "python"
        backends.set_backend("numpy")
        assert backends.requested_backend() == "numpy"
        backends.set_backend(None)
        assert backends.requested_backend() == "python"

    @pytest.mark.parametrize("value", ["warp-drive", "auto", "numba"])
    def test_invalid_env_is_numpy_and_surfaced(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BACKEND", value)
        assert backends.requested_backend() == "numpy"
        assert backends.kernel_impl("sloan") is None
        assert backends.backend_events() == {"sloan:numpy": 1}
        assert backends.backend_summary() == {"requested": "numpy",
                                              "ignored_invalid_env": value}

    def test_override_outranks_an_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numba")
        backends.set_backend("python")
        assert backends.backend_summary() == {"requested": "python"}

    @pytest.mark.parametrize("kernel", ["fft", "spmv"])
    def test_unknown_kernel_rejected(self, kernel):
        with pytest.raises(ValueError, match="unknown kernel"):
            backends.kernel_impl(kernel)

    def test_numpy_tier_returns_no_impl(self):
        backends.set_backend("numpy")
        for kernel in backends.KERNELS:
            assert backends.kernel_impl(kernel) is None

    @pytest.mark.parametrize("kernel, loop_kernel", [
        ("bfs_levels", loop_kernels.bfs_levels_kernel),
        ("bfs_order", loop_kernels.bfs_order_kernel),
        ("number_by_levels", loop_kernels.number_by_levels_kernel),
        ("sloan", loop_kernels.sloan_kernel),
    ])
    def test_python_tier_returns_loop_kernels(self, kernel, loop_kernel):
        backends.set_backend("python")
        assert backends.kernel_impl(kernel) is loop_kernel

    def test_summary_carries_no_counters(self):
        backends.set_backend("python")
        backends.kernel_impl("sloan")
        assert backends.backend_summary() == {"requested": "python"}

    def test_events_count_per_kernel_choice(self):
        backends.set_backend("python")
        backends.kernel_impl("sloan")
        backends.kernel_impl("sloan")
        backends.kernel_impl("bfs_order")
        events = backends.backend_events()
        assert events["sloan:python"] == 2
        assert events["bfs_order:python"] == 1


# --------------------------------------------------------------------- #
# kernel bit-identity: the production numpy paths against the loop kernels
# (the ``python`` tier is the reference)
# --------------------------------------------------------------------- #
def assert_structure_equal(a, b):
    assert np.array_equal(a.level_of, b.level_of)
    assert len(a.levels) == len(b.levels)
    for la, lb in zip(a.levels, b.levels):
        assert np.array_equal(np.asarray(la), np.asarray(lb))


@pytest.mark.parametrize("backend", ["python"])
class TestKernelIdentity:
    def _with_backend(self, backend, func):
        backends.set_backend(backend)
        try:
            return func()
        finally:
            backends.set_backend(None)

    @pytest.mark.parametrize("index", range(len(CORPUS)), ids=lambda i: f"graph{i}")
    def test_bfs_kernels_on_corpus(self, backend, index):
        """A random root and both Cuthill-McKee enqueue rules."""
        pattern = CORPUS[index]
        rng = np.random.default_rng(index)
        root = int(rng.integers(0, pattern.n))
        assert_structure_equal(
            breadth_first_levels(pattern, root),
            self._with_backend(backend, lambda: breadth_first_levels(pattern, root)),
        )
        for sort_by_degree in (False, True):
            assert np.array_equal(
                bfs_order(pattern, root, sort_by_degree),
                self._with_backend(backend, lambda: bfs_order(pattern, root, sort_by_degree)),
            )

    @pytest.mark.parametrize("tie_break", ["degree", "king"])
    @pytest.mark.parametrize("index", range(len(NUMBERING_INPUTS)), ids=_numbering_id)
    def test_number_by_levels_on_corpus(self, backend, index, tie_break):
        """On rooted BFS levels (king_ordering's) and on the GPS combined
        levels (gps/gk's), where a level can mix touched and untouched
        vertices."""
        pattern = NUMBERING_INPUTS[index]
        rng = np.random.default_rng(2000 + index)
        root = int(rng.integers(0, pattern.n))
        levels = breadth_first_levels(pattern, root).level_of.copy()
        levels[levels < 0] = int(levels.max(initial=0)) + 1
        combined, _height, start, _end = combined_level_structure(pattern)

        for level_of, first in ((levels, root), (combined, start)):
            def number():
                return number_by_levels(pattern, level_of, first, tie_break=tie_break)

            assert np.array_equal(number(), self._with_backend(backend, number))

    @pytest.mark.parametrize("weights", [(2, 1), (1, 2), (0, 1), (16, 1), (1, 0), (1, 16)])
    @pytest.mark.parametrize("index", range(len(NUMBERING_INPUTS)), ids=_numbering_id)
    def test_sloan_component_on_corpus(self, backend, index, weights):
        """The wide-level graphs spread priorities over many buckets of the
        numpy tier's bucket queue."""
        pattern = NUMBERING_INPUTS[index]
        w1, w2 = weights
        assert np.array_equal(
            _sloan_component(pattern, w1, w2),
            self._with_backend(backend, lambda: _sloan_component(pattern, w1, w2)),
        )

    def test_breadth_first_levels(self, backend):
        """Both ends of each pattern, plus n = 1, an isolated root, a root in
        the last component of a disconnected pattern and an edgeless graph;
        the numpy tier both with a per-call and with a prebuilt graph."""
        split = SymmetricPattern.from_edges(
            9, [(0, 1), (1, 2), (4, 5), (6, 7), (7, 8), (6, 8)])
        cases = [(pattern, root) for pattern in PATTERNS
                 for root in (0, pattern.n - 1)]
        cases += [(SymmetricPattern.empty(1), 0), (split, 3), (split, 8),
                  (SymmetricPattern.empty(7), 3)]
        for pattern, root in cases:
            tier = self._with_backend(backend, lambda: breadth_first_levels(pattern, root))
            assert_structure_equal(breadth_first_levels(pattern, root), tier)
            assert_structure_equal(
                breadth_first_levels(pattern, root, graph=bfs_graph(pattern)), tier)

    def test_bfs_order_both_enqueue_rules(self, backend):
        for pattern in PATTERNS:
            for sort_by_degree in (False, True):
                base = bfs_order(pattern, 0, sort_by_degree)
                tier = self._with_backend(
                    backend, lambda: bfs_order(pattern, 0, sort_by_degree))
                assert np.array_equal(base, tier)

    def test_sloan_weight_variants(self, backend):
        from repro.orderings.sloan import sloan_ordering

        for pattern in PATTERNS:
            for w1, w2 in [(2, 1), (1, 2), (0, 3), (16, 1)]:
                base = sloan_ordering(pattern, w1=w1, w2=w2)
                tier = self._with_backend(
                    backend, lambda: sloan_ordering(pattern, w1=w1, w2=w2))
                assert np.array_equal(base.perm, tier.perm), (w1, w2, pattern.n)

    def test_level_numbering_king_and_gps(self, backend):
        from repro.orderings.gps import gps_ordering
        from repro.orderings.king import king_ordering

        for pattern in PATTERNS:
            for func in (gps_ordering, king_ordering):
                base = func(pattern)
                tier = self._with_backend(backend, lambda: func(pattern))
                assert np.array_equal(base.perm, tier.perm)


@pytest.mark.parametrize("backend", backends.BACKENDS)
class TestInputChecksOnEveryTier:
    """Bad roots, starts and levels raise the same error on every tier, and
    an integer-like root is taken as its index, never as a mask or a
    truncated float."""

    GRID = grid2d_pattern(5, 4)

    def _levels(self):
        return combined_level_structure(self.GRID)[0].copy()

    def test_number_by_levels_rejects_a_start_out_of_range(self, backend):
        levels = self._levels()
        backends.set_backend(backend)
        for start in (-1, self.GRID.n):
            with pytest.raises(ValueError, match="out of range"):
                number_by_levels(self.GRID, levels, start)

    def test_number_by_levels_rejects_a_float_start(self, backend):
        levels = self._levels()
        backends.set_backend(backend)
        for start in (1.5, 2.0, np.float64(3.0)):
            with pytest.raises(TypeError):
                number_by_levels(self.GRID, levels, start)

    def test_number_by_levels_rejects_a_negative_level(self, backend):
        levels = self._levels()
        levels[7] = -1
        backends.set_backend(backend)
        with pytest.raises(ValueError, match="nonnegative"):
            number_by_levels(self.GRID, levels, 0)

    def test_number_by_levels_rejects_float_levels(self, backend):
        levels = self._levels().astype(float)
        backends.set_backend(backend)
        with pytest.raises(TypeError, match="integer"):
            number_by_levels(self.GRID, levels, 0, tie_break="king")

    def test_number_by_levels_rejects_levels_of_the_wrong_shape(self, backend):
        levels = self._levels()
        backends.set_backend(backend)
        for bad in (levels[:-1], levels.reshape(4, 5), np.append(levels, 0)):
            with pytest.raises(ValueError, match="shape"):
                number_by_levels(self.GRID, bad, 0)

    def test_number_by_levels_takes_any_integer_type(self, backend):
        levels = self._levels()
        expected = number_by_levels(self.GRID, levels, 0, tie_break="king")
        backends.set_backend(backend)
        got = number_by_levels(self.GRID, levels.astype(np.int32), np.int64(0),
                               tie_break="king")
        assert np.array_equal(got, expected)

    def test_bfs_order_takes_a_bool_root_as_its_index(self, backend):
        backends.set_backend(backend)
        for sort_by_degree in (False, True):
            order = bfs_order(self.GRID, True, sort_by_degree)
            assert order.size == self.GRID.n
            assert np.array_equal(order, bfs_order(self.GRID, 1, sort_by_degree))

    def test_float_roots_raise(self, backend):
        from repro.graph.peripheral import pseudo_diameter, pseudo_peripheral_node
        from repro.orderings.cuthill_mckee import cuthill_mckee_ordering

        backends.set_backend(backend)
        with pytest.raises(TypeError):
            bfs_order(self.GRID, 1.5)
        with pytest.raises(TypeError):
            pseudo_peripheral_node(self.GRID, start=1.7)
        with pytest.raises(TypeError):
            pseudo_diameter(self.GRID, start=1.7)
        with pytest.raises(TypeError):
            cuthill_mckee_ordering(self.GRID, start=1.5)


# --------------------------------------------------------------------- #
# suite artifacts: backend block, canonical identity across tiers
# --------------------------------------------------------------------- #
class TestSuiteArtifactBackend:
    def test_run_suite_records_backend_summary(self):
        from repro.batch import run_suite

        backends.set_backend("python")
        suite = run_suite(["POW9"], ["rcm"], scale=0.05)
        assert suite.backend == {"requested": "python"}

    def test_backend_only_in_timing_form_and_roundtrips(self):
        from repro.batch import run_suite
        from repro.batch.results import SuiteResult

        suite = run_suite(["POW9"], ["rcm"], scale=0.05)
        full = suite.to_dict(include_timing=True)
        canonical = suite.to_dict(include_timing=False)
        assert "backend" in full
        assert "backend" not in canonical
        restored = SuiteResult.from_json(suite.to_json())
        assert restored.backend == suite.backend

    def test_older_backend_blocks_still_load(self):
        from repro.batch import run_suite
        from repro.batch.results import SuiteResult

        payload = run_suite(["POW9"], ["rcm"], scale=0.05).to_dict(include_timing=True)
        older = {"requested": "numpy", "numba_available": False, "fallback": False}
        payload["backend"] = older
        assert SuiteResult.from_json(json.dumps(payload)).backend == older

    def test_canonical_artifact_byte_identical_across_tiers(self):
        from repro.batch import run_suite

        texts = {}
        for backend in backends.BACKENDS:
            backends.set_backend(backend)
            try:
                suite = run_suite(["POW9"], ["rcm", "sloan", "spectral", "hybrid"],
                                  scale=0.05)
            finally:
                backends.set_backend(None)
            texts[backend] = suite.to_json(include_timing=False)
        reference = texts["numpy"]
        for backend, text in texts.items():
            assert text == reference, f"tier {backend} drifted from numpy"


# --------------------------------------------------------------------- #
# bench: machine info, diff dimension, trend
# --------------------------------------------------------------------- #
def _bench_artifact(rev, created_s, backend, times):
    """A minimal bench artifact; ``backend=None`` omits ``config.backend``,
    like the artifacts recorded before the backend registry existed."""
    return {
        "kind": "repro-bench", "schema_version": 1, "rev": rev,
        "created_s": created_s,
        "config": {} if backend is None else {"backend": backend},
        "kernels": [{"name": name, "group": name.split("/")[0], "best_s": t}
                    for name, t in times.items()],
    }


class TestBenchBackendDimension:
    def test_machine_info_is_the_host_only(self, monkeypatch):
        from repro.bench import machine_info

        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert set(machine_info()) == {"platform", "machine", "python", "numpy",
                                       "scipy", "cpu_count"}

    def test_diff_carries_backend_pair_and_notes_mismatch(self):
        from repro.bench import diff_bench, format_diff

        a = _bench_artifact("r1", 1.0, "numpy", {"graph/bfs/X": 1.0})
        b = _bench_artifact("r2", 2.0, "python", {"graph/bfs/X": 0.5})
        diff = diff_bench(a, b)
        assert diff["backends"] == ("numpy", "python")
        assert "NOTE: backend tiers differ" in format_diff(diff)
        same = diff_bench(a, _bench_artifact("r3", 3.0, "numpy",
                                             {"graph/bfs/X": 0.9}))
        assert "NOTE: backend tiers differ" not in format_diff(same)

    def test_trend_sorts_by_creation_and_chains_geomeans(self):
        from repro.bench import format_trend, trend_bench

        a = _bench_artifact("r1", 100.0, "numpy",
                            {"orderings/rcm/X": 1.0, "graph/bfs/X": 0.8})
        b = _bench_artifact("r2", 200.0, "numpy",
                            {"orderings/rcm/X": 0.5, "graph/bfs/X": 0.8})
        c = _bench_artifact("r3", 300.0, "numpy",
                            {"orderings/rcm/X": 0.25, "graph/bfs/X": 0.2})
        trend = trend_bench([c, a, b])  # order on disk must not matter
        assert trend["revisions"] == ["r1", "r2", "r3"]
        last = trend["steps"][-1]
        assert last["backends"] == ("numpy", "numpy")
        assert last["cumulative"]["orderings"] == pytest.approx(4.0)
        assert last["cumulative"]["graph"] == pytest.approx(4.0)
        text = format_trend(trend)
        assert "cumulative" in text and "not in cumulative" not in text

    def test_trend_leaves_config_and_host_changes_out_of_cumulative(self):
        from repro.bench import format_trend, trend_bench

        def artifact(rev, created_s, best_s, policy="default", cpus=2):
            art = _bench_artifact(rev, created_s, "numpy", {"eigen/lanczos/X": best_s})
            art["config"]["fiedler_policy"] = policy
            art["machine"] = {"platform": "Linux", "machine": "x86_64",
                              "python": "3.11.7", "numpy": "2.4.6",
                              "scipy": "1.17.1", "cpu_count": cpus,
                              "backend": "numpy", "numba_available": False}
            return art

        chain = [
            artifact("r1", 1.0, 8.0),
            artifact("r2", 2.0, 4.0),                  # a revision: 2x
            artifact("r3", 3.0, 2.0, policy="fast"),   # a policy switch
            artifact("r4", 4.0, 4.0, cpus=1),          # back, on another host
            artifact("r5", 5.0, 2.0, cpus=1),          # a revision: 2x
        ]
        # A machine block without the fields it used to carry is no change.
        for key in ("backend", "numba_available"):
            del chain[-1]["machine"][key]
        trend = trend_bench(chain)
        assert [step["changed"] for step in trend["steps"]] == [
            [], ["fiedler_policy"], ["fiedler_policy", "cpu_count"], []]
        assert [step["speedups"]["eigen"] for step in trend["steps"]] == \
            pytest.approx([2.0, 2.0, 0.5, 2.0])
        assert trend["steps"][-1]["cumulative"]["eigen"] == pytest.approx(4.0)
        rows = format_trend(trend).splitlines()
        assert rows[3].startswith("r2 -> r3") and rows[3].endswith(
            "(not in cumulative: fiedler_policy changed)")
        assert rows[4].endswith("(not in cumulative: fiedler_policy, cpu_count changed)")
        assert rows[-1].split() == ["cumulative", "4.00x"]

    def test_trend_reads_missing_switches_as_their_defaults(self):
        from repro.bench import trend_bench

        legacy = _bench_artifact("r1", 1.0, None, {"graph/bfs/X": 1.0})
        current = _bench_artifact("r2", 2.0, "numpy", {"graph/bfs/X": 0.5})
        current["config"].update(fiedler_policy="default", quick=False)
        assert trend_bench([legacy, current])["steps"][0]["changed"] == []
        current["config"]["quick"] = True
        assert trend_bench([legacy, current])["steps"][0]["changed"] == ["quick"]

    def test_legacy_artifact_without_backend_reads_as_numpy(self):
        from repro.bench import diff_bench, format_diff, format_trend, trend_bench

        legacy = _bench_artifact("r1", 1.0, None, {"graph/bfs/X": 1.0})
        current = _bench_artifact("r2", 2.0, "numpy", {"graph/bfs/X": 0.9})
        diff = diff_bench(legacy, current)
        assert diff["backends"] == ("numpy", "numpy")
        assert "backend tiers differ" not in format_diff(diff)
        trend = trend_bench([legacy, current])
        assert trend["steps"][0]["backends"] == ("numpy", "numpy")
        assert "->numpy]" not in format_trend(trend)

    def test_artifact_without_config_reads_as_numpy(self):
        from repro.bench import diff_bench, format_diff

        legacy = _bench_artifact("r1", 1.0, None, {"graph/bfs/X": 1.0})
        del legacy["config"]
        current = _bench_artifact("r2", 2.0, "numpy", {"graph/bfs/X": 0.9})
        diff = diff_bench(legacy, current)
        assert diff["backends"] == ("numpy", "numpy")
        assert "backend tiers differ" not in format_diff(diff)

    def test_legacy_artifact_against_python_still_notes_the_tiers(self):
        from repro.bench import diff_bench, format_diff, format_trend, trend_bench

        legacy = _bench_artifact("r1", 1.0, None, {"graph/bfs/X": 1.0})
        loops = _bench_artifact("r2", 2.0, "python", {"graph/bfs/X": 2.0})
        diff = diff_bench(legacy, loops)
        assert diff["backends"] == ("numpy", "python")
        assert "NOTE: backend tiers differ (baseline numpy, current python)" in format_diff(diff)
        trend = trend_bench([legacy, loops])
        assert trend["steps"][0]["changed"] == ["backend"]
        assert trend["steps"][0]["cumulative"]["graph"] == pytest.approx(1.0)
        assert "[numpy->python]" in format_trend(trend)

    def test_trend_labels_follow_their_artifacts(self):
        from repro.bench import format_trend, trend_bench

        a = _bench_artifact("r1", 1.0, "numpy", {"graph/bfs/X": 1.0})
        b = _bench_artifact("r1", 2.0, "numpy", {"graph/bfs/X": 0.5})
        trend = trend_bench([b, a], ["r1-late", "r1-early"])
        assert trend["revisions"] == ["r1-early", "r1-late"]
        assert format_trend(trend).splitlines()[2].startswith("r1-early -> r1-late ")
        with pytest.raises(ValueError, match="1 label"):
            trend_bench([a, b], ["only-one"])

    def test_trend_requires_two_artifacts(self):
        from repro.bench import trend_bench

        with pytest.raises(ValueError, match="at least two"):
            trend_bench([_bench_artifact("r1", 1.0, "numpy", {})])

    def test_trend_disjoint_kernels_yield_no_speedup(self):
        from repro.bench import trend_bench

        a = _bench_artifact("r1", 1.0, "numpy", {"graph/old/X": 1.0})
        b = _bench_artifact("r2", 2.0, "numpy", {"graph/new/X": 0.1})
        trend = trend_bench([a, b])
        assert trend["steps"][0]["speedups"]["graph"] is None
        assert trend["steps"][0]["cumulative"]["graph"] == pytest.approx(1.0)


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
class TestCliBackend:
    @pytest.mark.parametrize("tier", ["auto", "numba"])
    @pytest.mark.parametrize("argv", [["suite", "POW9"], ["bench"], ["serve"]],
                             ids=lambda argv: argv[0])
    def test_retired_tier_flag_is_rejected(self, argv, tier, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--backend", tier])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{tier}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["suite", "bench", "serve"])
    def test_help_lists_the_two_tiers(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "--backend {numpy,python}" in capsys.readouterr().out

    @pytest.mark.parametrize("tier", ["auto", "numba"])
    def test_inherited_retired_tier_env_runs_numpy(self, monkeypatch, tmp_path, capsys, tier):
        monkeypatch.setenv("REPRO_BACKEND", tier)
        out = tmp_path / "results.json"
        code = main(["suite", "POW9", "--scale", "0.05", "--algorithms", "rcm",
                     "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["backend"] == {
            "requested": "numpy", "ignored_invalid_env": tier}

    def test_backend_flag_exported_and_announced(self, monkeypatch, capsys):
        code = main(["suite", "POW9", "--scale", "0.05",
                     "--algorithms", "rcm", "--backend", "python"])
        assert code == 0
        captured = capsys.readouterr()
        assert "kernel backend: python" in captured.err
        import os

        assert os.environ.get("REPRO_BACKEND") == "python"

    def test_suite_artifact_records_backend(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        code = main(["suite", "POW9", "--scale", "0.05", "--algorithms", "rcm",
                     "--backend", "python", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["backend"]["requested"] == "python"

    def test_bench_trend_cli(self, tmp_path, capsys):
        # Each artifact is labelled by its file name without "BENCH_".
        a = tmp_path / "BENCH_r1.json"
        b = tmp_path / "BENCH_r2.json"
        a.write_text(json.dumps(_bench_artifact(
            "r1", 100.0, "numpy", {"graph/bfs/X": 1.0})))
        b.write_text(json.dumps(_bench_artifact(
            "r2", 200.0, "numpy", {"graph/bfs/X": 0.25})))
        code = main(["bench", "--trend", str(a), str(b)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bench trend: r1 -> r2" in out
        assert "4.00x" in out

    def test_bench_trend_needs_two_files(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(_bench_artifact("r1", 1.0, "numpy", {})))
        assert main(["bench", "--trend", str(a)]) == 2
        assert "at least two" in capsys.readouterr().err

    def test_bench_trend_unreadable_file_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(_bench_artifact("r1", 1.0, "numpy", {})))
        assert main(["bench", "--trend", str(a), str(tmp_path / "nope.json")]) == 2


class TestExternalRegistration:
    def _register(self, tmp_path, monkeypatch, name="tiny5"):
        from repro.collections.external import register_external

        monkeypatch.setenv("REPRO_EXTERNAL_DIR", str(tmp_path / "ext"))
        pattern = grid2d_pattern(5, 4)
        return register_external(name, pattern, meta={"source": "test"})

    def test_register_and_resolve_as_problem(self, tmp_path, monkeypatch):
        from repro.collections.registry import (
            available_problems,
            expected_problem_size,
            get_problem_spec,
            has_analytic_size,
            load_problem,
        )

        spec = self._register(tmp_path, monkeypatch)
        assert spec.name == "EXT/TINY5"
        assert "EXT/TINY5" in available_problems("external")
        resolved = get_problem_spec("ext/tiny5")
        assert resolved is not None and resolved.n == spec.n
        pattern, loaded = load_problem("EXT/TINY5")
        assert pattern.n == spec.n and loaded.name == "EXT/TINY5"
        # fixed size: scale is ignored, exact n*nnz feeds the cost model
        big, _ = load_problem("EXT/TINY5", scale=0.001)
        assert big.n == pattern.n
        assert expected_problem_size("EXT/TINY5", scale=0.001) == spec.n * spec.nnz
        assert has_analytic_size("EXT/TINY5")

    def test_invalid_names_rejected(self, tmp_path, monkeypatch):
        with pytest.raises(ValueError, match="external problem name"):
            self._register(tmp_path, monkeypatch, name="bad name!")

    def test_suite_runs_external_problem(self, tmp_path, monkeypatch, capsys):
        self._register(tmp_path, monkeypatch)
        code = main(["suite", "EXT/TINY5", "--algorithms", "rcm",
                     "--backend", "python"])
        assert code == 0
        assert "EXT/TINY5" in capsys.readouterr().out

    def test_fetch_register_via_file_url(self, tmp_path, monkeypatch, capsys):
        from repro.sparse.io_mm import write_matrix_market

        monkeypatch.setenv("REPRO_EXTERNAL_DIR", str(tmp_path / "ext"))
        mtx = tmp_path / "tiny.mtx"
        write_matrix_market(mtx, grid2d_pattern(4, 4).to_scipy(), field="pattern")
        code = main(["fetch", mtx.as_uri(), "--cache", str(tmp_path / "cache"),
                     "--register", "grid44"])
        assert code == 0
        out = capsys.readouterr().out
        assert "registered as EXT/GRID44" in out
        from repro.collections.registry import load_problem

        pattern, _spec = load_problem("EXT/GRID44")
        assert pattern.n == 16

    def test_fetch_register_conflicts_with_no_ingest(self, tmp_path, capsys):
        code = main(["fetch", "HB/bcsstk13", "--cache", str(tmp_path),
                     "--no-ingest", "--register", "x"])
        assert code == 2
        assert "--register needs the ingest step" in capsys.readouterr().err


class TestServeStatsz:
    @pytest.mark.parametrize("env, block", [
        ("python", {"requested": "python"}),
        ("numba", {"requested": "numpy", "ignored_invalid_env": "numba"}),
    ])
    def test_statsz_reports_the_backend_summary(self, monkeypatch, env, block):
        from repro.serve.app import OrderingServer

        monkeypatch.setenv("REPRO_BACKEND", env)
        assert OrderingServer().statsz()["backend"] == block
