"""Unit tests for the public pipeline (repro.core.pipeline) and package exports."""

import numpy as np
import pytest

import repro
from repro.batch.engine import run_suite
from repro.collections.generators import airfoil_pattern
from repro.collections.registry import load_problem
from repro.core.pipeline import compare_orderings, reorder
from repro.envelope.metrics import envelope_size
from repro.orderings.registry import ORDERING_ALGORITHMS


class TestReorder:
    def test_spectral_default(self, geometric200):
        report = reorder(geometric200)
        assert report.ordering.algorithm == "spectral"
        assert report.statistics.envelope_size == envelope_size(geometric200, report.ordering.perm)
        assert report.original.envelope_size == envelope_size(geometric200)
        assert report.run_time >= 0.0

    def test_envelope_reduction_ratio(self):
        pattern = airfoil_pattern(400, seed=7)
        report = reorder(pattern, algorithm="spectral")
        assert report.envelope_reduction == pytest.approx(
            report.original.envelope_size / report.statistics.envelope_size
        )

    def test_every_registered_algorithm(self, grid_8x6):
        for name in ("spectral", "rcm", "gps", "gk", "sloan", "hybrid", "cm"):
            report = reorder(grid_8x6, algorithm=name)
            assert sorted(report.ordering.perm.tolist()) == list(range(grid_8x6.n))

    def test_options_forwarded(self, grid_8x6):
        report = reorder(grid_8x6, algorithm="spectral", method="dense")
        assert report.ordering.metadata["solver"] == "dense"

    def test_apply_returns_permuted_matrix(self, grid_8x6, spd_grid_matrix):
        report = reorder(grid_8x6, algorithm="rcm")
        permuted = report.apply(spd_grid_matrix)
        expected = spd_grid_matrix[report.ordering.perm][:, report.ordering.perm]
        np.testing.assert_allclose(permuted.toarray(), expected.toarray())

    def test_apply_to_pattern(self, grid_8x6):
        report = reorder(grid_8x6, algorithm="rcm")
        assert report.apply(grid_8x6).num_edges == grid_8x6.num_edges

    def test_accepts_scipy_input(self, spd_grid_matrix):
        report = reorder(spd_grid_matrix, algorithm="rcm")
        assert report.statistics.envelope_size <= report.original.envelope_size

    def test_unknown_algorithm(self, grid_8x6):
        with pytest.raises(KeyError):
            reorder(grid_8x6, algorithm="amd")


class TestCompareOrderings:
    def test_default_algorithms(self, grid_8x6):
        result = compare_orderings(grid_8x6, problem="grid")
        assert {r.algorithm for r in result.to_rows()} == {"spectral", "gk", "gps", "rcm"}
        assert all(record.ok and record.time_s >= 0 for record in result.records)

    def test_custom_algorithms(self, grid_8x6):
        result = compare_orderings(grid_8x6, algorithms=("rcm", "sloan"))
        assert {r.algorithm for r in result.to_rows()} == {"rcm", "sloan"}

    def test_winner_has_rank_one(self, geometric200):
        result = compare_orderings(geometric200, algorithms=("spectral", "rcm"), problem="geo")
        rows = {r.algorithm: r for r in result.to_rows()}
        winner_row = rows[result.winners()["geo"]]
        assert winner_row.rank == 1
        assert winner_row.envelope_size == min(r.envelope_size for r in rows.values())

    def test_rows_match_orderings(self, grid_8x6):
        result = compare_orderings(grid_8x6, algorithms=("rcm",), problem="grid")
        (row,) = result.to_rows()
        ordering = result.record_for("grid", "rcm").ordering
        assert row.envelope_size == envelope_size(grid_8x6, ordering.perm)

    def test_algorithm_options_forwarded(self, grid_8x6):
        result = compare_orderings(grid_8x6, algorithms=("spectral",), spectral={"method": "dense"})
        assert result.record_for("problem", "spectral").ordering.metadata["solver"] == "dense"

    def test_unknown_algorithm_raises(self, grid_8x6):
        with pytest.raises(KeyError):
            compare_orderings(grid_8x6, algorithms=("rcm", "amd"))

    def test_failed_algorithm_raises_runtime_error(self, grid_8x6, monkeypatch):
        def boom(pattern, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(ORDERING_ALGORITHMS, "boom", boom)
        with pytest.raises(RuntimeError, match="kaboom"):
            compare_orderings(grid_8x6, algorithms=("rcm", "boom"))

    def test_to_text_is_table(self, grid_8x6):
        text = compare_orderings(grid_8x6, algorithms=("rcm", "gps"), problem="grid").to_text()
        assert "RCM" in text and "GPS" in text and "Rank" in text
        assert "FAILED" not in text

    def test_matches_the_suite_cell_of_a_registered_problem(self):
        """Same seeds as ``repro suite``: a seeded algorithm gives the same permutation."""
        pattern, _ = load_problem("POW9", scale=0.02)
        result = compare_orderings(pattern, algorithms=("rcm", "random"), problem="POW9")
        suite = run_suite(["POW9"], ("rcm", "random"), scale=0.02)
        for name in ("rcm", "random"):
            ours, theirs = result.record_for("POW9", name), suite.record_for("POW9", name)
            assert ours.seed == theirs.seed
            assert np.array_equal(ours.ordering.perm, theirs.ordering.perm)
            assert ours.metrics["envelope_size"] == theirs.metrics["envelope_size"]


class TestPackageExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_docstring_example(self):
        from repro import reorder as top_reorder
        from repro.collections import grid2d_pattern as gp

        report = top_reorder(gp(20, 30), algorithm="spectral")
        assert report.statistics.envelope_size <= report.original.envelope_size
