"""Unit tests for the experiment runner (repro.analysis.runner)."""

import pytest

from repro.analysis.runner import ExperimentResult, run_comparison, run_problem_suite
from repro.envelope.metrics import envelope_size
from repro.orderings.registry import ORDERING_ALGORITHMS


class TestRunComparison:
    def test_default_paper_algorithms(self, grid_8x6):
        result = run_comparison(grid_8x6, problem="grid")
        assert {r.algorithm for r in result.rows} == {"spectral", "gk", "gps", "rcm"}
        assert set(result.run_times) == {"spectral", "gk", "gps", "rcm"}
        assert all(t >= 0 for t in result.run_times.values())

    def test_winner_has_rank_one(self, geometric200):
        result = run_comparison(geometric200, algorithms=("spectral", "rcm"), problem="geo")
        winner_row = result.row_for(result.winner)
        assert winner_row.rank == 1
        assert winner_row.envelope_size == min(r.envelope_size for r in result.rows)

    def test_rows_match_orderings(self, grid_8x6):
        result = run_comparison(grid_8x6, algorithms=("rcm",), problem="grid")
        row = result.row_for("rcm")
        assert row.envelope_size == envelope_size(grid_8x6, result.orderings["rcm"].perm)

    def test_row_for_missing_algorithm(self, grid_8x6):
        result = run_comparison(grid_8x6, algorithms=("rcm",))
        with pytest.raises(KeyError):
            result.row_for("gps")

    def test_algorithm_options_forwarded(self, grid_8x6):
        result = run_comparison(
            grid_8x6,
            algorithms=("spectral",),
            algorithm_options={"spectral": {"method": "dense"}},
        )
        assert result.orderings["spectral"].metadata["solver"] == "dense"

    def test_to_text_is_table(self, grid_8x6):
        result = run_comparison(grid_8x6, algorithms=("rcm", "gps"), problem="grid")
        text = result.to_text()
        assert "RCM" in text and "GPS" in text and "Rank" in text

    def test_unknown_algorithm_raises(self, grid_8x6):
        with pytest.raises(KeyError):
            run_comparison(grid_8x6, algorithms=("rcm", "amd"))


class TestExperimentResultWinner:
    def test_winner_on_empty_rows_raises_value_error(self):
        result = ExperimentResult(problem="empty")
        with pytest.raises(ValueError, match="no comparison rows"):
            result.winner


class TestRunProblemSuite:
    def test_runs_registered_problems(self):
        results = run_problem_suite(["POW9", "DWT2680"], algorithms=("rcm", "spectral"), scale=0.02)
        assert [r.problem for r in results] == ["POW9", "DWT2680"]
        for result in results:
            assert len(result.rows) == 2
            assert sorted(r.rank for r in result.rows) == [1, 2]

    def test_parallel_jobs_match_serial(self):
        serial = run_problem_suite(["POW9", "CAN1072"], algorithms=("rcm", "gps"), scale=0.02)
        parallel = run_problem_suite(
            ["POW9", "CAN1072"], algorithms=("rcm", "gps"), scale=0.02, n_jobs=2
        )
        for a, b in zip(serial, parallel):
            assert a.problem == b.problem
            assert [(r.algorithm, r.envelope_size, r.rank) for r in a.rows] == [
                (r.algorithm, r.envelope_size, r.rank) for r in b.rows
            ]
            # orderings survive the process boundary
            assert set(b.orderings) == {"rcm", "gps"}

    def test_failed_task_raises_runtime_error(self, monkeypatch):
        def boom(pattern, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(ORDERING_ALGORITHMS, "boom", boom)
        with pytest.raises(RuntimeError, match="kaboom"):
            run_problem_suite(["POW9"], algorithms=("rcm", "boom"), scale=0.02)
