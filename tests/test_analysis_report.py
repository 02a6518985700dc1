"""Unit tests for the comparison-table reporting (repro.analysis.report)."""

import math

import pytest

from repro.analysis.report import (
    ComparisonRow,
    factor_scorecard,
    fidelity_scorecard,
    format_table,
    rank_by,
)
from repro.batch.results import TaskRecord
from repro.collections.registry import ProblemSpec
from repro.core.pipeline import compare_orderings


def _rows():
    return [
        ComparisonRow("p", "a", 10, 30, 100, 1000, 9, 0.1),
        ComparisonRow("p", "b", 10, 30, 80, 900, 12, 0.2),
        ComparisonRow("p", "c", 10, 30, 120, 1500, 7, 0.05),
    ]


class TestRankBy:
    def test_rank_by_envelope(self):
        ranked = {r.algorithm: r.rank for r in rank_by(_rows())}
        assert ranked == {"b": 1, "a": 2, "c": 3}

    def test_rank_by_bandwidth(self):
        ranked = {r.algorithm: r.rank for r in rank_by(_rows(), key="bandwidth")}
        assert ranked == {"c": 1, "a": 2, "b": 3}

    def test_ranks_are_per_problem(self):
        rows = _rows() + [ComparisonRow("q", "a", 5, 10, 50, 100, 3, 0.0)]
        ranked = rank_by(rows)
        q_rows = [r for r in ranked if r.problem == "q"]
        assert len(q_rows) == 1 and q_rows[0].rank == 1


class TestFormatTable:
    def test_contains_all_algorithms_and_title(self, grid_8x6):
        rows = compare_orderings(grid_8x6, ("rcm", "gps"), problem="grid_8x6").to_rows()
        text = format_table(rows, title="Table test")
        assert "Table test" in text
        assert "RCM" in text and "GPS" in text
        assert "grid_8x6" in text

    def test_problem_name_not_repeated(self):
        text = format_table(rank_by(_rows()))
        assert text.count("p ") <= 2  # the problem label appears once in the body


def _spec(name, envelopes, bandwidths):
    return ProblemSpec(name, "4.1", 100, 400, "synthetic", envelopes, bandwidths)


def _records(problem, envelopes, bandwidths, n=90, nnz=690, status="ok"):
    return [
        TaskRecord(problem, name, status=status if name == "gk" else "ok", n=n, nnz=nnz,
                   metrics={"envelope_size": envelopes[name], "bandwidth": bandwidths[name]})
        for name in envelopes
    ]


class TestFidelityScorecard:
    """The scorecard is a pure function of records and specs: nothing is solved."""

    PAPER_ENV = {"spectral": 80, "gk": 100, "gps": 120, "rcm": 90}
    PAPER_BW = {"spectral": 20, "gk": 10, "gps": 8, "rcm": 9}
    SPECS = [
        _spec("WINS", PAPER_ENV, PAPER_BW),
        _spec("LOSES", PAPER_ENV, PAPER_BW),
        _spec("FAILED", PAPER_ENV, PAPER_BW),
        _spec("ABSENT", PAPER_ENV, PAPER_BW),
    ]

    def _scorecard(self):
        records = (
            _records("LOSES", {"spectral": 110, "gk": 200, "gps": 100, "rcm": 180},
                     {"spectral": 30, "gk": 20, "gps": 4, "rcm": 9})
            + _records("WINS", {"spectral": 45, "gk": 50, "gps": 60, "rcm": 90},
                       {"spectral": 20, "gk": 5, "gps": 8, "rcm": 18})
            + _records("FAILED", self.PAPER_ENV, self.PAPER_BW, status="timeout")
        )
        return fidelity_scorecard(records, self.SPECS)

    def test_rows_follow_the_specs_and_skip_unscored_problems(self):
        rows, _summary = self._scorecard()
        assert [row.problem for row in rows] == ["WINS", "LOSES"]

    def test_row_ratios(self):
        wins, loses = self._scorecard()[0]
        assert wins.n_ratio == pytest.approx(0.9)
        assert wins.nnz_ratio == pytest.approx((690 + 90) / 2 / 400)
        assert wins.spectral_ratio == pytest.approx(45 / 50)
        assert wins.paper_spectral_ratio == pytest.approx(80 / 90)
        assert wins.envelopes == pytest.approx({"rcm": 1.0, "gps": 0.5, "gk": 0.5})
        assert wins.bandwidths == pytest.approx({"rcm": 2.0, "gps": 1.0, "gk": 0.5})
        assert wins.agrees
        assert loses.spectral_ratio == pytest.approx(110 / 100)
        assert not loses.agrees

    def test_summary(self):
        _rows, summary = self._scorecard()
        assert {key: summary[key] for key in
                ("problems", "spectral_wins", "paper_spectral_wins", "agreements")} == {
            "problems": 2, "spectral_wins": 1, "paper_spectral_wins": 2, "agreements": 1}
        assert summary["envelopes"]["gps"] == pytest.approx(math.sqrt(0.5 * 100 / 120))
        assert summary["bandwidths"]["gk"] == pytest.approx(math.sqrt(0.5 * 2.0))

    def test_no_rows(self):
        rows, summary = fidelity_scorecard([], self.SPECS)
        assert rows == [] and summary["problems"] == summary["agreements"] == 0
        assert summary["envelopes"] == {"rcm": None, "gps": None, "gk": None}


class TestFactorScorecard:
    """Table 4.4's scorecard is a pure function of factorizations and specs."""

    PAPER_ENV = {"spectral": 50, "gk": 70, "gps": 75, "rcm": 100}
    SPECS = [_spec("BARTH4", PAPER_ENV, {}), _spec("BCSSTK29", PAPER_ENV, {}),
             _spec("BCSSTK33", PAPER_ENV, {})]
    FACTORIZATIONS = {
        ("BCSSTK29", "spectral"): (300, 900, 1.5),
        ("BCSSTK29", "rcm"): (400, 1800, 2.0),
        ("BARTH4", "spectral"): (100, 400, 0.25),
        ("BARTH4", "rcm"): (100, 500, 1.0),
        ("BCSSTK33", "rcm"): (100, 500, 1.0),
    }

    def test_rows_follow_the_specs_and_skip_unfactored_problems(self):
        rows = factor_scorecard(self.FACTORIZATIONS, self.SPECS)
        assert [row.problem for row in rows] == ["BARTH4", "BCSSTK29"]

    def test_ratios_are_spectral_over_rcm(self):
        barth4, bcsstk29 = factor_scorecard(self.FACTORIZATIONS, self.SPECS)
        assert bcsstk29.envelope_ratio == pytest.approx(0.75)
        assert bcsstk29.paper_envelope_ratio == pytest.approx(0.5)
        assert bcsstk29.work_ratio == pytest.approx(0.5)
        assert bcsstk29.time_ratio == pytest.approx(0.75)
        assert bcsstk29.seconds == (1.5, 2.0)
        assert barth4.envelope_ratio == pytest.approx(1.0)
        assert barth4.work_ratio == pytest.approx(0.8)
        assert barth4.time_ratio == pytest.approx(0.25)

    def test_paper_time_ratios_are_table_4_4s(self):
        rows = factor_scorecard(
            {(spec.name, name): (1, 1, 1.0) for spec in self.SPECS for name in ("spectral", "rcm")},
            self.SPECS,
        )
        assert {row.problem: round(row.paper_time_ratio, 3) for row in rows} == {
            "BARTH4": 0.233, "BCSSTK29": 0.153, "BCSSTK33": 0.978}

    def test_no_rows(self):
        assert factor_scorecard({}, self.SPECS) == []
