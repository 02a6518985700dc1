"""Unit tests for the problem registry (repro.collections.registry)."""

import pytest

from repro.collections.registry import (
    PAPER_PROBLEMS,
    RANDOM_PROBLEMS,
    UnknownProblemError,
    all_problems,
    available_problems,
    default_scale,
    expected_problem_size,
    get_problem_spec,
    has_analytic_size,
    load_problem,
    resolve_problems,
)
from repro.graph.components import is_connected
from repro.orderings.registry import PAPER_ALGORITHMS


class TestRegistryContents:
    def test_all_18_paper_matrices_registered(self):
        assert len(PAPER_PROBLEMS) == 18

    def test_tables_partition(self):
        assert len(available_problems("4.1")) == 6
        assert len(available_problems("4.2")) == 5
        assert len(available_problems("4.3")) == 7
        assert sorted(available_problems()) == sorted(
            available_problems("4.1") + available_problems("4.2") + available_problems("4.3")
        )

    def test_paper_metadata_complete(self):
        for spec in PAPER_PROBLEMS.values():
            assert spec.paper_n > 0
            assert spec.paper_nnz > spec.paper_n
            assert set(spec.paper_envelopes) == set(PAPER_ALGORITHMS)
            assert set(spec.paper_bandwidths) == set(PAPER_ALGORITHMS)
            assert spec.description

    def test_paper_envelope_values_sane(self):
        # Rank-1 algorithm in the paper's Table 4.3 for BARTH4 is SPECTRAL.
        barth4 = PAPER_PROBLEMS["BARTH4"]
        assert min(barth4.paper_envelopes, key=barth4.paper_envelopes.get) == "spectral"
        # And RCM is the fastest / simplest but worst on envelope there.
        assert barth4.paper_envelopes["rcm"] > barth4.paper_envelopes["spectral"]


class TestLoadProblem:
    def test_case_insensitive(self):
        pattern, spec = load_problem("barth4", scale=0.02)
        assert spec.name == "BARTH4"
        assert pattern.n > 50

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="available"):
            load_problem("NOSUCH")

    def test_scale_controls_size(self):
        small, _ = load_problem("DWT2680", scale=0.02)
        large, _ = load_problem("DWT2680", scale=0.125)
        assert large.n > small.n

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            load_problem("POW9", scale=0.0)

    @pytest.mark.parametrize("name", sorted(PAPER_PROBLEMS))
    def test_every_surrogate_builds_and_is_connected(self, name):
        pattern, spec = load_problem(name, scale=0.02)
        assert pattern.n >= 20
        assert pattern.num_edges > 0
        assert is_connected(pattern)

    def test_surrogate_density_resembles_paper(self):
        # Structural surrogates should have clearly more nonzeros per row than
        # the power-network surrogate, as in the real collections.
        shell, shell_spec = load_problem("BCSSTK29", scale=0.05)
        power, power_spec = load_problem("POW9", scale=0.05)
        assert shell.nnz / shell.n > 2.5 * (power.nnz / power.n)


class TestUnknownProblemError:
    """Regression tests for the structured unknown-problem error (the old
    code raised a bare KeyError with no suggestions)."""

    def test_is_a_keyerror_with_a_clean_message(self):
        with pytest.raises(UnknownProblemError) as excinfo:
            load_problem("NOSUCH")
        assert isinstance(excinfo.value, KeyError)
        # __str__ must be the message itself, not KeyError's quoted repr
        assert str(excinfo.value).startswith("unknown problem 'NOSUCH'")

    def test_near_miss_suggestions(self):
        with pytest.raises(UnknownProblemError) as excinfo:
            load_problem("BARTH5")
        assert "BARTH4" in excinfo.value.suggestions
        assert "did you mean" in str(excinfo.value)

    def test_carries_structured_fields(self):
        with pytest.raises(UnknownProblemError) as excinfo:
            load_problem("pow8")
        error = excinfo.value
        assert error.name == "pow8"
        assert "POW9" in error.suggestions
        assert error.available == sorted(all_problems())

    def test_cli_exits_2_with_the_structured_message(self, capsys):
        from repro.cli import main

        code = main(["suite", "BARTH5", "--scale", "0.02"])
        captured = capsys.readouterr()
        assert code == 2
        assert "did you mean" in captured.err
        assert "BARTH4" in captured.err

    def test_no_suggestion_for_garbage(self):
        with pytest.raises(UnknownProblemError) as excinfo:
            load_problem("ZZZZZZZZZZ")
        assert excinfo.value.suggestions == []
        assert "did you mean" not in str(excinfo.value)


class TestRandomFamiliesInRegistry:
    def test_random_table_lists_the_families(self):
        names = available_problems("random")
        assert names == sorted(RANDOM_PROBLEMS)
        assert len(names) == 5

    def test_default_listing_stays_paper_only(self):
        # The random families are opt-in: the no-argument default (and hence
        # the default `repro suite` problem set) is still the 18 paper names.
        assert sorted(available_problems()) == sorted(PAPER_PROBLEMS)

    def test_all_problems_is_the_union(self):
        assert set(all_problems()) == set(PAPER_PROBLEMS) | set(RANDOM_PROBLEMS)

    def test_load_problem_builds_random_families(self):
        pattern, spec = load_problem("random/ba", scale=0.001)
        assert spec.name == "RANDOM/BA"
        assert is_connected(pattern)

    def test_get_problem_spec(self):
        assert get_problem_spec("RANDOM/WS").family == "watts-strogatz"
        assert get_problem_spec("pow9").name == "POW9"
        assert get_problem_spec("NOPE") is None


class TestResolveProblems:
    def test_exact_names_pass_through_normalized(self):
        assert resolve_problems(["pow9", "Barth4"]) == ["POW9", "BARTH4"]

    def test_glob_expands_in_registration_order(self):
        assert resolve_problems(["RANDOM/*"]) == [
            "RANDOM/BA", "RANDOM/GNP", "RANDOM/GNM", "RANDOM/WS", "RANDOM/RMAT",
        ]

    def test_glob_is_case_insensitive(self):
        assert resolve_problems(["random/g*"]) == ["RANDOM/GNP", "RANDOM/GNM"]

    def test_duplicates_dropped_preserving_order(self):
        assert resolve_problems(["POW9", "random/*", "RANDOM/BA"]) == [
            "POW9", "RANDOM/BA", "RANDOM/GNP", "RANDOM/GNM", "RANDOM/WS",
            "RANDOM/RMAT",
        ]

    def test_unmatched_glob_raises(self):
        with pytest.raises(UnknownProblemError):
            resolve_problems(["NOPE/*"])

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(UnknownProblemError, match="did you mean"):
            resolve_problems(["RANDOM/B"])


class TestExpectedProblemSize:
    def test_paper_problem_uses_paper_sizes(self):
        # POW9's builder reaches the paper's size at scale 0.125, not 1.0.
        spec = PAPER_PROBLEMS["POW9"]
        assert spec.paper_scale == 0.125
        expected = float(spec.paper_n * spec.paper_nnz) * (0.02 / 0.125)**2
        assert expected_problem_size("POW9", 0.02) == pytest.approx(expected)

    @pytest.mark.parametrize("scale", [0.05, 0.25])
    def test_paper_estimates_track_the_built_size(self, scale):
        # Within a factor of 8 of the built n * nnz, whatever factor of the
        # paper's size each builder reaches at scale 1.0.
        for name in PAPER_PROBLEMS:
            pattern, _spec = load_problem(name, scale=scale)
            ratio = pattern.n * pattern.nnz / expected_problem_size(name, scale)
            assert 1 / 8 <= ratio <= 8, (name, ratio)

    def test_random_family_uses_analytic_sizes(self):
        spec = RANDOM_PROBLEMS["RANDOM/BA"]
        expected = float(spec.expected_n(0.01)) * float(spec.expected_nnz(0.01))
        assert expected_problem_size("RANDOM/BA", 0.01) == pytest.approx(expected)

    def test_unknown_problem_is_neutral(self):
        assert expected_problem_size("NOSUCH", 0.02) == 1.0

    def test_has_analytic_size(self):
        assert has_analytic_size("RANDOM/RMAT")
        assert not has_analytic_size("POW9")
        assert not has_analytic_size("NOSUCH")


class TestDefaultScale:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert default_scale() == 0.5

    def test_default_value(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert default_scale() == 0.125

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "huge")
        with pytest.raises(ValueError):
            default_scale()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_env_must_be_positive_and_finite(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BENCH_SCALE", value)
        with pytest.raises(ValueError, match=f"REPRO_BENCH_SCALE must be positive and finite, got '{value}'"):
            default_scale()


#: Scales every surrogate build rejects, with the repr its error names.
BAD_SCALES = [
    (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    (0.0, "0.0"), (-1, "-1"),
]


class TestScaleValidation:
    """One positive-and-finite check guards every surrogate build."""

    @pytest.mark.parametrize("problem", ["POW9", "RANDOM/BA"])
    @pytest.mark.parametrize("scale, shown", BAD_SCALES)
    def test_build_rejects(self, problem, scale, shown):
        with pytest.raises(ValueError, match=f"^scale must be positive and finite, got {shown}$"):
            load_problem(problem, scale=scale)

    @pytest.mark.parametrize("problem", ["POW9", "RANDOM/BA"])
    def test_build_rejects_a_bad_default(self, monkeypatch, problem):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "nan")
        with pytest.raises(ValueError, match="REPRO_BENCH_SCALE"):
            load_problem(problem)

    def test_suite_records_the_scale_error(self):
        from repro.batch import run_suite

        suite = run_suite(["POW9"], ["rcm"], scale=float("nan"), n_jobs=1)
        (record,) = suite.records
        assert record.status == "error"
        assert record.error["type"] == "ValueError"
        assert record.error["message"] == "scale must be positive and finite, got nan"
