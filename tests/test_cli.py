"""Unit tests for the command-line interface (repro.cli)."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cli import build_parser, main
from repro.collections.meshes import grid2d_pattern
from repro.sparse.io_mm import read_matrix_market, write_matrix_market


@pytest.fixture
def matrix_file(tmp_path):
    pattern = grid2d_pattern(8, 7)
    path = tmp_path / "grid.mtx"
    write_matrix_market(path, pattern.to_scipy("spd"))
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_reorder_defaults(self):
        args = build_parser().parse_args(["reorder", "problem:POW9@0.02"])
        assert args.algorithm == "spectral"
        assert args.command == "reorder"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reorder", "x.mtx", "--algorithm", "amd"])


class TestReorderCommand:
    def test_reorder_file_and_write_outputs(self, matrix_file, tmp_path, capsys):
        perm_path = tmp_path / "perm.txt"
        out_path = tmp_path / "reordered.mtx"
        code = main(
            [
                "reorder",
                matrix_file,
                "--algorithm",
                "rcm",
                "--output-permutation",
                str(perm_path),
                "--output-matrix",
                str(out_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "envelope size" in output
        perm = np.loadtxt(perm_path, dtype=int)
        assert sorted(perm.tolist()) == list(range(56))
        reordered = read_matrix_market(out_path)
        original = read_matrix_market(matrix_file)
        np.testing.assert_allclose(
            reordered.toarray(), original.toarray()[np.ix_(perm, perm)], atol=1e-12
        )

    def test_reorder_surrogate_problem(self, capsys):
        code = main(["reorder", "problem:POW9@0.02", "--algorithm", "spectral", "--method", "dense"])
        assert code == 0
        assert "POW9" in capsys.readouterr().out


class TestCompareCommand:
    def test_compare_default_algorithms(self, matrix_file, capsys):
        code = main(["compare", matrix_file])
        assert code == 0
        output = capsys.readouterr().out
        for name in ("SPECTRAL", "GK", "GPS", "RCM"):
            assert name in output
        assert "Smallest envelope" in output

    def test_compare_custom_algorithms(self, matrix_file, capsys):
        code = main(["compare", matrix_file, "--algorithms", "rcm,sloan"])
        assert code == 0
        output = capsys.readouterr().out
        assert "SLOAN" in output and "SPECTRAL" not in output

    def test_compare_unknown_algorithm_errors(self, matrix_file, capsys):
        code = main(["compare", matrix_file, "--algorithms", "rcm,amd"])
        assert code == 2
        assert "unknown algorithms" in capsys.readouterr().err


class TestSpyCommand:
    def test_spy_original(self, matrix_file, capsys):
        code = main(["spy", matrix_file, "--resolution", "12"])
        assert code == 0
        output = capsys.readouterr().out
        assert "ORIGINAL" in output
        assert "envelope=" in output

    def test_spy_with_algorithm(self, matrix_file, capsys):
        code = main(["spy", matrix_file, "--algorithm", "rcm", "--resolution", "10"])
        assert code == 0
        assert "RCM" in capsys.readouterr().out


class TestFiedlerCommand:
    def test_fiedler_on_file(self, matrix_file, tmp_path, capsys):
        vec_path = tmp_path / "fiedler.txt"
        code = main(["fiedler", matrix_file, "--method", "dense", "--output-vector", str(vec_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "algebraic connectivity" in output
        vector = np.loadtxt(vec_path)
        assert vector.shape == (56,)
        assert abs(vector.sum()) < 1e-8


class TestSuiteCommand:
    ARGS = ["suite", "POW9", "CAN1072", "--algorithms", "rcm,gps", "--scale", "0.02"]

    def test_suite_prints_table_and_summary(self, capsys):
        code = main(self.ARGS)
        assert code == 0
        output = capsys.readouterr().out
        assert "POW9" in output and "CAN1072" in output
        assert "RCM" in output and "GPS" in output
        assert "4 ok, 0 failed" in output

    def test_suite_writes_versioned_json(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        code = main(self.ARGS + ["--jobs", "2", "--output", str(out)])
        assert code == 0
        import json

        from repro.batch import SCHEMA_VERSION

        payload = json.loads(out.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["n_jobs"] == 2
        assert len(payload["records"]) == 4
        assert all(r["status"] == "ok" for r in payload["records"])

    def test_suite_baseline_match_and_drift(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        assert main(self.ARGS + ["--output", str(out)]) == 0
        assert main(self.ARGS + ["--baseline", str(out)]) == 0
        assert "matches baseline" in capsys.readouterr().out

        import json

        payload = json.loads(out.read_text())
        payload["records"][0]["metrics"]["envelope_size"] += 1
        out.write_text(json.dumps(payload))
        assert main(self.ARGS + ["--baseline", str(out)]) == 1
        assert "envelope_size" in capsys.readouterr().err

    def test_suite_table_selection(self, capsys):
        code = main(["suite", "--table", "4.2", "--algorithms", "rcm", "--scale", "0.02"])
        assert code == 0
        output = capsys.readouterr().out
        for name in ("BLKHOLE", "CAN1072", "DWT2680", "POW9", "SSTMODEL"):
            assert name in output

    def test_suite_unknown_algorithm_errors(self, capsys):
        code = main(["suite", "POW9", "--algorithms", "rcm,amd", "--scale", "0.02"])
        assert code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_suite_unknown_problem_errors(self, capsys):
        code = main(["suite", "NOSUCH", "--scale", "0.02"])
        assert code == 2
        assert "unknown problem" in capsys.readouterr().err

    def test_suite_baseline_unreadable_vs_schema_mismatch_messages(self, tmp_path, capsys):
        """The two --baseline failure modes must be distinguishable (both exit 2)."""
        code = main(self.ARGS + ["--baseline", str(tmp_path / "nosuch.json")])
        assert code == 2
        assert "cannot read baseline file" in capsys.readouterr().err

        import json

        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"schema_version": 999, "records": []}))
        code = main(self.ARGS + ["--baseline", str(stale)])
        assert code == 2
        err = capsys.readouterr().err
        assert "results-schema mismatch" in err and "cannot read" not in err

        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json at all")
        code = main(self.ARGS + ["--baseline", str(garbage)])
        assert code == 2
        assert "not a valid results artifact" in capsys.readouterr().err


class TestSuiteShardingCli:
    ARGS = ["suite", "POW9", "CAN1072", "--algorithms", "rcm,gps", "--scale", "0.02"]

    def test_shard_runs_slice_and_records_shard(self, tmp_path, capsys):
        import json

        out = tmp_path / "shard1.json"
        code = main(self.ARGS + ["--shard", "1/2", "--output", str(out)])
        assert code == 0
        assert "(shard 1/2)" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["shard"] == [1, 2]
        assert len(payload["records"]) == 2

    def test_invalid_shard_spec_errors(self, capsys):
        assert main(self.ARGS + ["--shard", "5/2"]) == 2
        assert "shard index" in capsys.readouterr().err
        assert main(self.ARGS + ["--shard", "abc"]) == 2
        assert "invalid shard specification" in capsys.readouterr().err

    def test_merge_recombines_shards_byte_identically(self, tmp_path, capsys):
        from repro.batch import SuiteResult

        paths = []
        for k in (1, 2):
            path = tmp_path / f"shard{k}.json"
            assert main(self.ARGS + ["--shard", f"{k}/2", "--output", str(path)]) == 0
            paths.append(str(path))
        full_path = tmp_path / "full.json"
        assert main(self.ARGS + ["--output", str(full_path)]) == 0
        merged_path = tmp_path / "merged.json"
        code = main(["merge", *paths, "--output", str(merged_path)])
        assert code == 0
        assert "merged 4 record(s) from 2 artifact(s)" in capsys.readouterr().out
        merged = SuiteResult.load(merged_path)
        full = SuiteResult.load(full_path)
        assert merged.to_json(include_timing=False) == full.to_json(include_timing=False)

    def test_merge_canonical_writes_timing_free_artifact(self, tmp_path):
        import json

        path = tmp_path / "full.json"
        assert main(self.ARGS + ["--output", str(path)]) == 0
        merged_path = tmp_path / "merged.json"
        assert main(["merge", str(path), "--output", str(merged_path), "--canonical"]) == 0
        payload = json.loads(merged_path.read_text())
        assert "wall_time_s" not in payload and "n_jobs" not in payload

    def test_merge_incomplete_shard_set_errors(self, tmp_path, capsys):
        path = tmp_path / "shard1.json"
        assert main(self.ARGS + ["--shard", "1/2", "--output", str(path)]) == 0
        code = main(["merge", str(path), "--output", str(tmp_path / "merged.json")])
        assert code == 2
        assert "incomplete shard set" in capsys.readouterr().err

    def test_merge_unreadable_input_errors(self, tmp_path, capsys):
        code = main(["merge", str(tmp_path / "nosuch.json"),
                     "--output", str(tmp_path / "merged.json")])
        assert code == 2
        assert "cannot read shard artifact file" in capsys.readouterr().err


class TestSuiteStreamingCli:
    ARGS = ["suite", "POW9", "CAN1072", "--algorithms", "rcm,gps", "--scale", "0.02"]

    def test_stream_output_writes_header_and_records(self, tmp_path):
        import json

        stream = tmp_path / "run.jsonl"
        code = main(self.ARGS + ["--stream-output", str(stream)])
        assert code == 0
        lines = [json.loads(line) for line in stream.read_text().splitlines()]
        assert lines[0]["kind"] == "header" and lines[0]["total_tasks"] == 4
        assert [line["kind"] for line in lines[1:]] == ["record"] * 4

    def test_progress_lines_on_stderr(self, capsys):
        code = main(self.ARGS + ["--progress"])
        assert code == 0
        err = capsys.readouterr().err
        assert "[1/4]" in err and "[4/4]" in err

    def test_resume_after_kill_round_trip(self, tmp_path, capsys):
        from repro.batch import SuiteResult

        full_path = tmp_path / "full.json"
        assert main(self.ARGS + ["--output", str(full_path)]) == 0
        stream = tmp_path / "run.jsonl"
        assert main(self.ARGS + ["--stream-output", str(stream)]) == 0
        stream.write_bytes(stream.read_bytes()[:-25])  # the kill
        capsys.readouterr()

        resumed_path = tmp_path / "resumed.json"
        code = main(self.ARGS + ["--resume", str(stream), "--stream-output", str(stream),
                                 "--output", str(resumed_path)])
        assert code == 0
        assert "reused from" in capsys.readouterr().out
        resumed = SuiteResult.load(resumed_path)
        full = SuiteResult.load(full_path)
        assert resumed.to_json(include_timing=False) == full.to_json(include_timing=False)
        # the stream file is now complete again: header + all four records
        import json

        lines = [json.loads(line) for line in stream.read_text().splitlines()]
        assert len(lines) == 5

    def test_resume_spec_mismatch_errors(self, tmp_path, capsys):
        stream = tmp_path / "run.jsonl"
        assert main(self.ARGS + ["--stream-output", str(stream)]) == 0
        capsys.readouterr()
        code = main(["suite", "POW9", "--algorithms", "rcm", "--scale", "0.02",
                     "--resume", str(stream)])
        assert code == 2
        assert "different suite" in capsys.readouterr().err

    def test_resume_missing_file_errors_unless_it_is_the_sink(self, tmp_path, capsys):
        missing = tmp_path / "nosuch.jsonl"
        code = main(self.ARGS + ["--resume", str(missing)])
        assert code == 2
        assert "cannot read resume file" in capsys.readouterr().err
        # ... but resuming from the sink that does not exist yet starts fresh
        code = main(self.ARGS + ["--resume", str(missing), "--stream-output", str(missing)])
        assert code == 0
        assert "starting fresh" in capsys.readouterr().err

    def test_timeout_records_timeout_without_stalling(self, monkeypatch, capsys):
        import time

        from repro.orderings.registry import ORDERING_ALGORITHMS

        monkeypatch.setitem(ORDERING_ALGORITHMS, "sleepy", lambda p: time.sleep(60))
        start = time.monotonic()
        code = main(["suite", "POW9", "--algorithms", "rcm,sleepy", "--scale", "0.02",
                     "--timeout", "1"])
        assert time.monotonic() - start < 30
        assert code == 1  # a timeout is a failure exit, like an error record
        out = capsys.readouterr().out
        assert "TIMEOUT POW9/sleepy" in out
        assert "1 timed out" in out

    def test_invalid_timeout_errors(self, capsys):
        code = main(self.ARGS + ["--timeout", "0"])
        assert code == 2
        assert "timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_timeout_errors(self, value, capsys):
        assert main(self.ARGS + ["--timeout", value]) == 2
        assert "timeout must be positive and finite" in capsys.readouterr().err

    def test_resume_retries_timed_out_cells(self, tmp_path, monkeypatch, capsys):
        """A timeout record in the stream is a machine artifact: resuming
        (e.g. with a larger --timeout) recomputes that cell."""
        import time

        from repro.orderings.registry import ORDERING_ALGORITHMS

        monkeypatch.setitem(ORDERING_ALGORITHMS, "sleepy",
                            lambda p: time.sleep(2) or ORDERING_ALGORITHMS["rcm"](p))
        stream = tmp_path / "run.jsonl"
        args = ["suite", "POW9", "--algorithms", "rcm,sleepy", "--scale", "0.02"]
        assert main(args + ["--timeout", "0.5", "--stream-output", str(stream)]) == 1
        capsys.readouterr()
        code = main(args + ["--timeout", "30", "--resume", str(stream),
                            "--stream-output", str(stream)])
        assert code == 0
        captured = capsys.readouterr()
        assert "retrying 1 timed-out cell(s)" in captured.err
        assert "1 reused from" in captured.out

    def test_baseline_non_object_json_gets_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "array.json"
        bad.write_text("[1, 2]")
        code = main(self.ARGS + ["--baseline", str(bad)])
        assert code == 2
        assert "not a valid results artifact" in capsys.readouterr().err


class TestProblemsCommand:
    def test_lists_all_tables(self, capsys):
        code = main(["problems"])
        assert code == 0
        output = capsys.readouterr().out
        assert "BARTH4" in output and "BCSSTK29" in output and "POW9" in output


class TestCostBalanceCli:
    ARGS = ["suite", "POW9", "CAN1072", "--algorithms", "rcm,gps", "--scale", "0.02"]

    def test_cost_balanced_shards_merge_byte_identically(self, tmp_path, capsys):
        from repro.batch import SuiteResult

        full_path = tmp_path / "full.json"
        assert main(self.ARGS + ["--output", str(full_path)]) == 0
        paths = []
        for k in (1, 2):
            path = tmp_path / f"shard{k}.json"
            code = main(self.ARGS + ["--shard", f"{k}/2", "--balance", "cost",
                                     "--cost-model", str(full_path),
                                     "--output", str(path)])
            assert code == 0
            err = capsys.readouterr().err
            assert "cost balance" in err and "estimated makespan" in err
            paths.append(str(path))
        merged_path = tmp_path / "merged.json"
        assert main(["merge", *paths, "--output", str(merged_path)]) == 0
        merged = SuiteResult.load(merged_path)
        full = SuiteResult.load(full_path)
        assert merged.to_json(include_timing=False) == full.to_json(include_timing=False)

    def test_balance_cost_without_model_uses_fallback(self, tmp_path, capsys):
        code = main(self.ARGS + ["--shard", "1/2", "--balance", "cost",
                                 "--output", str(tmp_path / "s1.json")])
        assert code == 0
        assert "0 observation(s)" in capsys.readouterr().err

    def test_unreadable_cost_model_errors(self, tmp_path, capsys):
        code = main(self.ARGS + ["--cost-model", str(tmp_path / "nosuch.json")])
        assert code == 2
        assert "cannot read cost-model file" in capsys.readouterr().err

    def test_invalid_cost_model_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json\nnot a stream\n")
        code = main(self.ARGS + ["--cost-model", str(bad)])
        assert code == 2
        assert "cost model" in capsys.readouterr().err

    def test_cost_model_alone_orders_dispatch_without_changing_results(self, tmp_path):
        from repro.batch import SuiteResult

        full_path = tmp_path / "full.json"
        assert main(self.ARGS + ["--output", str(full_path)]) == 0
        dispatched_path = tmp_path / "dispatched.json"
        assert main(self.ARGS + ["--cost-model", str(full_path),
                                 "--output", str(dispatched_path)]) == 0
        full = SuiteResult.load(full_path)
        dispatched = SuiteResult.load(dispatched_path)
        assert dispatched.to_json(include_timing=False) == full.to_json(include_timing=False)


class TestRetryTimeoutsCli:
    def test_retry_without_timeout_errors(self, capsys):
        code = main(["suite", "POW9", "--algorithms", "rcm", "--scale", "0.02",
                     "--retry-timeouts", "1"])
        assert code == 2
        assert "--retry-timeouts needs --timeout" in capsys.readouterr().err

    def test_forced_timeout_retried_lands_single_ok_record(self, tmp_path,
                                                           monkeypatch, capsys):
        """The acceptance criterion end to end: a cell that times out on the
        first attempt and is retried with --retry-timeouts 1 lands exactly
        one final 'ok' record in the merged output — both in the JSON
        artifact and through a merge of the superseded JSONL stream."""
        import json
        import time

        from repro.batch import SuiteResult
        from repro.orderings.registry import ORDERING_ALGORITHMS

        monkeypatch.setitem(ORDERING_ALGORITHMS, "sleepy",
                            lambda p: time.sleep(1.0) or ORDERING_ALGORITHMS["rcm"](p))
        stream = tmp_path / "run.jsonl"
        out = tmp_path / "out.json"
        code = main(["suite", "POW9", "--algorithms", "rcm,sleepy",
                     "--scale", "0.02", "--timeout", "0.3",
                     "--retry-timeouts", "1", "--timeout-growth", "10",
                     "--stream-output", str(stream), "--output", str(out),
                     "--no-progress"])
        assert code == 0  # the retry rescued the run: no failures left
        assert "2 ok, 0 failed" in capsys.readouterr().out

        # the artifact holds exactly one record for the retried cell, ok
        suite = SuiteResult.load(out)
        sleepy = [r for r in suite.records if r.algorithm == "sleepy"]
        assert len(sleepy) == 1 and sleepy[0].status == "ok"

        # the stream kept both attempts (supersede semantics) ...
        lines = [json.loads(line) for line in stream.read_text().splitlines()]
        sleepy_lines = [l for l in lines if l.get("algorithm") == "sleepy"]
        assert [l["status"] for l in sleepy_lines] == ["timeout", "ok"]

        # ... and merging the stream dedupes to the final ok attempt
        merged_path = tmp_path / "merged.json"
        assert main(["merge", str(stream), "--output", str(merged_path)]) == 0
        merged = SuiteResult.load(merged_path)
        final = [r for r in merged.records if r.algorithm == "sleepy"]
        assert len(final) == 1 and final[0].status == "ok"

    def test_resume_of_escalated_stream_reuses_final_attempts(self, tmp_path,
                                                              monkeypatch, capsys):
        """--resume on a stream with superseded records dedupes before
        deciding what to re-run: the rescued cell is reused, not retried."""
        import time

        from repro.orderings.registry import ORDERING_ALGORITHMS

        monkeypatch.setitem(ORDERING_ALGORITHMS, "sleepy",
                            lambda p: time.sleep(1.0) or ORDERING_ALGORITHMS["rcm"](p))
        stream = tmp_path / "run.jsonl"
        args = ["suite", "POW9", "--algorithms", "rcm,sleepy", "--scale", "0.02",
                "--timeout", "0.3", "--retry-timeouts", "1",
                "--timeout-growth", "10", "--stream-output", str(stream),
                "--no-progress"]
        assert main(args) == 0
        capsys.readouterr()
        code = main(args + ["--resume", str(stream)])
        assert code == 0
        captured = capsys.readouterr()
        assert "2 reused from" in captured.out
        assert "retrying" not in captured.err


class TestCostBalancedResumeGuard:
    ARGS = ["suite", "POW9", "CAN1072", "--algorithms", "rcm,gps",
            "--scale", "0.02", "--no-progress"]

    def test_resume_with_different_cost_model_rejected(self, tmp_path, capsys):
        full = tmp_path / "full.json"
        assert main(self.ARGS + ["--output", str(full)]) == 0
        stream = tmp_path / "s1.jsonl"
        balanced = self.ARGS + ["--shard", "1/2", "--balance", "cost",
                                "--cost-model", str(full),
                                "--stream-output", str(stream)]
        assert main(balanced) == 0
        capsys.readouterr()

        # same command, same model: resumable
        assert main(balanced + ["--resume", str(stream)]) == 0
        capsys.readouterr()

        # a *different* cost model plans a (potentially) different slice
        import json

        payload = json.loads(full.read_text())
        payload["records"][0]["time_s"] = 99.0
        other = tmp_path / "other.json"
        other.write_text(json.dumps(payload))
        code = main(self.ARGS + ["--shard", "1/2", "--balance", "cost",
                                 "--cost-model", str(other),
                                 "--resume", str(stream)])
        assert code == 2
        assert "different shard plan" in capsys.readouterr().err

    def test_resume_without_balance_flag_rejected(self, tmp_path, capsys):
        full = tmp_path / "full.json"
        assert main(self.ARGS + ["--output", str(full)]) == 0
        stream = tmp_path / "s1.jsonl"
        assert main(self.ARGS + ["--shard", "1/2", "--balance", "cost",
                                 "--cost-model", str(full),
                                 "--stream-output", str(stream)]) == 0
        capsys.readouterr()
        code = main(self.ARGS + ["--shard", "1/2", "--resume", str(stream)])
        assert code == 2
        assert "different shard plan" in capsys.readouterr().err


class TestResumeGuardScope:
    ARGS = ["suite", "POW9", "CAN1072", "--algorithms", "rcm,gps",
            "--scale", "0.02", "--no-progress"]

    def test_unsharded_stream_resumable_under_any_dispatch_flags(self, tmp_path, capsys):
        """Without --shard there is no slice selection, so --balance cost /
        --cost-model on the resume only reorder dispatch and must not be
        rejected as a different plan."""
        full = tmp_path / "full.json"
        assert main(self.ARGS + ["--output", str(full)]) == 0
        stream = tmp_path / "run.jsonl"
        assert main(self.ARGS + ["--stream-output", str(stream)]) == 0
        capsys.readouterr()
        code = main(self.ARGS + ["--balance", "cost", "--cost-model", str(full),
                                 "--resume", str(stream)])
        assert code == 0
        assert "4 reused from" in capsys.readouterr().out

    def test_merge_detects_stream_by_content_not_extension(self, tmp_path):
        from repro.batch import SuiteResult

        full = tmp_path / "full.json"
        stream = tmp_path / "run.log"  # not .jsonl
        assert main(self.ARGS + ["--output", str(full),
                                 "--stream-output", str(stream)]) == 0
        merged = tmp_path / "merged.json"
        assert main(["merge", str(stream), "--output", str(merged)]) == 0
        assert SuiteResult.load(merged).to_json(include_timing=False) == \
            SuiteResult.load(full).to_json(include_timing=False)

    def test_merge_header_only_stream_reports_incomplete(self, tmp_path, capsys):
        stream = tmp_path / "dead.jsonl"
        assert main(self.ARGS + ["--stream-output", str(stream)]) == 0
        stream.write_text(stream.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        code = main(["merge", str(stream), "--output", str(tmp_path / "m.json")])
        assert code == 2
        assert "incomplete shard set" in capsys.readouterr().err


class TestTimeoutAutoAndFiedlerPolicy:
    """--timeout auto (cost-model-derived per-cell limits) and the deleted
    rank-stability stopping rule (--fiedler-policy fast, tol_policy)."""

    def test_timeout_auto_rejects_garbage(self, capsys):
        code = main(["suite", "POW9", "--algorithms", "rcm", "--scale", "0.02",
                     "--timeout", "soon"])
        assert code == 2
        assert "'auto'" in capsys.readouterr().err

    def test_timeout_auto_without_model_warns_and_runs(self, capsys):
        code = main(["suite", "POW9", "--algorithms", "rcm", "--scale", "0.02",
                     "--timeout", "auto", "--no-progress"])
        assert code == 0
        assert "only analytic-size problems" in capsys.readouterr().err

    def test_timeout_auto_kills_observed_overrunner(self, tmp_path, monkeypatch,
                                                    capsys):
        import time

        from repro.batch import CostModel
        from repro.orderings.registry import ORDERING_ALGORITHMS

        monkeypatch.setitem(ORDERING_ALGORITHMS, "sleepy",
                            lambda p: time.sleep(30))
        # the model has seen this cell run fast: estimate * 10 (floored at
        # 1 s) becomes its limit, so the hung rerun is terminated
        model = CostModel()
        model.observe("POW9", "sleepy", 0.02, time_s=0.01)
        costs = tmp_path / "costs.json"
        model.save(costs)
        start = time.monotonic()
        code = main(["suite", "POW9", "--algorithms", "rcm,sleepy",
                     "--scale", "0.02", "--timeout", "auto",
                     "--cost-model", str(costs), "--no-progress"])
        assert time.monotonic() - start < 20
        assert code == 1
        out = capsys.readouterr().out
        assert "TIMEOUT POW9/sleepy" in out

    @pytest.mark.parametrize("command", ["suite", "bench"])
    def test_fiedler_policy_flag_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--fiedler-policy", "fast"])
        assert exc.value.code == 2
        assert "--fiedler-policy" in capsys.readouterr().err

    def test_tol_policy_option_fails_its_cell(self):
        from repro.batch import run_suite

        suite = run_suite(["POW9"], ("spectral",), scale=0.02,
                          algorithm_options={"spectral": {"tol_policy": "ordering"}})
        [record] = suite.records
        assert record.status == "error"
        assert record.error["type"] == "TypeError"
        assert "tol_policy" in record.error["message"]


class TestRetiredBackendFlag:
    """The kernel backend switch is gone: every kernel runs its production
    path, and only tests substitute a reference."""

    @pytest.mark.parametrize("tier", ["numpy", "python", "numba"])
    @pytest.mark.parametrize("argv", [["suite", "POW9"], ["bench"], ["serve"]],
                             ids=lambda argv: argv[0])
    def test_backend_flag_is_rejected(self, argv, tier, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--backend", tier])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["suite", "bench", "serve"])
    def test_help_lists_no_backend(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "--backend" not in capsys.readouterr().out

    def test_suite_artifact_has_no_backend_block(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        code = main(["suite", "POW9", "--scale", "0.05", "--algorithms", "rcm",
                     "--output", str(out)])
        assert code == 0
        assert "backend" not in json.loads(out.read_text())

    @pytest.mark.parametrize("tier", ["python", "numba"])
    def test_inherited_backend_env_is_not_read(self, monkeypatch, tmp_path, capsys,
                                               tier):
        """A ``REPRO_BACKEND`` left in the environment by an older setup
        neither fails a run nor switches a kernel: the suite runs the
        production kernels and writes the artifact it writes without it."""
        from repro.batch import clear_problem_cache
        from repro.batch.results import SuiteResult
        from tests.test_kernels_reference import REFERENCES, _counted_calls

        argv = ["suite", "POW9", "--scale", "0.05", "--algorithms", "rcm,gps,sloan"]
        plain, inherited = tmp_path / "plain.json", tmp_path / "inherited.json"
        loop_kernels = REFERENCES[:4]  # the kernels the retired switch swapped
        assert main([*argv, "--output", str(plain)]) == 0
        monkeypatch.setenv("REPRO_BACKEND", tier)
        clear_problem_cache()  # so the second run searches and numbers afresh
        try:
            with _counted_calls([func for pair in loop_kernels for func in pair]) as calls:
                assert main([*argv, "--output", str(inherited)]) == 0
        finally:
            clear_problem_cache()
        for production, ref in loop_kernels:
            assert calls[production.__name__] > 0
            assert calls[ref.__name__] == 0
        assert "backend" not in json.loads(inherited.read_text())
        assert (SuiteResult.from_json(inherited.read_text()).to_json(include_timing=False)
                == SuiteResult.from_json(plain.read_text()).to_json(include_timing=False))

    @pytest.mark.parametrize("tier", ["python", "numba"])
    def test_statsz_has_no_backend_under_an_inherited_env(self, monkeypatch, tier):
        from repro.serve import OrderingServer

        monkeypatch.setenv("REPRO_BACKEND", tier)
        server = OrderingServer()
        try:
            assert "backend" not in server.statsz()
        finally:
            server.pool.shutdown()


class TestMergeAllowPartialCli:
    ARGS = ["suite", "POW9", "--algorithms", "rcm,gps", "--scale", "0.02",
            "--no-progress"]

    def _torn_stream(self, tmp_path):
        stream = tmp_path / "run.jsonl"
        assert main(self.ARGS + ["--stream-output", str(stream)]) == 0
        lines = stream.read_text().splitlines()
        # Tear the *first* record: mid-file damage, which the strict reader
        # rejects as corruption (a torn final line would merely resume).
        lines[1] = lines[1][:25]
        stream.write_text("\n".join(lines) + "\n")
        return stream

    def test_torn_stream_rejected_by_default(self, tmp_path, capsys):
        stream = self._torn_stream(tmp_path)
        capsys.readouterr()
        code = main(["merge", str(stream),
                     "--output", str(tmp_path / "merged.json")])
        assert code == 2
        assert "not a valid stream file" in capsys.readouterr().err

    def test_allow_partial_salvages_and_warns(self, tmp_path, capsys):
        import json

        stream = self._torn_stream(tmp_path)
        merged_path = tmp_path / "merged.json"
        capsys.readouterr()
        code = main(["merge", str(stream), "--allow-partial",
                     "--output", str(merged_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "dropped 1 damaged line(s)" in captured.err
        assert "merged artifact is partial" in captured.err
        assert "dropped_lines=1" in captured.err
        assert "missing_cells=1" in captured.err
        payload = json.loads(merged_path.read_text())
        assert payload["partial"] == {"dropped_lines": 1, "missing_cells": 1}
        assert len(payload["records"]) == 1


class TestChaosCli:
    def test_invalid_fault_spec_errors(self, capsys):
        code = main(["chaos", "suite", "POW9",
                     "--inject-faults", "definitely-not-a-spec"])
        assert code == 2
        assert "--inject-faults" in capsys.readouterr().err

    def test_chaos_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos"])


class TestOrderRetriesCli:
    def test_retries_against_dead_server_exhaust_and_fail(self, capsys):
        # Nothing listens on the port: every attempt is connection-refused.
        code = main(["order", "problem:POW9@0.02", "--algorithm", "rcm",
                     "--server", "http://127.0.0.1:9",
                     "--retries", "1", "--retry-backoff", "0.01"])
        assert code != 0
