"""End-to-end CLI tests that invoke ``python -m repro`` as real subprocesses.

The in-process tests (``tests/test_cli.py``) call ``repro.cli.main``
directly; these run the actual entry point the docs advertise — fresh
interpreter, real exit codes, real SIGKILL — at tiny scales.  They are the
executable form of the workflows in ``docs/running.md``, and CI runs them
in the docs job as well as the normal test matrix.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
ARGS = ["suite", "POW9", "CAN1072", "--algorithms", "rcm,gps",
        "--scale", "0.02", "--no-progress"]


def repro(*args, timeout: float = 120.0, cwd=None) -> subprocess.CompletedProcess:
    """Run ``python -m repro <args>`` with the repo's src on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=timeout, env=env, cwd=cwd,
    )


def canonical(path) -> str:
    """Canonical (timing-free) JSON of a saved artifact, for byte comparison."""
    from repro.batch import SuiteResult

    return SuiteResult.load(path).to_json(include_timing=False)


class TestSuiteSubprocess:
    def test_suite_runs_and_writes_artifact(self, tmp_path):
        out = tmp_path / "results.json"
        proc = repro(*ARGS, "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "4 task(s)" in proc.stdout
        payload = json.loads(out.read_text())
        assert payload["engine"] == "repro.batch"
        assert len(payload["records"]) == 4

    def test_unknown_algorithm_exits_2(self):
        proc = repro("suite", "POW9", "--algorithms", "rcm,amd", "--scale", "0.02")
        assert proc.returncode == 2
        assert "unknown algorithm" in proc.stderr

    def test_baseline_match_then_drift(self, tmp_path):
        out = tmp_path / "results.json"
        assert repro(*ARGS, "--output", str(out)).returncode == 0

        proc = repro(*ARGS, "--baseline", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "matches baseline" in proc.stdout

        payload = json.loads(out.read_text())
        payload["records"][0]["metrics"]["envelope_size"] += 1
        out.write_text(json.dumps(payload))
        proc = repro(*ARGS, "--baseline", str(out))
        assert proc.returncode == 1
        assert "difference(s) vs baseline" in proc.stderr
        assert "envelope_size" in proc.stderr

    def test_cost_balanced_shards_merge_byte_identically(self, tmp_path):
        full = tmp_path / "full.json"
        assert repro(*ARGS, "--output", str(full)).returncode == 0
        paths = []
        for k in (1, 2):
            path = tmp_path / f"shard{k}.json"
            proc = repro(*ARGS, "--shard", f"{k}/2", "--balance", "cost",
                         "--cost-model", str(full), "--output", str(path))
            assert proc.returncode == 0, proc.stderr
            assert "cost balance" in proc.stderr
            assert "estimated makespan" in proc.stderr
            paths.append(str(path))
        merged = tmp_path / "merged.json"
        proc = repro("merge", *paths, "--output", str(merged))
        assert proc.returncode == 0, proc.stderr
        assert canonical(merged) == canonical(full)


class TestMergeSubprocess:
    def test_merge_incomplete_exits_2(self, tmp_path):
        shard = tmp_path / "shard1.json"
        assert repro(*ARGS, "--shard", "1/2", "--output", str(shard)).returncode == 0
        proc = repro("merge", str(shard), "--output", str(tmp_path / "m.json"))
        assert proc.returncode == 2
        assert "incomplete shard set" in proc.stderr

    def test_merge_accepts_stream_files(self, tmp_path):
        full = tmp_path / "full.json"
        stream = tmp_path / "run.jsonl"
        assert repro(*ARGS, "--output", str(full),
                     "--stream-output", str(stream)).returncode == 0
        merged = tmp_path / "merged.json"
        proc = repro("merge", str(stream), "--output", str(merged))
        assert proc.returncode == 0, proc.stderr
        assert canonical(merged) == canonical(full)


class TestResumeAfterSigkill:
    def test_stream_resume_after_sigkill(self, tmp_path):
        """Kill a streaming run mid-flight with SIGKILL, resume it, and get
        the byte-identical artifact of an uninterrupted run."""
        full = tmp_path / "full.json"
        assert repro(*ARGS, "--output", str(full)).returncode == 0

        stream = tmp_path / "run.jsonl"
        resumed_out = tmp_path / "resumed.json"
        stream_args = ARGS + ["--stream-output", str(stream),
                              "--resume", str(stream)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *stream_args],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        try:
            # Wait for at least one streamed record, then kill -9.  If the
            # run wins the race and exits first, the resume below still has
            # to reuse the complete stream — both paths are valid outcomes.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and proc.poll() is None:
                if stream.exists() and stream.read_text().count('"kind": "record"') >= 1:
                    break
                time.sleep(0.01)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60.0)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.kill()

        resumed = repro(*stream_args, "--output", str(resumed_out))
        assert resumed.returncode == 0, resumed.stderr
        assert canonical(resumed_out) == canonical(full)
        # the stream is complete again: one header + one record per cell
        lines = [json.loads(line) for line in stream.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert sum(1 for line in lines if line["kind"] == "record") >= 4


class TestBenchSubprocess:
    def test_bench_quick_filtered_writes_artifact_and_cost_model(self, tmp_path):
        artifact = tmp_path / "bench.json"
        costs = tmp_path / "costs.json"
        proc = repro("bench", "--quick", "--repeats", "1",
                     "--filter", "orderings/rcm", "--output", str(artifact),
                     "--export-cost-model", str(costs), timeout=300.0)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(artifact.read_text())
        assert payload["kind"] == "repro-bench"
        assert all("orderings/rcm" in k["name"] for k in payload["kernels"])
        model = json.loads(costs.read_text())
        assert model["kind"] == "repro-cost-model"
        assert len(model["entries"]) == len(payload["kernels"])

    def test_bench_cost_model_feeds_suite_balance(self, tmp_path):
        """The exported model is accepted by repro suite --balance cost."""
        costs = tmp_path / "costs.json"
        artifact = tmp_path / "bench.json"
        assert repro("bench", "--quick", "--repeats", "1",
                     "--filter", "orderings/rcm", "--output", str(artifact),
                     "--export-cost-model", str(costs),
                     timeout=300.0).returncode == 0
        proc = repro(*ARGS, "--shard", "1/2", "--balance", "cost",
                     "--cost-model", str(costs),
                     "--output", str(tmp_path / "s1.json"))
        assert proc.returncode == 0, proc.stderr
        assert "cost balance" in proc.stderr


class TestRetrySubprocess:
    def test_retry_timeouts_without_timeout_exits_2(self):
        proc = repro("suite", "POW9", "--algorithms", "rcm", "--scale", "0.02",
                     "--retry-timeouts", "1")
        assert proc.returncode == 2
        assert "--retry-timeouts needs --timeout" in proc.stderr

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_serve_timeout_exits_2_before_listening(self, value):
        proc = repro("serve", "--port", "0", "--timeout", value, timeout=60)
        assert proc.returncode == 2
        assert "timeout must be positive and finite" in proc.stderr
        assert "listening" not in proc.stdout

    def test_generous_timeout_with_retries_passes_through(self, tmp_path):
        """Retry flags on a suite where nothing times out are a no-op."""
        out = tmp_path / "results.json"
        proc = repro(*ARGS, "--timeout", "120", "--retry-timeouts", "2",
                     "--timeout-growth", "3.0", "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert [r["status"] for r in payload["records"]] == ["ok"] * 4


class TestOrderSubprocess:
    """The ``repro order`` thin client — in-process fallback and server mode."""

    def test_order_local_json(self):
        proc = repro("order", "problem:POW9@0.02", "--algorithm", "rcm",
                     "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["record"]["status"] == "ok"
        assert payload["record"]["problem"] == "POW9"
        assert sorted(payload["permutation"]) == \
            list(range(payload["record"]["n"]))

    def test_order_human_summary_and_permutation_file(self, tmp_path):
        perm = tmp_path / "perm.txt"
        proc = repro("order", "problem:POW9@0.02", "--algorithm", "gps",
                     "--output-permutation", str(perm))
        assert proc.returncode == 0, proc.stderr
        assert "envelope size" in proc.stdout
        assert perm.exists() and perm.read_text().strip()

    def test_order_unknown_problem_exits_2(self):
        proc = repro("order", "problem:NOSUCH", "--algorithm", "rcm")
        assert proc.returncode == 2
        assert "unknown problem" in proc.stderr

    def test_order_server_matches_local_byte_for_byte(self):
        from tests.serve_harness import ServerProcess

        local = repro("order", "problem:POW9@0.02", "--algorithm", "rcm",
                      "--json")
        assert local.returncode == 0, local.stderr
        with ServerProcess("--workers", "1") as server:
            served = repro("order", "problem:POW9@0.02", "--algorithm", "rcm",
                           "--server", server.url, "--json")
        assert served.returncode == 0, served.stderr
        a, b = json.loads(local.stdout), json.loads(served.stdout)
        a["record"].pop("time_s"), b["record"].pop("time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_order_file_input_round_trips_inline(self, tmp_path):
        from tests.serve_harness import ServerProcess

        matrix = tmp_path / "small.mtx"
        assert repro("reorder", "problem:POW9@0.02", "--algorithm", "identity",
                     "--output-matrix", str(matrix)).returncode == 0
        with ServerProcess("--workers", "1") as server:
            served = repro("order", str(matrix), "--algorithm", "rcm",
                           "--server", server.url, "--json")
            local = repro("order", str(matrix), "--algorithm", "rcm", "--json")
        assert served.returncode == 0, served.stderr
        assert local.returncode == 0, local.stderr
        a, b = json.loads(local.stdout), json.loads(served.stdout)
        assert a["record"]["problem"].startswith("inline:")
        a["record"].pop("time_s"), b["record"].pop("time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_order_unreachable_server_exits_2(self):
        proc = repro("order", "problem:POW9@0.02", "--algorithm", "rcm",
                     "--server", "http://127.0.0.1:9", "--client-timeout", "2")
        assert proc.returncode == 2
        assert "cannot reach server" in proc.stderr
