"""``repro cache`` and the ``--store`` plumbing on suite/bench.

The flagship contract: running the same suite twice against one cache dir
produces byte-identical canonical artifacts, with the second pass reporting
a nonzero hit count — the same check CI runs.
"""

from __future__ import annotations

import json

import pytest

from repro.batch import SuiteResult
from repro.batch.engine import clear_problem_cache
from repro.cli import main
from repro.collections.registry import load_problem
from repro.serve.api import parse_order_request
from repro.store import ArtifactStore, reset_default_store


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """Run without an ambient store, and leave none behind.

    ``--store`` exports ``REPRO_STORE``.  ``delenv`` on an absent variable
    records nothing to restore, so ``setenv`` first records the variable's
    state before the test; undoing it drops the export — otherwise later
    tests would load cached patterns from this test's directory.
    """
    monkeypatch.setenv("REPRO_STORE", "")
    monkeypatch.delenv("REPRO_STORE")
    reset_default_store()
    clear_problem_cache()
    yield
    reset_default_store()
    clear_problem_cache()


def _run_suite(tmp_path, out_name, store=None):
    args = ["suite", "POW9", "--algorithms", "spectral,rcm", "--scale", "0.05",
            "--jobs", "1", "--no-progress",
            "--output", str(tmp_path / out_name)]
    if store is not None:
        args += ["--store", str(store)]
    return main(args)


class TestSuiteWithStore:
    def test_second_pass_hits_and_byte_identical(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert _run_suite(tmp_path, "cold.json") == 0
        cold_err = capsys.readouterr().err
        assert "store" not in cold_err  # no stats line without a store

        clear_problem_cache()
        reset_default_store()
        assert _run_suite(tmp_path, "first.json", store=cache) == 0
        first_out = capsys.readouterr().out
        assert "0 hit(s)" in first_out

        clear_problem_cache()
        reset_default_store()
        assert _run_suite(tmp_path, "second.json", store=cache) == 0
        second_out = capsys.readouterr().out
        stats = [line for line in second_out.splitlines() if line.startswith("store ")]
        assert stats, second_out
        hits = int(stats[0].split(":")[1].split("hit")[0].strip())
        assert hits > 0

        canonical = [
            SuiteResult.load(tmp_path / name).to_json(include_timing=False)
            for name in ("cold.json", "first.json", "second.json")
        ]
        assert canonical[0] == canonical[1] == canonical[2]

    def test_store_flag_reaches_workers_via_env(self, tmp_path, monkeypatch):
        import os

        cache = tmp_path / "cache"
        assert _run_suite(tmp_path, "out.json", store=cache) == 0
        # --store is exported so spawned suite workers inherit the same dir
        assert os.environ.get("REPRO_STORE") == str(cache)


class TestWorkerStoreStats:
    @pytest.mark.parametrize("extra", [(), ("--timeout", "60")],
                             ids=["pool", "timeout"])
    def test_jobs_2_stats_line_counts_worker_traffic(self, tmp_path, extra):
        """Workers' store traffic reaches the stats line at ``--jobs 2``.

        Runs the CLI in fresh interpreters, as CI's ``store`` job does, so
        each pass prints only its own traffic.
        """
        import os
        import re
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("REPRO_STORE", None)
        args = [sys.executable, "-m", "repro", "suite", "POW9", "CAN1072",
                "--algorithms", "spectral,hybrid,rcm", "--scale", "0.05",
                "--jobs", "2", "--store", str(tmp_path / "cache"),
                "--no-progress", *extra]
        counts = []
        for name in ("cold", "warm"):
            out = subprocess.run(args + ["--output", str(tmp_path / f"{name}.json")],
                                 env=env, capture_output=True, text=True,
                                 check=True).stdout
            match = re.search(r"(\d+) hit\(s\), (\d+) miss\(es\), (\d+) write", out)
            assert match, out
            counts.append(tuple(int(group) for group in match.groups()))
        (_, cold_misses, cold_writes), (warm_hits, _, warm_writes) = counts
        assert cold_misses > 0 and cold_writes > 0
        assert warm_hits > 0 and warm_writes == 0


class TestCacheCommand:
    def _populate(self, tmp_path):
        cache = tmp_path / "cache"
        assert _run_suite(tmp_path, "seed.json", store=cache) == 0
        return cache

    def test_requires_a_store(self, capsys):
        code = main(["cache", "info"])
        assert code == 2
        assert "no store configured" in capsys.readouterr().err

    def test_env_var_configures_the_store(self, tmp_path, monkeypatch, capsys):
        cache = self._populate(tmp_path)
        capsys.readouterr()
        monkeypatch.setenv("REPRO_STORE", str(cache))
        reset_default_store()
        assert main(["cache", "info"]) == 0
        assert "entries" in capsys.readouterr().out

    def test_ls_lists_entries(self, tmp_path, capsys):
        cache = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "ls", "--store", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "KIND" in out
        kinds = {line.split()[1] for line in out.splitlines()[1:-1]}
        assert kinds == {"pattern", "fiedler"}  # POW9@0.05 never coarsens

    def test_info_json_is_machine_readable(self, tmp_path, capsys):
        cache = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "info", "--json", "--store", str(cache)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["entries"] > 0
        assert info["bytes"] > 0
        assert "fiedler" in info["kinds"]

    def test_prewarm_then_suite_hits(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code = main(["cache", "prewarm", "POW9", "--scale", "0.05",
                     "--store", str(cache)])
        assert code == 0
        out = capsys.readouterr().out
        assert "POW9" in out
        store = ArtifactStore(cache)
        kinds = {row["kind"] for row in store.entries()}
        assert kinds == {"pattern"}

        reset_default_store()
        clear_problem_cache()
        assert _run_suite(tmp_path, "out.json", store=cache) == 0
        suite_out = capsys.readouterr().out
        stats = [line for line in suite_out.splitlines() if line.startswith("store ")]
        hits = int(stats[0].split(":")[1].split("hit")[0].strip())
        assert hits > 0

    def test_default_scale_addresses_the_resolved_scale(self, tmp_path,
                                                         monkeypatch, capsys):
        """A run at the default scale is not served another default's pattern,
        and ``None`` shares the entry (and the serve job key) of the explicit
        scale it resolves to."""
        cache = tmp_path / "cache"
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert main(["cache", "prewarm", "POW9", "--store", str(cache)]) == 0
        assert "n=1723" in capsys.readouterr().out  # the 0.125 default

        def suite(name, *extra):
            reset_default_store()
            clear_problem_cache()
            assert main(["suite", "POW9", "--algorithms", "rcm", "--jobs", "1",
                         "--no-progress", "--store", str(cache),
                         "--output", str(tmp_path / name), *extra]) == 0
            stats = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("store ")]
            return SuiteResult.load(tmp_path / name).records[0], stats[0]

        record, stats = suite("explicit.json", "--scale", "0.125")
        assert record.n == 1723 and " 1 hit(s), 0 miss(es), 0 write(s)" in stats
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        record, _stats = suite("env.json")
        assert record.n == load_problem("POW9", scale=0.05)[0].n
        assert len(ArtifactStore(cache).entries()) == 2
        request = {"problem": "POW9", "algorithm": "rcm"}
        assert (parse_order_request(request).key
                == parse_order_request({**request, "scale": 0.05}).key)

    def test_prewarm_unknown_problem_fails(self, tmp_path, capsys):
        code = main(["cache", "prewarm", "NOSUCH", "--store", str(tmp_path / "c")])
        assert code == 1
        captured = capsys.readouterr()
        assert "NOSUCH" in captured.out + captured.err

    def test_clear_empties_the_store(self, tmp_path, capsys):
        cache = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "clear", "--store", str(cache)]) == 0
        assert "cleared" in capsys.readouterr().out
        assert ArtifactStore(cache).entries() == []
        # idempotent
        assert main(["cache", "clear", "--store", str(cache)]) == 0


class TestBenchWithStore:
    def test_bench_accepts_store_and_reports_stats(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code = main(["bench", "--quick", "--filter", "fiedler",
                     "--no-suite", "--repeats", "1",
                     "--store", str(cache),
                     "--output", str(tmp_path / "bench.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert any(line.startswith("store ") for line in out.splitlines())
        assert (tmp_path / "bench.json").exists()
