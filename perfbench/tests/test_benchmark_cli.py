"""``BENCHMARK.json`` matches the catalog, and every workload runs in smoke mode."""

import json
import shutil
import subprocess
import sys

import pytest

from catalog import END_TO_END, PER_LAYER
from conftest import BENCH, ROOT


def test_benchmark_json_lists_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == ["paper-suite", "powerlaw", "serve-mix"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [
    ("paper-suite", "0"), ("powerlaw", "0"), ("serve-mix", "0"),
    ("paper-suite", "1"), ("serve-mix", "1"),
])
def test_smoke_run_reports_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    catalog = PER_LAYER if trace == "1" else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(catalog)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "serve-mix":
        assert result["metrics"]["store.hits"]["value"] > 0
        assert result["metrics"]["store.writes"]["value"] > 0
    else:
        assert result["metrics"]["graph.breadth_first_levels.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "paper-suite", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
