"""Golden regression tests for the batch engine's structured results.

``tests/golden/suite_small.json`` is the canonical (timing-free) JSON
artifact of a suite run over three tiny registered problems with the paper's
four algorithms at scale 0.02.  A fresh run — serial, over two worker
processes, or on the loop reference kernels (the ``python`` backend tier) —
must reproduce it *byte for byte*: any drift in envelope size,
bandwidth, frontwidth statistics, seeding or the schema itself fails here.

``tests/golden/suite_random.json`` pins the same contract for the five
random-graph families (``RANDOM/*``) at scale 0.0003 — one cell per family
per paper algorithm — so generator drift (a changed rng draw order, a
different component trim) fails loudly rather than silently changing every
downstream benchmark.

Regenerate (only after an intentional algorithm/schema change) with::

    PYTHONPATH=src python -c "
    from pathlib import Path
    from repro.batch import run_suite
    suite = run_suite(['CAN1072', 'DWT2680', 'POW9'], scale=0.02, base_seed=0)
    Path('tests/golden/suite_small.json').write_text(suite.to_json(include_timing=False))"

    PYTHONPATH=src python -c "
    from pathlib import Path
    from repro.batch import run_suite
    from repro.collections.registry import available_problems
    problems = available_problems('random', paper_order=True)
    suite = run_suite(problems, scale=0.0003, base_seed=0)
    Path('tests/golden/suite_random.json').write_text(suite.to_json(include_timing=False))"
"""

from pathlib import Path

import pytest

from repro import backends
from repro.batch import SuiteResult, merge_results, run_suite
from repro.orderings.registry import PAPER_ALGORITHMS

GOLDEN_PATH = Path(__file__).parent / "golden" / "suite_small.json"
PROBLEMS = ("CAN1072", "DWT2680", "POW9")
SCALE = 0.02


def _fresh_suite(n_jobs: int, shard: tuple | None = None) -> SuiteResult:
    return run_suite(PROBLEMS, PAPER_ALGORITHMS, scale=SCALE, n_jobs=n_jobs,
                     base_seed=0, shard=shard)


def _on_loop_kernels(run):
    """Run a suite with every dispatched kernel on the ``python`` tier: the
    loop kernels every vectorized path is held to."""
    backends.set_backend("python")
    try:
        return run()
    finally:
        backends.set_backend(None)


@pytest.fixture(scope="module")
def golden_text() -> str:
    return GOLDEN_PATH.read_text()


def test_golden_file_is_current_schema(golden_text):
    suite = SuiteResult.from_json(golden_text)
    assert suite.problems == list(PROBLEMS)
    assert suite.algorithms == list(PAPER_ALGORITHMS)
    assert len(suite.records) == len(PROBLEMS) * len(PAPER_ALGORITHMS)
    assert suite.failures == []
    # timing fields were stripped when the golden was written
    assert all(record.time_s == 0.0 for record in suite.records)


def test_serial_run_matches_golden_byte_for_byte(golden_text):
    assert _fresh_suite(n_jobs=1).to_json(include_timing=False) == golden_text


def test_two_worker_run_matches_golden_byte_for_byte(golden_text):
    assert _fresh_suite(n_jobs=2).to_json(include_timing=False) == golden_text


def test_loop_kernel_run_matches_golden_byte_for_byte(golden_text):
    suite = _on_loop_kernels(lambda: _fresh_suite(n_jobs=1))
    assert suite.to_json(include_timing=False) == golden_text


def test_fresh_run_diffs_clean_against_golden(golden_text):
    golden = SuiteResult.from_json(golden_text)
    assert golden.diff(_fresh_suite(n_jobs=1)) == []


def test_three_way_shard_merge_matches_golden_byte_for_byte(golden_text):
    """The distribution acceptance criterion: --shard 1/3 + 2/3 + 3/3,
    merged, is byte-identical in canonical form to the single-machine run."""
    shards = [_fresh_suite(n_jobs=1, shard=(k, 3)) for k in (1, 2, 3)]
    assert sum(len(shard.records) for shard in shards) == len(PROBLEMS) * len(PAPER_ALGORITHMS)
    merged = merge_results(shards)
    assert merged.to_json(include_timing=False) == golden_text


class TestRandomFamiliesGolden:
    """Same golden contract over the enlarged problem set: one pinned cell
    per random-graph family per paper algorithm."""

    RANDOM_GOLDEN_PATH = Path(__file__).parent / "golden" / "suite_random.json"
    RANDOM_PROBLEMS = ("RANDOM/BA", "RANDOM/GNP", "RANDOM/GNM", "RANDOM/WS",
                       "RANDOM/RMAT")
    RANDOM_SCALE = 0.0003

    @pytest.fixture(scope="class")
    def golden_random_text(self) -> str:
        return self.RANDOM_GOLDEN_PATH.read_text()

    def _fresh(self, n_jobs: int, shard: tuple | None = None) -> SuiteResult:
        return run_suite(self.RANDOM_PROBLEMS, PAPER_ALGORITHMS,
                         scale=self.RANDOM_SCALE, n_jobs=n_jobs,
                         base_seed=0, shard=shard)

    def test_golden_file_is_current_schema(self, golden_random_text):
        suite = SuiteResult.from_json(golden_random_text)
        assert suite.problems == list(self.RANDOM_PROBLEMS)
        assert suite.algorithms == list(PAPER_ALGORITHMS)
        assert len(suite.records) == len(self.RANDOM_PROBLEMS) * len(PAPER_ALGORITHMS)
        assert suite.failures == []
        assert all(record.status == "ok" for record in suite.records)

    def test_serial_run_matches_golden_byte_for_byte(self, golden_random_text):
        assert self._fresh(n_jobs=1).to_json(include_timing=False) == golden_random_text

    def test_two_worker_run_matches_golden_byte_for_byte(self, golden_random_text):
        assert self._fresh(n_jobs=2).to_json(include_timing=False) == golden_random_text

    def test_loop_kernel_run_matches_golden_byte_for_byte(self, golden_random_text):
        suite = _on_loop_kernels(lambda: self._fresh(n_jobs=1))
        assert suite.to_json(include_timing=False) == golden_random_text

    def test_three_way_shard_merge_matches_golden_byte_for_byte(self, golden_random_text):
        shards = [self._fresh(n_jobs=1, shard=(k, 3)) for k in (1, 2, 3)]
        total = len(self.RANDOM_PROBLEMS) * len(PAPER_ALGORITHMS)
        assert sum(len(shard.records) for shard in shards) == total
        merged = merge_results(shards)
        assert merged.to_json(include_timing=False) == golden_random_text
