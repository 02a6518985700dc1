"""Scale-stress tier: the random-graph families at paper-exceeding sizes.

The paper's largest matrix (BARTH5) has n = 15,606; ROADMAP item 4 asks what
happens at n ~ 10^5-10^6, where the spectral pipeline's cost profile changes
qualitatively.  This tier drives the batch engine there through the
``RANDOM/*`` families, whose analytic ``expected_nnz`` makes ``--timeout
auto`` meaningful even for never-before-seen cells.

Two layers:

* **Smoke tier** (always on; the CI ``scale`` job runs exactly this file
  with ``-m "not slow"``): reduced-n suites under the auto-timeout policy,
  checking the *contract* — every ``RANDOM/*`` cell gets a finite limit,
  every record ends ``ok`` or a structured ``timeout``, never anything else.
* **Slow tier** (``@pytest.mark.slow``): one cell per family at
  n >= 10^5 (scale 0.125 of BASE_N = 2^20), plus the acceptance-criterion
  cell — Barabási-Albert at scale 1.0, n = 2^20 ~ 10^6.  Every limit is
  additionally hard-capped, so even a pathological regression turns into a
  timeout record within minutes, never a hung test run.

Timeouts here are enforced by worker processes that the engine kills at
the deadline (see ``repro.batch.workers``), so "never a hang" holds even
if an ordering kernel livelocks.
"""

import pytest

from repro.batch import CostModel, auto_timeout, run_suite
from repro.batch.tasks import build_tasks
from repro.collections.registry import available_problems

RANDOM_FAMILIES = tuple(available_problems("random", paper_order=True))

#: Scale 0.125 of BASE_N = 2^20 -> n = 131,072 per family (>= the 10^5 floor
#: the stress tier promises).  The acceptance cell runs BA at scale 1.0.
STRESS_SCALE = 0.125
FULL_SCALE = 1.0

#: Hard wall-clock ceilings layered over the auto policy.  The analytic
#: estimate normally completes these cells far sooner; the cap only matters
#: when a perf regression would otherwise stall the whole test session.
STRESS_CAP_S = 120.0
FULL_CAP_S = 180.0


def _calibrated_model(algorithms=("rcm",), scale: float = 0.002) -> CostModel:
    """Cost model fitted from one cheap reduced-n run over the families."""
    calibration = run_suite(RANDOM_FAMILIES, algorithms, scale=scale,
                            base_seed=0, keep_orderings=False)
    assert all(record.status == "ok" for record in calibration.records)
    model = CostModel()
    model.observe_suite(calibration)
    return model


def _capped(policy, cap: float):
    """The auto policy with a hard ceiling — bounded even if estimates blow up."""

    def timeout_for(task):
        limit = policy(task)
        return cap if limit is None else min(limit, cap)

    return timeout_for


def _assert_structured(record):
    """Every stress record is ``ok`` or a structured timeout — nothing else."""
    assert record.status in ("ok", "timeout"), (
        f"{record.problem}/{record.algorithm}: unexpected status "
        f"{record.status!r} ({record.error})"
    )
    if record.status == "timeout":
        assert record.error["type"] == "TaskTimeout"
        assert "timeout" in record.error["message"]
        assert record.time_s > 0


class TestAutoTimeoutContract:
    """The policy piece the stress tier stands on, checked at toy sizes."""

    def test_every_random_cell_gets_a_finite_limit(self):
        # Even a *blank* cost model must bound RANDOM/* cells: their specs
        # carry analytic sizes, so there is never an excuse for no limit.
        policy = auto_timeout(CostModel())
        tasks = build_tasks(RANDOM_FAMILIES, ("rcm", "gk"), scale=STRESS_SCALE)
        for task in tasks:
            limit = policy(task)
            assert limit is not None and 0 < limit < float("inf"), (
                f"{task.problem}/{task.algorithm} got limit {limit!r}"
            )

    def test_calibration_tightens_the_limits(self):
        model = _calibrated_model()
        blank, fitted = auto_timeout(CostModel()), auto_timeout(model)
        tasks = build_tasks(RANDOM_FAMILIES, ("rcm",), scale=STRESS_SCALE)
        # A fitted rate replaces the default rate; limits stay finite and
        # positive either way (magnitudes shift with the measured machine).
        for task in tasks:
            assert 0 < fitted(task) < float("inf")
            assert 0 < blank(task) < float("inf")

    def test_timeout_records_are_structured_not_hangs(self):
        # Force a timeout deliberately: a sub-millisecond cap on a real cell.
        suite = run_suite(("RANDOM/BA",), ("rcm",), scale=0.01,
                          timeout=lambda task: 0.001, base_seed=0)
        (record,) = suite.records
        assert record.status == "timeout"
        _assert_structured(record)
        assert suite.timeouts == [record]


class TestSmokeScaleTier:
    """Reduced-n end-to-end pass — the CI ``scale`` job's workhorse."""

    SMOKE_SCALE = 0.01  # n = 10,486 per family: quick, but past toy sizes

    def test_families_complete_under_auto_timeout(self):
        # Calibrate every algorithm the suite runs: fitted on RCM alone, the
        # GK cells got RCM's ~1.5 s limit, which GK on RANDOM/GNM (1.1-1.6 s
        # on a shared 2-CPU host) sometimes overran.
        policy = auto_timeout(_calibrated_model(("rcm", "gk")))
        suite = run_suite(RANDOM_FAMILIES, ("rcm", "gk"), scale=self.SMOKE_SCALE,
                          timeout=_capped(policy, STRESS_CAP_S),
                          base_seed=0, keep_orderings=False)
        assert len(suite.records) == 2 * len(RANDOM_FAMILIES)
        for record in suite.records:
            _assert_structured(record)
        # at this size every cell should actually finish, not merely time out
        assert all(record.status == "ok" for record in suite.records)


@pytest.mark.slow
class TestStressScaleTier:
    """The real thing: n >= 10^5 per family, BA at n = 2^20 ~ 10^6."""

    def test_each_family_at_1e5_completes_or_times_out(self):
        policy = auto_timeout(_calibrated_model())
        suite = run_suite(RANDOM_FAMILIES, ("rcm",), scale=STRESS_SCALE,
                          timeout=_capped(policy, STRESS_CAP_S),
                          n_jobs=2, base_seed=0, keep_orderings=False)
        assert len(suite.records) == len(RANDOM_FAMILIES)
        for record in suite.records:
            _assert_structured(record)
        # the suite's structured failure channels stay clean either way
        assert suite.failures == []

    def test_ba_at_1e6_acceptance_cell(self):
        """ISSUE acceptance criterion: the BA cell at n = 10^6 completes
        under the auto policy or yields a structured timeout record —
        never a hang (the hard cap bounds even a livelocked kernel)."""
        policy = auto_timeout(_calibrated_model())
        suite = run_suite(("RANDOM/BA",), ("rcm",), scale=FULL_SCALE,
                          timeout=_capped(policy, FULL_CAP_S),
                          base_seed=0, keep_orderings=False)
        (record,) = suite.records
        _assert_structured(record)
        if record.status == "ok":
            assert record.n >= 1_000_000
            assert record.time_s < FULL_CAP_S
