"""Cost-aware scheduling of the batch suite — the brain behind
``repro suite --balance cost``.

The paper's ``{problems} x {algorithms}`` cross-product has wildly uneven
per-cell cost: a spectral or multilevel cell can dominate an RCM cell by
orders of magnitude, so the round-robin ``--shard K/N`` split leaves
machines idle while one shard grinds through the expensive cells.  This
module fixes that with two cooperating pieces:

:class:`CostModel`
    A persistent per-cell cost table fit from prior suite results, JSONL
    streams or ``repro bench`` artifacts, keyed by ``(problem, algorithm,
    scale)``.  Cells never observed before fall back to an
    ``n * nnz``-based estimate: per-algorithm cost rates (seconds per
    ``n * nnz``) are fit from whatever *was* observed, and problem sizes
    come from observed records or from the registry's paper sizes scaled
    to the requested surrogate scale.

:func:`plan_shards`
    A greedy LPT (longest processing time first) shard planner.  Tasks are
    assigned, most expensive first, to the currently least-loaded shard.
    The plan is compared against the round-robin split on estimated
    makespan and the better of the two is kept, so a cost-balanced plan is
    **never estimated worse than round-robin** — the property the
    scheduler's tests pin for randomized cost tables.

Scheduling never changes any result: per-task seeds depend only on
``(base_seed, problem, algorithm)``, and :func:`repro.batch.engine.run_suite`
re-sorts records into canonical task order, so a cost-balanced sharded run
merges byte-identically (canonical form) with a round-robin or serial run.

Determinism: the plan is a pure function of the task list and the cost
table.  ``N`` machines given the same specification and the *same cost
model file* compute the same plan and run disjoint slices — exactly like
round-robin sharding, no coordination needed.

>>> from repro.batch.tasks import build_tasks
>>> tasks = build_tasks(["POW9", "CAN1072"], ("rcm", "spectral"), scale=0.02)
>>> model = CostModel()
>>> model.observe("POW9", "rcm", 0.02, time_s=0.004, n=59, nnz=151)
>>> plan = plan_shards(tasks, 2, model)
>>> sorted(t.index for shard in plan.shards for t in shard) == [0, 1, 2, 3]
True
>>> plan.makespan <= plan.round_robin_makespan
True
"""

from __future__ import annotations

import hashlib
import heapq
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

from repro.batch.results import SuiteResult
from repro.batch.tasks import BatchTask, shard_tasks

__all__ = [
    "AUTO_TIMEOUT_FLOOR_S",
    "AUTO_TIMEOUT_SAFETY",
    "COST_MODEL_SCHEMA_VERSION",
    "CostModel",
    "ShardPlan",
    "auto_timeout",
    "order_longest_first",
    "plan_shards",
]

#: Version of the cost-model JSON written by :meth:`CostModel.save`.
COST_MODEL_SCHEMA_VERSION = 1

_KIND = "repro-cost-model"

#: Cost rate (seconds per unit of ``n * nnz``) assumed when *nothing* was
#: ever observed.  The absolute value is irrelevant for balancing — only
#: ratios between cells matter — but it must be fixed for determinism.
_DEFAULT_RATE_S = 5e-8

#: Floor on every estimate so zero-cost tables still order deterministically.
_MIN_ESTIMATE_S = 1e-9

#: ``--timeout auto``: a cell's limit is ``estimate * safety``, floored at
#: one second so micro-cells are not killed by scheduler jitter.
AUTO_TIMEOUT_SAFETY = 10.0
AUTO_TIMEOUT_FLOOR_S = 1.0


def _scale_key(scale) -> float | None:
    return None if scale is None else float(scale)


@dataclass(frozen=True)
class _Observation:
    """One observed (or lower-bounded) cell cost."""

    problem: str
    algorithm: str
    scale: float | None
    time_s: float
    n: int = 0
    nnz: int = 0


class CostModel:
    """Per-cell cost table with an ``n * nnz`` fallback estimator.

    Observations accumulate via :meth:`observe` / :meth:`observe_suite` /
    :meth:`observe_bench`; :meth:`estimate` answers queries for *any* cell,
    seen or unseen.  The model round-trips through JSON
    (:meth:`save` / :meth:`load`) so one machine's timings can balance the
    next run's shards, and :meth:`from_file` additionally accepts suite
    artifacts, JSONL streams and bench artifacts directly.
    """

    def __init__(self, observations=()):
        self._observations: list[_Observation] = []
        # Incremental indexes so estimate() is a few dict lookups plus a
        # median over a small bucket, not a scan of the whole table —
        # plan_shards and the dispatcher query once per task.
        self._direct: dict[tuple, list[float]] = {}
        self._rates: dict[str, list[float]] = {}
        self._all_rates: list[float] = []
        self._sizes: dict[tuple, list[int]] = {}
        self._scaled_sizes: dict[str, list[tuple[float, int]]] = {}
        for obs in observations:
            self.observe(obs.problem, obs.algorithm, obs.scale, obs.time_s,
                         n=obs.n, nnz=obs.nnz)

    def __len__(self) -> int:
        return len(self._observations)

    # ------------------------------------------------------------------ #
    # feeding the model
    # ------------------------------------------------------------------ #
    def observe(self, problem: str, algorithm: str, scale, time_s: float,
                *, n: int = 0, nnz: int = 0) -> None:
        """Record one cell cost (``n``/``nnz`` of 0 mean "size unknown")."""
        obs = _Observation(
            problem=str(problem).strip().upper(),
            algorithm=str(algorithm),
            scale=_scale_key(scale),
            time_s=float(time_s),
            n=int(n),
            nnz=int(nnz),
        )
        self._observations.append(obs)
        self._direct.setdefault(
            (obs.problem, obs.algorithm, obs.scale), []).append(obs.time_s)
        size = obs.n * obs.nnz
        if size > 0:
            self._rates.setdefault(obs.algorithm, []).append(obs.time_s / size)
            self._all_rates.append(obs.time_s / size)
            self._sizes.setdefault((obs.problem, obs.scale), []).append(size)
            if obs.scale:
                self._scaled_sizes.setdefault(obs.problem, []).append(
                    (obs.scale, size))

    def observe_suite(self, suite: SuiteResult) -> None:
        """Fit from a suite run's records.

        ``ok`` records contribute their measured ``time_s``; ``timeout``
        records contribute the limit they hit — a *lower bound*, which is
        exactly the right bias for balancing (a cell that timed out belongs
        on a shard of its own, not wherever round-robin drops it).  Error
        records carry no usable timing and are skipped.
        """
        for record in suite.records:
            if record.status not in ("ok", "timeout") or record.time_s <= 0:
                continue
            self.observe(record.problem, record.algorithm, suite.scale,
                         record.time_s, n=record.n, nnz=record.nnz)

    def observe_bench(self, artifact: dict) -> None:
        """Fit from a ``repro bench`` artifact (see :mod:`repro.bench`).

        Uses the per-cell suite section (problem, algorithm, scale, and —
        for artifacts recorded by this build — ``n``/``nnz``) plus the
        pinned ordering kernels, whose names encode
        ``orderings/{algorithm}/{problem}@{scale}``.
        """
        suite = artifact.get("suite") or {}
        scale = suite.get("scale")
        for cell in suite.get("cells", []):
            # Prefer the best-of-k cell timing recorded by newer artifacts;
            # single-run time_s is the read-compat fallback.
            time_s = float(cell.get("best_s") or cell.get("time_s", 0.0) or 0.0)
            if cell.get("status") != "ok" or time_s <= 0:
                continue
            self.observe(cell["problem"], cell["algorithm"], scale,
                         time_s, n=cell.get("n", 0) or 0, nnz=cell.get("nnz", 0) or 0)
        for kernel in artifact.get("kernels", []):
            name = str(kernel.get("name", ""))
            # {prefix}/{algorithm}/{problem}@{scale} — maxsplit keeps problem
            # names that themselves contain "/" (the RANDOM/* families) whole.
            parts = name.split("/", 2)
            if len(parts) != 3 or parts[0] not in ("orderings", "powerlaw") \
                    or "@" not in parts[2]:
                continue
            problem, scale_text = parts[2].rsplit("@", 1)
            try:
                kernel_scale = float(scale_text)
            except ValueError:
                continue
            best = float(kernel.get("best_s", 0.0))
            if best > 0:
                self.observe(problem, parts[1], kernel_scale, best)

    # ------------------------------------------------------------------ #
    # estimating
    # ------------------------------------------------------------------ #
    def estimate(self, problem: str, algorithm: str, scale=None) -> float:
        """Estimated cost (seconds) of one cell, observed or not.

        Resolution order:

        1. the median of direct observations of ``(problem, algorithm,
           scale)``;
        2. otherwise ``rate(algorithm) * size(problem, scale)`` where the
           rate is the median seconds-per-``n*nnz`` of that algorithm's
           observations (falling back to the all-algorithm median, then to
           a fixed default), and the size comes from observations of the
           same problem (rescaled by ``scale**2`` across scales — both
           ``n`` and ``nnz`` grow roughly linearly with the surrogate
           scale), from the registry's paper sizes at the problem's
           ``paper_scale``, or from the analytic
           ``expected_n``/``expected_nnz`` of the random generator families.
        """
        problem = str(problem).strip().upper()
        scale = _scale_key(scale)
        direct = self._direct.get((problem, algorithm, scale))
        if direct:
            return max(statistics.median(direct), _MIN_ESTIMATE_S)
        return max(self._rate(algorithm) * self._size(problem, scale), _MIN_ESTIMATE_S)

    def estimate_task(self, task: BatchTask) -> float:
        """:meth:`estimate` keyed by a :class:`~repro.batch.tasks.BatchTask`."""
        return self.estimate(task.problem, task.algorithm, task.scale)

    def observed_cell(self, problem: str, algorithm: str, scale=None) -> bool:
        """Whether ``(problem, algorithm, scale)`` was *directly* observed.

        Distinguishes a real measurement from the ``n * nnz`` fallback
        estimate — the ``--timeout auto`` policy only trusts the former
        (an extrapolated rate is no basis for killing a task).
        """
        key = (str(problem).strip().upper(), algorithm, _scale_key(scale))
        return bool(self._direct.get(key))

    def _rate(self, algorithm: str) -> float:
        """Median seconds per unit of ``n * nnz`` for one algorithm."""
        rates = self._rates.get(algorithm) or self._all_rates
        return statistics.median(rates) if rates else _DEFAULT_RATE_S

    def _size(self, problem: str, scale: float | None) -> float:
        """Estimated ``n * nnz`` of a problem at a scale."""
        same_scale = self._sizes.get((problem, scale))
        if same_scale:
            return float(statistics.median(same_scale))
        if scale is not None:
            # n and nnz both grow ~linearly with the surrogate scale, so
            # n * nnz transfers across scales with the square of the ratio.
            rescaled = [size * (scale / other_scale) ** 2
                        for other_scale, size in self._scaled_sizes.get(problem, [])]
            if rescaled:
                return float(statistics.median(rescaled))
        from repro.collections.registry import expected_problem_size

        # Paper problems: the paper's sizes rescaled by
        # (scale / paper_scale)**2.  Random generator families: their
        # analytic expected_n * expected_nnz.  Unknown problems: the
        # neutral weight 1.0.
        return expected_problem_size(problem, scale)

    def fingerprint(self) -> str:
        """Short stable digest of the observation table.

        Recorded in the stream header of a cost-balanced run
        (:func:`repro.batch.stream.stream_header`): the shard plan is a pure
        function of the task list and this table, so ``--resume`` can reject
        a stream written under a *different* cost model — which would cover
        a different task slice — instead of silently mixing slices.
        """
        canonical = json.dumps(
            sorted(
                (obs.problem, obs.algorithm, obs.scale, obs.time_s, obs.n, obs.nnz)
                for obs in self._observations
            ),
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "kind": _KIND,
            "schema_version": COST_MODEL_SCHEMA_VERSION,
            "entries": [
                {"problem": obs.problem, "algorithm": obs.algorithm,
                 "scale": obs.scale, "time_s": obs.time_s,
                 "n": obs.n, "nnz": obs.nnz}
                for obs in self._observations
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CostModel":
        if not isinstance(payload, dict) or payload.get("kind") != _KIND:
            raise ValueError("not a repro cost-model payload")
        version = payload.get("schema_version")
        if not isinstance(version, int) or version > COST_MODEL_SCHEMA_VERSION:
            raise ValueError(
                f"cost model has schema version {version!r}; this build reads "
                f"versions up to {COST_MODEL_SCHEMA_VERSION}"
            )
        model = cls()
        for entry in payload.get("entries", []):
            model.observe(entry["problem"], entry["algorithm"], entry.get("scale"),
                          entry["time_s"], n=entry.get("n", 0), nnz=entry.get("nnz", 0))
        return model

    def save(self, path) -> Path:
        """Write the model as indented JSON; returns the path.

        The write is atomic (tempfile + ``os.replace``): a run killed
        mid-save leaves the previous complete model, never a truncated file
        that a later ``--cost-model`` load would choke on.
        """
        from repro.utils.atomic import atomic_write_text

        return atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path) -> "CostModel":
        """Inverse of :meth:`save` (cost-model files only; see :meth:`from_file`)."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def from_file(cls, path) -> "CostModel":
        """Build a model from *any* timing-bearing file the repo produces.

        Accepts a cost-model JSON (:meth:`save`), a suite results artifact
        (``repro suite --output``), a ``repro bench`` artifact, or a JSONL
        stream file (``--stream-output``, retried cells deduped to the
        final attempt).

        Raises
        ------
        ValueError
            When the file is none of the recognised formats.
        OSError
            When the file cannot be read.
        """
        path = Path(path)
        text = path.read_text()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if payload is None or (
            isinstance(payload, dict) and payload.get("kind") == "header"
        ):
            # A JSONL stream — including the degenerate one-line case of a
            # run killed before its first record, which parses as a single
            # JSON object (the header) and must not be mistaken for an
            # (empty) suite artifact.
            from repro.batch.stream import suite_from_stream

            try:
                suite = suite_from_stream(path)
            except ValueError:
                raise ValueError(
                    f"{path} is neither a cost model, a results artifact, a "
                    f"bench artifact nor a JSONL stream"
                ) from None
            model = cls()
            model.observe_suite(suite)
            return model
        if isinstance(payload, dict) and payload.get("kind") == _KIND:
            return cls.from_dict(payload)
        if isinstance(payload, dict) and payload.get("kind") == "repro-bench":
            model = cls()
            model.observe_bench(payload)
            return model
        model = cls()
        model.observe_suite(SuiteResult.from_dict(payload))
        return model


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic assignment of every task to exactly one shard.

    ``shards[k]`` holds shard ``k+1``'s tasks in canonical (task-index)
    order; ``loads[k]`` is that shard's total estimated cost.  ``strategy``
    records which split won: ``"lpt"`` (the greedy plan) or ``"roundrobin"``
    (kept when the greedy plan's estimated makespan would be worse — rare,
    but possible on adversarial cost tables, and falling back guarantees
    the planner never loses to the default split).
    """

    shards: tuple
    loads: tuple
    makespan: float
    round_robin_makespan: float
    strategy: str


def auto_timeout(cost_model: CostModel):
    """Per-task timeout policy derived from a cost model (``--timeout auto``).

    Returns a callable ``task -> float | None`` for
    :func:`repro.batch.engine.run_suite`'s ``timeout`` parameter: cells the
    model has *directly* observed get ``max(estimate * AUTO_TIMEOUT_SAFETY,
    AUTO_TIMEOUT_FLOOR_S)`` seconds.  Unseen *paper* cells get ``None`` (no
    limit — an ``n * nnz`` extrapolation from paper tables is no basis for
    killing a task), but unseen cells of the analytic generator families
    (``RANDOM/*``, whose specs carry exact ``expected_n``/``expected_nnz``
    functions) are bounded by the same ``estimate * safety`` formula: their
    size estimate is analytic rather than guessed, and an unbounded cell at
    n~10^6 is precisely the hang the scale-stress tier must never allow.

    >>> from repro.batch.tasks import BatchTask
    >>> model = CostModel()
    >>> model.observe("POW9", "rcm", 0.02, time_s=0.004)
    >>> policy = auto_timeout(model)
    >>> policy(BatchTask(problem="POW9", algorithm="rcm", scale=0.02))
    1.0
    >>> policy(BatchTask(problem="POW9", algorithm="spectral", scale=0.02)) is None
    True
    >>> limit = policy(BatchTask(problem="RANDOM/BA", algorithm="rcm", scale=0.001))
    >>> limit is not None and limit > 0
    True
    """
    from repro.collections.registry import has_analytic_size

    def timeout_for(task) -> float | None:
        observed = cost_model.observed_cell(task.problem, task.algorithm, task.scale)
        if not observed and not has_analytic_size(task.problem):
            return None
        return max(
            AUTO_TIMEOUT_FLOOR_S,
            cost_model.estimate_task(task) * AUTO_TIMEOUT_SAFETY,
        )

    return timeout_for


def order_longest_first(tasks, cost_model: CostModel) -> list:
    """Tasks sorted most-expensive-first (ties by task index).

    The in-process analogue of LPT sharding: handing a worker pool the
    expensive cells first lets the cheap ones backfill the stragglers, so
    the pool drains without a long tail.  Execution order never affects
    results (deterministic per-task seeds; records re-sorted afterwards).
    """
    return sorted(tasks, key=lambda t: (-cost_model.estimate_task(t), t.index))


def _makespan(shards, costs) -> float:
    return max((sum(costs[t.index] for t in shard) for shard in shards),
               default=0.0)


def plan_shards(tasks, shard_count: int, cost_model: CostModel) -> ShardPlan:
    """Split a task list into ``shard_count`` cost-balanced shards.

    Greedy LPT: tasks in decreasing estimated cost, each assigned to the
    least-loaded shard so far (ties: lowest shard number, then lowest task
    index — fully deterministic).  The result is compared with the
    round-robin split on estimated makespan and the better plan is
    returned, so ``plan.makespan <= plan.round_robin_makespan`` always
    holds.

    Raises
    ------
    ValueError
        When ``shard_count`` is not positive.
    """
    shard_count = int(shard_count)
    if shard_count < 1:
        raise ValueError(f"shard count must be positive, got {shard_count}")
    tasks = list(tasks)
    costs = {task.index: max(cost_model.estimate_task(task), _MIN_ESTIMATE_S)
             for task in tasks}

    round_robin = [shard_tasks(tasks, k, shard_count)
                   for k in range(1, shard_count + 1)] if tasks else \
                  [[] for _ in range(shard_count)]
    rr_makespan = _makespan(round_robin, costs)

    heap = [(0.0, k) for k in range(shard_count)]
    heapq.heapify(heap)
    lpt: list[list[BatchTask]] = [[] for _ in range(shard_count)]
    for task in order_longest_first(tasks, cost_model):
        load, k = heapq.heappop(heap)
        lpt[k].append(task)
        heapq.heappush(heap, (load + costs[task.index], k))
    lpt_makespan = _makespan(lpt, costs)

    if lpt_makespan <= rr_makespan:
        chosen, strategy, makespan = lpt, "lpt", lpt_makespan
    else:
        chosen, strategy, makespan = round_robin, "roundrobin", rr_makespan
    shards = tuple(tuple(sorted(shard, key=lambda t: t.index)) for shard in chosen)
    loads = tuple(sum(costs[t.index] for t in shard) for shard in shards)
    return ShardPlan(
        shards=shards,
        loads=loads,
        makespan=makespan,
        round_robin_makespan=rr_makespan,
        strategy=strategy,
    )
