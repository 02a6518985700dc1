"""Structured, versioned results of a batch suite run.

A suite run produces one :class:`TaskRecord` per ``(problem, algorithm)``
cell — an ``"ok"`` record carrying the full envelope statistics and the
ordering wall time, an ``"error"`` record carrying the captured exception,
or a ``"timeout"`` record when the task exceeded the per-task limit —
bundled into a :class:`SuiteResult` that can be saved, reloaded,
regression-compared, and merged across machines
(:func:`merge_results`; see ``docs/results-schema.md`` for the full
specification).

JSON schema (version 2)
-----------------------
``SuiteResult.to_json()`` emits::

    {
      "schema_version": 2,
      "engine": "repro.batch",
      "problems": ["CAN1072", ...],
      "algorithms": ["spectral", "gk", "gps", "rcm"],
      "scale": 0.02,
      "base_seed": 0,
      "shard": [2, 3],          # only present for a --shard K/N slice
      "n_jobs": 4,              # timing/run-environment field (optional)
      "wall_time_s": 1.83,      # timing field (optional)
      "records": [
        {
          "problem": "CAN1072",
          "algorithm": "rcm",
          "status": "ok",                # or "error" / "timeout"
          "seed": 2417046638,
          "n": 171,
          "nnz": 1042,
          "metrics": {                   # EnvelopeStatistics.as_dict()
            "n": 171, "nnz": 1042, "bandwidth": 18,
            "envelope_size": 1204, "envelope_work": 13016,
            "one_sum": ..., "two_sum": ...,
            "max_frontwidth": ..., "mean_frontwidth": ..., "rms_frontwidth": ...
          },
          "time_s": 0.004,               # timing field (optional)
          "error": null                  # or {"type", "message", "traceback"}
        },
        ...
      ]
    }

Version 1 (no ``shard`` key, no ``"timeout"`` status) is still read by
:meth:`SuiteResult.from_dict`; an unsupported version raises
:exc:`SchemaVersionError` so callers can distinguish "not our schema" from
"unreadable file".

Passing ``include_timing=False`` to :meth:`SuiteResult.to_dict` /
:meth:`~SuiteResult.to_json` drops ``time_s``, ``wall_time_s`` and
``n_jobs`` — the *canonical* form used by the golden regression tests, which
must be byte-stable across runs, across worker counts, and across shard
boundaries: merging the artifacts of an ``N``-way sharded run reproduces the
single-machine artifact byte for byte in this form.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "READ_COMPAT_VERSIONS",
    "SCHEMA_VERSION",
    "SchemaVersionError",
    "SuiteResult",
    "TaskRecord",
    "dedupe_records",
    "merge_results",
]

#: Version of the JSON results schema written by :meth:`SuiteResult.to_json`.
SCHEMA_VERSION = 2

#: Schema versions :meth:`SuiteResult.from_dict` can still read.
READ_COMPAT_VERSIONS = frozenset({1, SCHEMA_VERSION})

_ENGINE_NAME = "repro.batch"


class SchemaVersionError(ValueError):
    """A results artifact declares a schema version this build cannot read.

    Subclasses :class:`ValueError` so legacy ``except ValueError`` callers
    keep working, while the CLI can report "schema mismatch" distinctly from
    "unreadable file".
    """


@dataclass
class TaskRecord:
    """Outcome of one ``(problem, algorithm)`` task.

    ``status`` is ``"ok"``, ``"error"`` (the algorithm raised; ``error``
    holds the captured exception) or ``"timeout"`` (the task exceeded the
    per-task limit and its worker was killed; ``error`` holds a
    synthetic ``TaskTimeout`` entry and ``time_s`` the limit).

    ``ordering`` holds the computed :class:`repro.orderings.base.Ordering`
    when the record travelled in memory (including back from a worker);
    it is never serialized to JSON, so records loaded with
    :meth:`SuiteResult.from_json` have ``ordering=None``.

    >>> record = TaskRecord(problem="POW9", algorithm="rcm", seed=7)
    >>> record.ok
    True
    >>> roundtrip = TaskRecord.from_dict(record.to_dict())
    >>> roundtrip.to_dict() == record.to_dict()
    True
    """

    problem: str
    algorithm: str
    status: str = "ok"
    seed: int = 0
    n: int = 0
    nnz: int = 0
    metrics: dict = field(default_factory=dict)
    time_s: float = 0.0
    error: dict | None = None
    ordering: object | None = None

    @property
    def ok(self) -> bool:
        """Whether the task completed without an exception or timeout."""
        return self.status == "ok"

    @property
    def timed_out(self) -> bool:
        """Whether the task was cut off by the per-task timeout."""
        return self.status == "timeout"

    def to_dict(self, include_timing: bool = True) -> dict:
        """JSON-serializable view (``ordering`` excluded by design)."""
        payload = {
            "problem": self.problem,
            "algorithm": self.algorithm,
            "status": self.status,
            "seed": int(self.seed),
            "n": int(self.n),
            "nnz": int(self.nnz),
            "metrics": copy.deepcopy(self.metrics),
            "error": copy.deepcopy(self.error),
        }
        if include_timing:
            payload["time_s"] = float(self.time_s)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TaskRecord":
        return cls(
            problem=payload["problem"],
            algorithm=payload["algorithm"],
            status=payload.get("status", "ok"),
            seed=int(payload.get("seed", 0)),
            n=int(payload.get("n", 0)),
            nnz=int(payload.get("nnz", 0)),
            metrics=dict(payload.get("metrics", {})),
            time_s=float(payload.get("time_s", 0.0)),
            error=payload.get("error"),
        )


@dataclass
class SuiteResult:
    """Results of a whole suite run, replayable via the JSON schema above.

    ``problems``/``algorithms`` always describe the *full* suite
    specification; for a sharded run ``shard`` is ``(index, count)``
    (1-based) and ``records`` holds only that slice of the cross-product.
    ``shard`` is ``None`` for single-machine and merged artifacts.

    >>> suite = SuiteResult(problems=["POW9"], algorithms=["rcm"],
    ...                     records=[TaskRecord(problem="POW9", algorithm="rcm")])
    >>> SuiteResult.from_json(suite.to_json()).to_dict() == suite.to_dict()
    True
    """

    problems: list
    algorithms: list
    scale: float | None = None
    n_jobs: int = 1
    base_seed: int = 0
    records: list = field(default_factory=list)
    wall_time_s: float = 0.0
    shard: tuple | None = None
    schema_version: int = SCHEMA_VERSION
    #: Data-loss accounting of a lossy read/merge (``--allow-partial``):
    #: e.g. ``{"dropped_lines": 2, "missing_cells": 1}``.  ``None`` (and
    #: absent from the JSON) for every complete artifact, so canonical
    #: byte-identity of clean runs is untouched.
    partial: dict | None = None
    #: Kernel-backend summary of the run (``repro.backends.backend_summary``):
    #: requested tier, numba availability/versions, whether an explicit
    #: ``numba`` request fell back to numpy.  Serialized only in the full
    #: (timing) form — like ``n_jobs`` it describes *how* the run executed,
    #: not *what* it computed, so the canonical form stays byte-identical
    #: across backends.
    backend: dict | None = None

    # ------------------------------------------------------------------ #
    # access helpers
    # ------------------------------------------------------------------ #
    @property
    def ok_records(self) -> list:
        """Records of tasks that completed successfully."""
        return [record for record in self.records if record.ok]

    @property
    def failures(self) -> list:
        """Structured non-ok records (tasks that raised or timed out)."""
        return [record for record in self.records if not record.ok]

    @property
    def timeouts(self) -> list:
        """Records of tasks cut off by the per-task timeout."""
        return [record for record in self.records if record.timed_out]

    def record_for(self, problem: str, algorithm: str) -> TaskRecord:
        """The record of a specific cell (KeyError if absent)."""
        key = str(problem).strip().upper()
        for record in self.records:
            if record.problem.upper() == key and record.algorithm == algorithm:
                return record
        raise KeyError(f"no record for ({problem!r}, {algorithm!r})")

    def winners(self) -> dict:
        """Per problem, the successful algorithm with the smallest envelope."""
        best: dict[str, TaskRecord] = {}
        for record in self.ok_records:
            incumbent = best.get(record.problem)
            if incumbent is None or (
                record.metrics.get("envelope_size", 0)
                < incumbent.metrics.get("envelope_size", 0)
            ):
                best[record.problem] = record
        return {problem: record.algorithm for problem, record in best.items()}

    def to_rows(self):
        """Ranked :class:`repro.analysis.report.ComparisonRow` list (ok tasks)."""
        from repro.analysis.report import rows_from_records

        return rows_from_records(self.records)

    def to_text(self) -> str:
        """Render the suite as a paper-style text table plus failure lines."""
        from repro.analysis.report import format_table

        scale_label = "default" if self.scale is None else f"{self.scale:g}"
        lines = [
            format_table(
                self.to_rows(),
                title=f"Suite results — {len(self.problems)} problem(s), scale={scale_label}",
            )
        ]
        for record in self.failures:
            error = record.error or {}
            label = "TIMEOUT" if record.timed_out else "FAILED"
            lines.append(
                f"{label} {record.problem}/{record.algorithm}: "
                f"{error.get('type', 'Error')}: {error.get('message', '')}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self, include_timing: bool = True) -> dict:
        """JSON-serializable view; see the module docstring for the schema."""
        payload = {
            "schema_version": int(self.schema_version),
            "engine": _ENGINE_NAME,
            "problems": list(self.problems),
            "algorithms": list(self.algorithms),
            "scale": self.scale,
            "base_seed": int(self.base_seed),
            "records": [record.to_dict(include_timing=include_timing) for record in self.records],
        }
        if self.shard is not None:
            payload["shard"] = [int(self.shard[0]), int(self.shard[1])]
        if self.partial:
            payload["partial"] = {k: int(v) for k, v in sorted(self.partial.items())}
        if include_timing:
            payload["n_jobs"] = int(self.n_jobs)
            payload["wall_time_s"] = float(self.wall_time_s)
            if self.backend is not None:
                payload["backend"] = dict(self.backend)
        return payload

    def to_json(self, include_timing: bool = True, indent: int = 2) -> str:
        """Canonical JSON text (sorted keys, trailing newline)."""
        return json.dumps(self.to_dict(include_timing=include_timing),
                          indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, payload: dict) -> "SuiteResult":
        """Rebuild a suite from a schema-version 1 or 2 payload.

        Raises
        ------
        SchemaVersionError
            When the payload declares a version outside
            :data:`READ_COMPAT_VERSIONS` (v1 artifacts — no ``shard`` key,
            no ``"timeout"`` status — still load fine).
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"suite artifact must be a JSON object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version not in READ_COMPAT_VERSIONS:
            raise SchemaVersionError(
                f"unsupported suite schema version {version!r} "
                f"(this build writes version {SCHEMA_VERSION} and reads "
                f"{sorted(READ_COMPAT_VERSIONS)})"
            )
        shard = payload.get("shard")
        return cls(
            problems=list(payload.get("problems", [])),
            algorithms=list(payload.get("algorithms", [])),
            scale=payload.get("scale"),
            n_jobs=int(payload.get("n_jobs", 1)),
            base_seed=int(payload.get("base_seed", 0)),
            records=[TaskRecord.from_dict(r) for r in payload.get("records", [])],
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            shard=None if shard is None else (int(shard[0]), int(shard[1])),
            schema_version=int(version),
            partial=payload.get("partial"),
            backend=payload.get("backend"),
        )

    @classmethod
    def from_json(cls, text: str) -> "SuiteResult":
        """Inverse of :meth:`to_json` (``ordering`` fields come back ``None``)."""
        return cls.from_dict(json.loads(text))

    def save(self, path) -> Path:
        """Write the full (timed) JSON artifact to *path*; returns the path.

        The write is atomic (tempfile + ``os.replace``), so a kill mid-save
        cannot leave a truncated artifact for a later ``--against`` /
        ``repro merge`` to fail on.
        """
        from repro.utils.atomic import atomic_write_text

        return atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path) -> "SuiteResult":
        """Read a JSON artifact previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------ #
    # regression comparison
    # ------------------------------------------------------------------ #
    def diff(self, other: "SuiteResult", include_timing: bool = False) -> list[str]:
        """Human-readable differences between two suite runs.

        Timing fields (and ``n_jobs``) are ignored by default, so a serial
        run and a parallel run of the same suite diff clean.  Error records
        are compared by exception type and message only — traceback text
        embeds absolute paths and line numbers that legitimately vary across
        machines and unrelated edits.  Returns an empty list when the runs
        agree.
        """
        differences: list[str] = []
        for name in ("problems", "algorithms", "scale", "base_seed", "shard"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                differences.append(f"{name}: {mine!r} != {theirs!r}")

        mine_by_key = {(r.problem, r.algorithm): r for r in self.records}
        other_by_key = {(r.problem, r.algorithm): r for r in other.records}
        for key in sorted(set(mine_by_key) | set(other_by_key)):
            problem, algorithm = key
            label = f"{problem}/{algorithm}"
            a, b = mine_by_key.get(key), other_by_key.get(key)
            if a is None or b is None:
                differences.append(f"{label}: present in only one run")
                continue
            if a.to_dict(include_timing=include_timing) == b.to_dict(include_timing=include_timing):
                continue
            if a.status != b.status:
                differences.append(f"{label}: status {a.status!r} != {b.status!r}")
                continue
            for field_name in sorted(set(a.metrics) | set(b.metrics)):
                va, vb = a.metrics.get(field_name), b.metrics.get(field_name)
                if va != vb:
                    differences.append(f"{label}: metrics.{field_name} {va!r} != {vb!r}")
            for field_name in ("seed", "n", "nnz"):
                va, vb = getattr(a, field_name), getattr(b, field_name)
                if va != vb:
                    differences.append(f"{label}: {field_name} {va!r} != {vb!r}")
            ea = {k: (a.error or {}).get(k) for k in ("type", "message")}
            eb = {k: (b.error or {}).get(k) for k in ("type", "message")}
            if ea != eb:
                differences.append(f"{label}: error {ea!r} != {eb!r}")
            if include_timing and a.time_s != b.time_s:
                differences.append(f"{label}: time_s {a.time_s!r} != {b.time_s!r}")
        return differences


def dedupe_records(records) -> list:
    """Collapse repeated ``(problem, algorithm)`` cells to the *last* attempt.

    Timeout-retry escalation (``--retry-timeouts``) appends a superseding
    record for every retried cell to the same JSONL stream, so a stream can
    legitimately carry several records for one cell.  The supersede rule is
    positional: the last record written wins — a retried cell's final
    ``"ok"`` (or final ``"timeout"``, if every escalation ran out) replaces
    the earlier attempts.  Cells keep their first-appearance order, so a
    stream without retries round-trips unchanged.

    >>> first = TaskRecord(problem="POW9", algorithm="gk", status="timeout")
    >>> second = TaskRecord(problem="POW9", algorithm="gk", status="ok")
    >>> other = TaskRecord(problem="POW9", algorithm="rcm")
    >>> [(r.algorithm, r.status) for r in dedupe_records([first, other, second])]
    [('gk', 'ok'), ('rcm', 'ok')]
    """
    by_cell: dict[tuple, TaskRecord] = {}
    order: list[tuple] = []
    for record in records:
        cell = (record.problem, record.algorithm)
        if cell not in by_cell:
            order.append(cell)
        by_cell[cell] = record
    return [by_cell[cell] for cell in order]


def merge_results(suites, *, allow_missing: bool = False) -> SuiteResult:
    """Recombine shard artifacts into the equivalent single-machine result.

    All inputs must share the same suite specification (``problems``,
    ``algorithms``, ``scale``, ``base_seed``) and together must cover every
    cell of the ``problems x algorithms`` cross-product exactly once.  The
    merged result carries the records in canonical cross-product order with
    ``shard=None``, so its canonical JSON (``to_json(include_timing=False)``)
    is byte-identical to what one machine running the whole suite would have
    written.  Timing fields aggregate: ``wall_time_s`` sums (total compute),
    ``n_jobs`` takes the maximum.

    Merging a single complete artifact is the identity in canonical form,
    which makes ``repro merge`` safe to use as a validation pass.

    >>> a = SuiteResult(problems=["POW9"], algorithms=["rcm", "gps"], shard=(1, 2),
    ...                 records=[TaskRecord(problem="POW9", algorithm="rcm")])
    >>> b = SuiteResult(problems=["POW9"], algorithms=["rcm", "gps"], shard=(2, 2),
    ...                 records=[TaskRecord(problem="POW9", algorithm="gps")])
    >>> merged = merge_results([a, b])
    >>> merged.shard is None, [r.algorithm for r in merged.records]
    (True, ['rcm', 'gps'])

    ``allow_missing=True`` (the ``repro merge --allow-partial`` path) keeps
    going when cells are missing — the inevitable outcome of merging a shard
    stream whose torn tail was trimmed: present cells merge in canonical
    order and the loss is recorded on the result
    (``partial={"missing_cells": N, ...}``, aggregating any per-input
    ``partial`` counters such as the streams' dropped line counts).

    Raises
    ------
    ValueError
        When no artifacts are given, the specifications disagree, a cell is
        recorded more than once (overlapping shards), a record falls outside
        the specification, or — unless ``allow_missing`` — cells are missing
        (incomplete shard set).
    """
    suites = list(suites)
    if not suites:
        raise ValueError("nothing to merge: no suite artifacts given")
    reference = suites[0]
    for position, suite in enumerate(suites[1:], start=2):
        for name in ("problems", "algorithms", "scale", "base_seed"):
            mine, theirs = getattr(reference, name), getattr(suite, name)
            if mine != theirs:
                raise ValueError(
                    f"suite specification mismatch: artifact 1 has {name}="
                    f"{mine!r} but artifact {position} has {name}={theirs!r}"
                )

    expected = [(p, a) for p in reference.problems for a in reference.algorithms]
    expected_set = set(expected)
    if len(expected) != len(expected_set):
        raise ValueError(
            "cannot merge a specification with duplicate (problem, algorithm) "
            "cells"
        )
    by_cell: dict[tuple, TaskRecord] = {}
    duplicates, unexpected = [], []
    for suite in suites:
        for record in suite.records:
            cell = (record.problem, record.algorithm)
            if cell not in expected_set:
                unexpected.append(cell)
            elif cell in by_cell:
                duplicates.append(cell)
            else:
                by_cell[cell] = record
    if unexpected:
        raise ValueError(
            f"record(s) outside the suite specification: "
            f"{sorted(set(unexpected))}"
        )
    if duplicates:
        raise ValueError(
            f"overlapping shards: {len(duplicates)} cell(s) recorded more "
            f"than once, e.g. {sorted(set(duplicates))[:3]}"
        )
    missing = [cell for cell in expected if cell not in by_cell]
    if missing and not allow_missing:
        raise ValueError(
            f"incomplete shard set: {len(missing)} of {len(expected)} "
            f"cell(s) missing, e.g. {missing[:3]}"
        )
    partial: dict = {}
    for suite in suites:
        for key, value in (suite.partial or {}).items():
            partial[key] = partial.get(key, 0) + int(value)
    if missing:
        partial["missing_cells"] = partial.get("missing_cells", 0) + len(missing)
    return SuiteResult(
        problems=list(reference.problems),
        algorithms=list(reference.algorithms),
        scale=reference.scale,
        n_jobs=max(int(suite.n_jobs) for suite in suites),
        base_seed=reference.base_seed,
        records=[by_cell[cell] for cell in expected if cell in by_cell],
        wall_time_s=float(sum(suite.wall_time_s for suite in suites)),
        shard=None,
        schema_version=SCHEMA_VERSION,
        partial=partial or None,
    )
