"""Command-line interface: ``python -m repro <command> ...``.

The subcommands cover the workflows a downstream user of an envelope solver
actually runs (full reference: ``docs/running.md``):

``reorder``
    Read a matrix (Matrix Market or Harwell-Boeing), compute an
    envelope-reducing ordering, report the envelope statistics and optionally
    write the permutation and/or the reordered matrix to disk.

``compare``
    Run several ordering algorithms on a matrix (or on a named surrogate
    problem from the paper's test sets) and print a Table 4.1-style ranked
    comparison.

``suite``
    Drive the whole ``problems x algorithms`` cross-product through the
    parallel batch engine (:mod:`repro.batch`), e.g.::

        repro suite --jobs 4 --output results.json
        repro suite POW9 BARTH4 --algorithms rcm,spectral --scale 0.05 \\
            --baseline results.json
        repro suite --shard 2/3 --balance cost --cost-model costs.json \\
            --timeout 120 --retry-timeouts 2 \\
            --stream-output shard2.jsonl --output shard2.json

    ``--output`` saves a versioned JSON artifact (see
    :mod:`repro.batch.results` for the schema); ``--baseline`` diffs the run
    against a saved artifact, ignoring timing fields, and exits nonzero on
    drift.  ``--shard K/N`` runs the k-th of N disjoint slices (one machine
    each) — round-robin by default, or balanced on estimated per-cell cost
    with ``--balance cost`` (see :mod:`repro.batch.sched`).  ``--timeout``
    bounds every task, ``--retry-timeouts`` re-runs timed-out cells with
    escalating limits, and ``--stream-output`` / ``--resume`` make a killed
    run restartable from its JSONL record stream.

``merge``
    Recombine the shard artifacts of a distributed suite run::

        repro merge shard1.json shard2.json shard3.json --output full.json
        repro merge shard1.jsonl shard2.json --output full.json

    Validates schema versions, specification compatibility and
    duplicate/missing cells; the merged artifact is byte-identical in
    canonical form to a single-machine run.  ``.jsonl`` stream files are
    accepted alongside JSON artifacts, with retried cells deduped to the
    final attempt.

``bench``
    Run the pinned perf micro-suite and write a versioned ``BENCH_<rev>.json``
    artifact (per-kernel and per-cell wall times, machine info)::

        repro bench --output BENCH_abc1234.json
        repro bench --against BENCH_abc1234.json   # rerun + diff; exit 1 on
                                                   # perf regressions
        repro bench --quick                        # CI smoke variant
        repro bench --export-cost-model costs.json # also fit a scheduler
                                                   # cost model from the run

    See ``docs/performance.md`` for the artifact schema and how to read a
    regression diff.

``cache``
    Inspect and manage the persistent artifact store shared by ``suite`` and
    ``bench`` runs (``--store DIR`` or the ``REPRO_STORE`` environment
    variable)::

        repro cache ls --store ./cache           # one row per entry
        repro cache info --store ./cache --json  # per-kind counts and bytes
        repro cache prewarm POW9 --store ./cache # build + store ahead of time
        repro cache clear --store ./cache        # delete every entry

    The store is pure: warm-from-disk results are byte-identical to cold,
    and corrupt or stale entries read back as misses (see
    ``docs/performance.md`` for the content-addressing scheme).

``serve``
    Run the resident ordering-as-a-service HTTP/JSON API (see
    ``docs/serving.md``)::

        repro serve --port 8741 --workers 4 --queue-depth 16 \\
            --timeout 120 --store ./cache --journal jobs.jsonl

    Requests coalesce when identical, the queue is bounded (429 +
    ``Retry-After`` past ``--queue-depth``), every cell gets the per-task
    timeout treatment of the batch engine, and ``--store`` keeps warm
    requests near cache speed across worker processes and restarts.

``order``
    Request one ordering — from a running server (``--server URL``) or, as
    a fallback, computed in-process through the identical single-cell
    core::

        repro order problem:POW9@0.05 --algorithm rcm \\
            --server http://127.0.0.1:8741
        repro order matrix.mtx --algorithm spectral --json

    Both paths produce byte-identical canonical records for the same
    input, seed and algorithm — the server is the same engine, resident.

``chaos``
    Run the suite or a live server soak under deterministic fault
    injection (:mod:`repro.faults`) and assert the resilience invariants
    (see ``docs/robustness.md``)::

        repro chaos suite --inject-faults "seed=7;worker.crash@0.25,point=start"
        repro chaos serve --requests 12 --inject-faults "seed=7;worker.crash@0.2"

    ``chaos suite`` requires the faulty run's canonical artifact to be
    byte-identical to a fault-free serial run; ``chaos serve`` soaks a real
    server subprocess and proves the SIGTERM graceful drain.

``spy``
    Print an ASCII structure plot of a matrix under a chosen ordering
    (the Figure 4.1-4.5 view).

``fiedler``
    Compute the second Laplacian eigenvalue/eigenvector (algebraic
    connectivity) of a matrix and print solver diagnostics.

All commands accept either a file path or ``problem:NAME[@SCALE]`` to use one
of the registered synthetic surrogates, e.g. ``problem:BARTH4@0.05``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.analysis.report import format_table
from repro.analysis.runner import run_comparison
from repro.batch import (
    CostModel,
    SchemaVersionError,
    StreamWriter,
    SuiteResult,
    TruncatedStreamError,
    build_tasks,
    dedupe_records,
    merge_results,
    parse_shard,
    plan_shards,
    read_stream,
    run_suite,
    stream_header,
    suite_from_stream,
    validate_stream_header,
)
from repro.utils.atomic import atomic_write_text
from repro.analysis.spy import ascii_spy, band_profile
from repro.collections.registry import (
    UnknownProblemError,
    available_problems,
    load_problem,
    resolve_problems,
)
from repro.core.pipeline import reorder
from repro.eigen.fiedler import FIEDLER_METHODS, fiedler_vector
from repro.orderings.registry import ORDERING_ALGORITHMS, PAPER_ALGORITHMS
from repro.sparse.io_hb import read_harwell_boeing, write_harwell_boeing
from repro.sparse.io_mm import read_matrix_market, write_matrix_market
from repro.sparse.ops import permute_symmetric, structure_from_matrix

__all__ = ["main", "build_parser"]


def _load_input(source: str):
    """Load a matrix from a file path or a ``problem:NAME[@SCALE]`` reference.

    Returns ``(pattern, matrix_or_none, label)``: the structure, the
    values-carrying matrix when one exists (file inputs), and a display label.
    """
    if source.startswith("problem:"):
        reference = source[len("problem:") :]
        if "@" in reference:
            name, scale_text = reference.split("@", 1)
            scale = float(scale_text)
        else:
            name, scale = reference, None
        pattern, spec = load_problem(name, scale=scale)
        return pattern, None, f"{spec.name} surrogate (n={pattern.n})"
    lower = source.lower()
    if lower.endswith((".mtx", ".mm", ".mtx.gz")):
        matrix = read_matrix_market(source)
    elif lower.endswith((".rsa", ".psa", ".rua", ".pua", ".hb", ".rb")):
        matrix = read_harwell_boeing(source)
    else:
        # Try Matrix Market first, then Harwell-Boeing.
        try:
            matrix = read_matrix_market(source)
        except (ValueError, OSError):
            matrix = read_harwell_boeing(source)
    pattern = structure_from_matrix(matrix)
    return pattern, matrix, f"{source} (n={pattern.n})"


def _write_matrix(path: str, matrix) -> None:
    if path.lower().endswith((".rsa", ".psa", ".hb")):
        write_harwell_boeing(path, matrix)
    else:
        write_matrix_market(path, matrix)


def _cmd_reorder(args) -> int:
    pattern, matrix, label = _load_input(args.input)
    report = reorder(pattern, algorithm=args.algorithm, **_algorithm_options(args))
    stats_before, stats_after = report.original, report.statistics
    print(f"{label}: ordering algorithm = {args.algorithm}")
    print(f"  envelope size : {stats_before.envelope_size:,} -> {stats_after.envelope_size:,}")
    print(f"  envelope work : {stats_before.envelope_work:,} -> {stats_after.envelope_work:,}")
    print(f"  bandwidth     : {stats_before.bandwidth:,} -> {stats_after.bandwidth:,}")
    print(f"  ordering time : {report.run_time:.3f} s")
    if args.output_permutation:
        np.savetxt(args.output_permutation, report.ordering.perm, fmt="%d")
        print(f"  permutation written to {args.output_permutation}")
    if args.output_matrix:
        if matrix is None:
            matrix = pattern.to_scipy("pattern")
        _write_matrix(args.output_matrix, permute_symmetric(matrix, report.ordering.perm))
        print(f"  reordered matrix written to {args.output_matrix}")
    return 0


def _cmd_compare(args) -> int:
    pattern, _matrix, label = _load_input(args.input)
    algorithms = tuple(args.algorithms.split(",")) if args.algorithms else PAPER_ALGORITHMS
    unknown = [a for a in algorithms if a not in ORDERING_ALGORITHMS]
    if unknown:
        print(f"unknown algorithms: {unknown}; available: {sorted(ORDERING_ALGORITHMS)}",
              file=sys.stderr)
        return 2
    result = run_comparison(pattern, algorithms=algorithms, problem=label)
    print(format_table(result.rows, title=f"Ordering comparison — {label}"))
    print(f"\nSmallest envelope: {result.winner.upper()}")
    return 0


class _ProgressLine:
    """Live per-task progress on stderr: an updating ``\\r`` line on a TTY,
    one line per completed task otherwise."""

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr
        self.is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._width = 0

    def update(self, record, done: int, total: int) -> None:
        line = (
            f"[{done}/{total}] {record.problem}/{record.algorithm}: "
            f"{record.status} ({record.time_s:.2f} s)"
        )
        if self.is_tty:
            padding = " " * max(0, self._width - len(line))
            self._width = len(line)
            self.stream.write(f"\r{line}{padding}")
            self.stream.flush()
        else:
            print(line, file=self.stream)

    def finish(self) -> None:
        if self.is_tty and self._width:
            self.stream.write("\n")
            self.stream.flush()
            self._width = 0


def _load_artifact(path: str, role: str) -> "SuiteResult | int":
    """Load a results artifact for the CLI, or return exit code 2.

    The three failure modes get distinct messages: an unreadable file, a
    file that is not a results artifact at all, and a results artifact whose
    schema version this build cannot read.
    """
    try:
        return SuiteResult.load(path)
    except SchemaVersionError as exc:
        print(f"{role} {path}: results-schema mismatch: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read {role} file {path}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"{role} {path} is not a valid results artifact: {exc}", file=sys.stderr)
        return 2


def _activate_store(store_arg):
    """Resolve the persistent artifact store for a run, or ``None``.

    ``--store DIR`` is exported as ``REPRO_STORE`` (not just set in-process)
    so that suite worker processes inherit it and share the same cache
    directory; without the flag, an inherited ``REPRO_STORE`` still applies.
    """
    import os

    if store_arg:
        os.environ["REPRO_STORE"] = str(Path(store_arg))
    from repro.store import get_default_store

    return get_default_store()


def _store_stats_line(store) -> str:
    """One summary line of this process's store traffic (CI greps it)."""
    stats = store.stats
    line = (f"store {store.root}: {stats['hits']} hit(s), "
            f"{stats['misses']} miss(es), {stats['writes']} write(s), "
            f"{stats['corrupt']} corrupt evicted")
    if stats.get("quarantined"):
        line += f" ({stats['quarantined']} quarantined)"
    return line


def _activate_faults(spec_arg) -> "int | None":
    """Validate and activate ``--inject-faults SPEC``, or return exit code 2.

    The spec is exported as ``REPRO_FAULTS`` so worker processes inherit it,
    and the current process is protected from process-fatal sites (crash,
    hang) — a coordinator must observe worker deaths, not die of them.
    """
    if not spec_arg:
        return None
    import os

    from repro import faults

    try:
        plan = faults.FaultPlan.parse(spec_arg)
    except ValueError as exc:
        print(f"--inject-faults: {exc}", file=sys.stderr)
        return 2
    os.environ["REPRO_FAULTS"] = str(spec_arg)
    faults.reset_fault_plan()
    faults.protect_current_process()
    print(f"fault injection active: {plan.describe()}", file=sys.stderr)
    return None


def _activate_backend(backend_arg) -> "int | None":
    """Validate and activate ``--backend NAME``, or return exit code 2.

    The choice is exported as ``REPRO_BACKEND`` so suite worker processes
    inherit it (same pattern as ``REPRO_STORE`` / ``REPRO_FAULTS``).  An
    explicit request for an unavailable tier (``--backend numba`` without
    numba installed) is rejected up front with a structured message —
    in-process dispatch would otherwise silently fall back per kernel,
    which is the right behavior for an *inherited* environment variable
    but not for a flag the user just typed.
    """
    import os

    from repro import backends

    if backend_arg is None:
        # No flag: an inherited REPRO_BACKEND still applies; an unavailable
        # tier fails loudly here rather than silently falling back to numpy
        # inside workers.
        inherited = os.environ.get("REPRO_BACKEND", "").strip().lower()
        if inherited in backends.BACKENDS:
            try:
                backends.require_backend(inherited)
            except backends.BackendUnavailableError as exc:
                print(f"REPRO_BACKEND: {exc}", file=sys.stderr)
                return 2
        return None
    try:
        choice = backends.require_backend(backend_arg)
    except (ValueError, backends.BackendUnavailableError) as exc:
        print(f"--backend: {exc}", file=sys.stderr)
        return 2
    os.environ["REPRO_BACKEND"] = choice
    backends.set_backend(choice)
    print(f"kernel backend: {choice}", file=sys.stderr)
    return None


def _cmd_suite(args) -> int:
    failed_backend = _activate_backend(args.backend)
    if failed_backend is not None:
        return failed_backend
    store = _activate_store(args.store)
    failed_faults = _activate_faults(args.inject_faults)
    if failed_faults is not None:
        return failed_faults
    if args.table and args.problems:
        print("give either problem names or --table, not both", file=sys.stderr)
        return 2
    if args.table:
        problems = available_problems(args.table, paper_order=True)
    elif args.problems:
        # Names or fnmatch globs ('RANDOM/*', 'BCSSTK?[13]'); an unknown name
        # raises UnknownProblemError, which main() turns into exit code 2.
        problems = resolve_problems(args.problems)
    else:
        problems = available_problems()
    algorithms = tuple(args.algorithms.split(",")) if args.algorithms else PAPER_ALGORITHMS

    shard = None
    if args.shard:
        try:
            shard = parse_shard(args.shard)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2

    if args.retry_timeouts and args.timeout is None:
        print("--retry-timeouts needs --timeout (nothing can time out without "
              "a per-task limit)", file=sys.stderr)
        return 2

    timeout_auto = isinstance(args.timeout, str) and args.timeout.strip().lower() == "auto"
    timeout: "float | None" = None
    if args.timeout is not None and not timeout_auto:
        try:
            timeout = float(args.timeout)
        except ValueError:
            print(f"--timeout must be a number of seconds or 'auto', got "
                  f"{args.timeout!r}", file=sys.stderr)
            return 2

    cost_model = None
    if args.cost_model:
        try:
            cost_model = CostModel.from_file(args.cost_model)
        except OSError as exc:
            print(f"cannot read cost-model file {args.cost_model}: {exc}",
                  file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"cost model {args.cost_model}: {exc}", file=sys.stderr)
            return 2
    if args.balance == "cost" and cost_model is None:
        # No prior timings: the pure n*nnz fallback estimator still beats
        # round-robin on mixed-cost suites and stays deterministic.
        cost_model = CostModel()

    if timeout_auto:
        # Cost-model-derived per-cell limits: estimate x safety factor with a
        # 1 s floor; paper cells the model never directly observed get no
        # limit, while the analytic RANDOM/* families are always bounded.
        from repro.batch import auto_timeout

        auto_model = cost_model or CostModel()
        timeout = auto_timeout(auto_model)
        if len(auto_model) == 0:
            detail = (f"the cost model {args.cost_model} holds no usable timings"
                      if args.cost_model else "no cost model given (use --cost-model)")
            print(f"--timeout auto: {detail}; only analytic-size problems "
                  f"(RANDOM/*) get limits", file=sys.stderr)

    algorithm_options = None
    if args.fiedler_policy == "fast":
        # The rank-stability fast path of the spectral solvers; combinatorial
        # algorithms are unaffected.
        algorithm_options = {"spectral": {"tol_policy": "ordering"},
                             "hybrid": {"tol_policy": "ordering"}}

    normalized = [str(name).strip().upper() for name in problems]
    total_tasks = len(normalized) * len(algorithms)
    if shard is not None:
        index, count = shard
        if args.balance == "cost":
            try:
                full_tasks = build_tasks(normalized, algorithms,
                                         scale=args.scale, base_seed=args.seed)
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 2
            plan = plan_shards(full_tasks, count, cost_model)
            total_tasks = len(plan.shards[index - 1])
            print(f"cost balance ({plan.strategy} plan, "
                  f"{len(cost_model)} observation(s)): shard {index}/{count} gets "
                  f"{total_tasks} of {len(full_tasks)} task(s); estimated "
                  f"makespan {plan.makespan:.2f} s vs round-robin "
                  f"{plan.round_robin_makespan:.2f} s", file=sys.stderr)
        else:
            total_tasks = len(range(index - 1, total_tasks, count))
    expected_header = stream_header(
        normalized,
        list(algorithms),
        scale=args.scale,
        base_seed=args.seed,
        shard=shard,
        total_tasks=total_tasks,
        # The header pins how the *slice* was chosen, not the dispatch
        # flags: without --shard there is no slice selection, and plain
        # dispatch ordering never changes which cells run, so an unsharded
        # stream stays resumable whatever --balance/--cost-model say.
        balance=args.balance if shard is not None else "roundrobin",
        cost_fingerprint=(cost_model.fingerprint()
                          if shard is not None and args.balance == "cost"
                          else None),
    )

    stream_path = Path(args.stream_output) if args.stream_output else None
    resume_path = Path(args.resume) if args.resume else None
    completed = []
    if resume_path is not None:
        if not resume_path.exists() and resume_path == stream_path:
            # Idempotent first run: --resume pointing at the sink that does
            # not exist yet simply starts fresh.
            print(f"resume file {resume_path} not found; starting fresh",
                  file=sys.stderr)
        else:
            header = None
            try:
                header, completed = read_stream(resume_path)
            except OSError as exc:
                print(f"cannot read resume file {resume_path}: {exc}", file=sys.stderr)
                return 2
            except TruncatedStreamError as exc:
                # A run killed during its very first (header) write: no
                # records exist, so nothing is lost by starting fresh.
                print(f"{exc}", file=sys.stderr)
                completed = []
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 2
            if header is not None:
                try:
                    validate_stream_header(header, expected_header)
                except ValueError as exc:
                    print(f"cannot resume from {resume_path}: {exc}", file=sys.stderr)
                    return 2
                # Retried cells appear several times in an escalated stream;
                # only the final attempt counts (supersede semantics).
                completed = dedupe_records(completed)
                # Timeout records are machine/limit artifacts, not results:
                # retry those cells (possibly under a new --timeout) instead of
                # carrying the timeout forward.
                retry = [r for r in completed if r.timed_out]
                if retry:
                    completed = [r for r in completed if not r.timed_out]
                    print(f"retrying {len(retry)} timed-out cell(s) from {resume_path}",
                          file=sys.stderr)

    writer = None
    append = bool(completed) and resume_path == stream_path
    if stream_path is not None:
        writer = StreamWriter(stream_path, expected_header, append=append)
    progress = None
    if args.progress or (args.progress is None and sys.stderr.isatty()):
        progress = _ProgressLine()

    # run_suite replays reused records through on_record first; when
    # appending to the very file they came from, don't write them twice.
    skip_writes = {"remaining": len(completed) if append else 0}

    def on_record(record, done, total):
        if progress is not None:
            progress.update(record, done, total)
        if writer is not None:
            if skip_writes["remaining"] > 0:
                skip_writes["remaining"] -= 1
            else:
                writer.write_record(record)

    try:
        suite = run_suite(
            problems,
            algorithms,
            scale=args.scale,
            n_jobs=args.jobs,
            base_seed=args.seed,
            algorithm_options=algorithm_options,
            shard=shard,
            balance=args.balance,
            cost_model=cost_model,
            timeout=timeout,
            retry_timeouts=args.retry_timeouts,
            timeout_growth=args.timeout_growth,
            retry_crashes=args.retry_crashes,
            crash_backoff_s=args.retry_backoff,
            completed=completed,
            on_record=on_record,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        if progress is not None:
            progress.finish()
        if writer is not None:
            writer.close()

    print(suite.to_text())
    ok, failed = len(suite.ok_records), len(suite.failures)
    timed_out = len(suite.timeouts)
    crashed = sum(1 for r in suite.records
                  if (r.error or {}).get("type") == "WorkerCrashed")
    shard_label = f" (shard {shard[0]}/{shard[1]})" if shard else ""
    summary = (
        f"\n{ok + failed} task(s){shard_label} in {suite.wall_time_s:.2f} s "
        f"with {suite.n_jobs} job(s): {ok} ok, {failed} failed"
    )
    if timed_out:
        summary += f" ({timed_out} timed out)"
    if crashed:
        summary += f" ({crashed} crashed)"
    if completed:
        summary += f"; {len(completed)} reused from {resume_path}"
    print(summary)
    if store is not None:
        # Per-process counters: with --jobs > 1 the workers' hits/writes
        # accrue in the worker processes, not here.
        print(_store_stats_line(store))
    if args.output:
        suite.save(args.output)
        print(f"results written to {args.output}")
    if args.baseline:
        baseline = _load_artifact(args.baseline, "baseline")
        if isinstance(baseline, int):
            return baseline
        differences = baseline.diff(suite)
        if differences:
            print(f"{len(differences)} difference(s) vs baseline {args.baseline}:",
                  file=sys.stderr)
            for line in differences:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"matches baseline {args.baseline} (timing fields excluded)")
    return 1 if suite.failures else 0


def _load_stream_input(path: str, *, allow_partial: bool = False) -> "SuiteResult | int":
    """Load a JSONL stream file as a merge input, or return exit code 2.

    Retried cells (timeout records superseded by a later attempt) are
    deduped to the final attempt, so a stream written under
    ``--retry-timeouts`` merges cleanly.  With ``allow_partial`` a stream
    damaged mid-file (a torn shard, an injected ``store.torn``) loads
    anyway: the unreadable lines are dropped, counted, and warned about.
    """
    try:
        suite = suite_from_stream(path, allow_partial=allow_partial)
        if suite.partial:
            dropped = suite.partial.get("dropped_lines", 0)
            print(f"warning: shard stream {path}: dropped {dropped} "
                  f"damaged line(s) (--allow-partial)", file=sys.stderr)
        return suite
    except SchemaVersionError as exc:
        print(f"shard stream {path}: results-schema mismatch: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read shard stream file {path}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"shard stream {path} is not a valid stream file: {exc}", file=sys.stderr)
        return 2


def _load_merge_input(path: str, *, allow_partial: bool = False) -> "SuiteResult | int":
    """Load one merge input — artifact or stream, detected by content.

    A stream is whatever is not a single JSON document, or whose single
    document is a stream header (a run killed before its first record) —
    the same sniffing :meth:`CostModel.from_file` uses, so any file the
    suite wrote merges regardless of its extension.
    """
    import json

    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"cannot read shard artifact file {path}: {exc}", file=sys.stderr)
        return 2
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if payload is None or (isinstance(payload, dict) and payload.get("kind") == "header"):
        return _load_stream_input(path, allow_partial=allow_partial)
    return _load_artifact(path, "shard artifact")


def _cmd_merge(args) -> int:
    suites = []
    for path in args.inputs:
        suite = _load_merge_input(path, allow_partial=args.allow_partial)
        if isinstance(suite, int):
            return suite
        suites.append(suite)
    try:
        merged = merge_results(suites, allow_missing=args.allow_partial)
    except ValueError as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 2
    output = Path(args.output)
    atomic_write_text(output, merged.to_json(include_timing=not args.canonical))
    form = "canonical (timing-free)" if args.canonical else "full"
    print(
        f"merged {len(merged.records)} record(s) from {len(suites)} artifact(s) "
        f"into {output} ({form} form)"
    )
    if merged.partial:
        losses = ", ".join(f"{k}={v}" for k, v in sorted(merged.partial.items()))
        print(f"warning: merged artifact is partial ({losses}); rerun the "
              f"affected shards and merge again for a complete suite",
              file=sys.stderr)
    failed = len(merged.failures)
    if failed:
        print(f"warning: {failed} non-ok record(s) in the merged suite",
              file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import (
        bench_revision,
        default_artifact_path,
        diff_bench,
        format_diff,
        format_trend,
        load_bench,
        run_bench,
        save_bench,
        trend_bench,
    )

    if args.trend is not None:
        # Pure artifact analysis: no kernels run, no store or backend needed.
        if len(args.trend) < 2:
            print("--trend needs at least two bench artifacts", file=sys.stderr)
            return 2
        artifacts = []
        for path in args.trend:
            try:
                artifacts.append(load_bench(path))
            except OSError as exc:
                print(f"cannot read bench artifact {path}: {exc}", file=sys.stderr)
                return 2
            except ValueError as exc:
                print(str(exc), file=sys.stderr)
                return 2
        print(format_trend(trend_bench(artifacts)))
        return 0

    failed_backend = _activate_backend(args.backend)
    if failed_backend is not None:
        return failed_backend
    store = _activate_store(args.store)
    if args.repeats is not None and args.repeats < 1:
        print(f"--repeats must be a positive integer, got {args.repeats}",
              file=sys.stderr)
        return 2
    baseline = None
    if args.against:
        try:
            baseline = load_bench(args.against)
        except OSError as exc:
            print(f"cannot read baseline file {args.against}: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    def on_result(entry):
        print(f"  {entry['name']:<44} best {entry['best_s']:.4f} s "
              f"(mean {entry['mean_s']:.4f} s over {entry['repeats']})",
              file=sys.stderr)

    rev = bench_revision()
    mode = "quick" if args.quick else "full"
    print(f"repro bench ({mode} micro-suite, rev {rev})", file=sys.stderr)
    artifact = run_bench(
        quick=args.quick,
        repeats=args.repeats,
        name_filter=args.filter,
        include_suite=not args.no_suite,
        on_result=on_result,
        rev=rev,
        fiedler_policy=args.fiedler_policy,
    )
    output = Path(args.output) if args.output else default_artifact_path(rev)
    save_bench(artifact, output)
    print(f"bench artifact written to {output} "
          f"({len(artifact['kernels'])} kernels, {artifact['total_s']:.1f} s total)")
    if store is not None:
        print(_store_stats_line(store))

    if args.export_cost_model:
        model = CostModel()
        model.observe_bench(artifact)
        model.save(args.export_cost_model)
        print(f"cost model ({len(model)} observation(s)) written to "
              f"{args.export_cost_model} — feed it to "
              f"'repro suite --balance cost --cost-model {args.export_cost_model}'")

    if baseline is not None:
        diff = diff_bench(baseline, artifact, threshold=args.threshold)
        print(format_diff(diff))
        policies = diff["fiedler_policies"]
        if policies[0] != policies[1]:
            print(f"cannot gate: baseline was recorded with --fiedler-policy "
                  f"{policies[0]} but this run used {policies[1]} — the "
                  f"timings are not like-for-like (rerun with a matching "
                  f"policy or record a new baseline)", file=sys.stderr)
            return 2
        if args.gate == "geomean":
            floor = 1.0 / (1.0 + args.threshold)
            if diff["gate_geomean_speedup"] < floor:
                print(f"geomean gate failed: {diff['gate_geomean_speedup']:.2f}x "
                      f"< {floor:.2f}x (threshold {args.threshold:.0%})",
                      file=sys.stderr)
                return 1
        elif diff["regressions"]:
            return 1
    return 0


def _cmd_cache(args) -> int:
    from repro.store import ArtifactStore, set_default_store

    if args.store:
        store = ArtifactStore(args.store)
    else:
        store = _activate_store(None)
    if store is None:
        print("no store configured: pass --store DIR or set REPRO_STORE",
              file=sys.stderr)
        return 2

    if args.cache_command == "clear":
        removed = store.clear(include_quarantine=args.quarantine)
        scope = " (incl. quarantine)" if args.quarantine else ""
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {store.root}{scope}")
        return 0

    if args.cache_command == "ls":
        rows = store.entries()
        if not rows:
            print(f"store {store.root}: empty")
            return 0
        print(f"{'KEY':<14} {'KIND':<12} {'VER':>3} {'BYTES':>10}  DIGEST")
        for row in rows:
            version = "?" if row["builder_version"] is None else row["builder_version"]
            print(f"{row['key'][:12]:<14} {row['kind']:<12} {version!s:>3} "
                  f"{row['bytes']:>10,}  {row['pattern_digest'][:12]}")
        print(f"{len(rows)} entr{'y' if len(rows) == 1 else 'ies'}")
        return 0

    if args.cache_command == "info":
        import json

        info = store.info()
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
            return 0
        print(f"store {info['root']} (schema v{info['store_schema']}): "
              f"{info['entries']} entr{'y' if info['entries'] == 1 else 'ies'}, "
              f"{info['bytes']:,} bytes")
        for kind in sorted(info["kinds"]):
            bucket = info["kinds"][kind]
            print(f"  {kind:<12} {bucket['entries']:>5} entr"
                  f"{'y' if bucket['entries'] == 1 else 'ies'} "
                  f"{bucket['bytes']:>12,} bytes")
        quarantine = info.get("quarantine") or {}
        if quarantine.get("entries"):
            print(f"  quarantine   {quarantine['entries']:>5} entr"
                  f"{'y' if quarantine['entries'] == 1 else 'ies'} "
                  f"{quarantine['bytes']:>12,} bytes "
                  f"(corrupt entries moved aside; "
                  f"'repro cache clear --quarantine' removes them)")
        return 0

    # prewarm: build each problem's structural plan into the store so a
    # later suite/bench run starts warm.  Fiedler/hierarchy entries key on
    # solver configuration and rng state, so they populate on first real use.
    from repro.eigen.workspace import spectral_workspace
    from repro.store import spectral as codecs

    names = args.problems or available_problems()
    set_default_store(store)
    failures = 0
    for name in names:
        try:
            pattern, spec = load_problem(name, scale=args.scale)
        except (KeyError, ValueError) as exc:
            print(f"  {name}: {exc}", file=sys.stderr)
            failures += 1
            continue
        try:
            codecs.save_pattern(store, spec.name, args.scale, pattern)
        except OSError as exc:
            print(f"cannot write to store {store.root}: {exc}", file=sys.stderr)
            return 2
        workspace = spectral_workspace(pattern)
        workspace.laplacian()
        workspace.components()
        workspace.component_split()
        # Per-component subpatterns carry their own workspaces; warm the
        # nontrivial ones too (they are what the spectral ordering solves).
        for _vertices, sub in workspace.component_split():
            if sub is not None and sub is not pattern:
                sub_ws = spectral_workspace(sub)
                sub_ws.laplacian()
                sub_ws.components()
        print(f"  {spec.name}: n={pattern.n} prewarmed "
              f"(pattern, laplacian, components, split)")
    print(_store_stats_line(store))
    return 1 if failures else 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import ServeConfig

    failed_backend = _activate_backend(args.backend)
    if failed_backend is not None:
        return failed_backend
    _activate_store(args.store)
    failed_faults = _activate_faults(args.inject_faults)
    if failed_faults is not None:
        return failed_faults
    try:
        kwargs = {} if args.max_inline_n is None else {"max_inline_n": args.max_inline_n}
        config = ServeConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_queue=args.queue_depth,
            timeout=args.timeout,
            journal=args.journal,
            retry_after_s=args.retry_after,
            read_timeout_s=args.read_timeout,
            allow_delay=not args.no_debug_delay,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown,
            drain_grace_s=args.drain_grace,
            **kwargs,
        )
        asyncio.run(_serve_main(config))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot serve on {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    return 0


async def _serve_main(config) -> None:
    import asyncio
    import signal as _signal

    from repro.serve import OrderingServer

    server = OrderingServer(config)
    await server.start()
    # The listening line is the boot handshake: tests and scripts that
    # start the server with --port 0 parse the real port out of it.
    print(f"repro serve: listening on http://{config.host}:{server.port} "
          f"(workers={config.workers}, queue-depth={config.max_queue})",
          flush=True)
    if config.journal:
        print(f"repro serve: job journal at {config.journal} "
              f"({server.replayed_jobs} finished job(s) replayed, "
              f"{server.replay_skipped} line(s) skipped)", flush=True)
    loop = asyncio.get_running_loop()
    drain_handler = False
    try:
        # SIGTERM means graceful drain: stop admitting orders, answer
        # everything in flight, flush the journal, exit 0.  SIGINT keeps its
        # default KeyboardInterrupt (immediate stop for interactive use).
        loop.add_signal_handler(_signal.SIGTERM, server.begin_drain)
        drain_handler = True
    except (NotImplementedError, RuntimeError):
        pass  # platforms without loop signal handlers keep default SIGTERM
    try:
        await server.run_until_drained()
        print(f"repro serve: drained ({server.counters['computations']} "
              f"computation(s) served); exiting", flush=True)
    finally:
        if drain_handler:
            loop.remove_signal_handler(_signal.SIGTERM)
        await server.close()


def _order_request_payload(args) -> dict:
    """The ``/v1/order`` JSON document of one ``repro order`` invocation.

    ``problem:`` references travel as registry names (so the server's
    problem cache and coalescing see them); file inputs are loaded locally
    and travel as inline CSR — the exact structure, whatever the file
    format, so the server computes on identical input.
    """
    payload: dict = {
        "algorithm": args.algorithm,
        "base_seed": args.base_seed,
        "options": _algorithm_options(args),
        "include_permutation": True,
    }
    if args.timeout_s is not None:
        payload["timeout_s"] = args.timeout_s
    if args.input.startswith("problem:"):
        reference = args.input[len("problem:"):]
        if "@" in reference:
            name, scale_text = reference.split("@", 1)
            payload["scale"] = float(scale_text)
        else:
            name = reference
        payload["problem"] = name.strip().upper()
    else:
        pattern, _matrix, _label = _load_input(args.input)
        payload["csr"] = {
            "n": int(pattern.n),
            "indptr": [int(i) for i in pattern.indptr],
            "indices": [int(i) for i in pattern.indices],
        }
    return payload


def _order_result_json(record_dict: dict, permutation) -> str:
    import json

    return json.dumps({"record": record_dict, "permutation": permutation},
                      sort_keys=True)


def _print_order_result(record_dict: dict, source: str) -> None:
    metrics = record_dict.get("metrics") or {}
    print(f"{record_dict['problem']}: {record_dict['algorithm']} ordering "
          f"({source})")
    print(f"  status        : {record_dict['status']}")
    if record_dict["status"] == "ok":
        print(f"  n / nnz       : {record_dict['n']:,} / {record_dict['nnz']:,}")
        print(f"  envelope size : {metrics.get('envelope_size', 0):,}")
        print(f"  envelope work : {metrics.get('envelope_work', 0):,}")
        print(f"  bandwidth     : {metrics.get('bandwidth', 0):,}")
        if "time_s" in record_dict:
            print(f"  ordering time : {record_dict['time_s']:.3f} s")
    else:
        error = record_dict.get("error") or {}
        print(f"  error         : {error.get('type')}: {error.get('message')}")


def _cmd_order(args) -> int:
    import numpy as _np

    if args.server:
        from repro.serve import ServerClient, ServerError

        try:
            payload = _order_request_payload(args)
        except (OSError, ValueError) as exc:
            print(f"cannot load {args.input}: {exc}", file=sys.stderr)
            return 2
        client = ServerClient(args.server, timeout=args.client_timeout)
        try:
            if args.retries:
                response = client.order_with_retries(
                    payload, retries=args.retries, backoff_s=args.retry_backoff
                )
            else:
                response = client.order(payload)
        except ServerError as exc:
            print(exc, file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"cannot reach server {args.server}: {exc}", file=sys.stderr)
            return 2
        record_dict = response["record"]
        permutation = response.get("permutation")
        source = f"server {args.server}"
    else:
        from repro.batch import build_task, execute_task
        from repro.serve import inline_label
        from repro.store.spectral import pattern_digest

        scale = None
        if args.input.startswith("problem:"):
            reference = args.input[len("problem:"):]
            name, _, scale_text = reference.partition("@")
            scale = float(scale_text) if scale_text else None
            label, pattern = name.strip().upper(), None
            registered = True
        else:
            try:
                pattern, _matrix, _label = _load_input(args.input)
            except (OSError, ValueError) as exc:
                print(f"cannot load {args.input}: {exc}", file=sys.stderr)
                return 2
            label, registered = inline_label(pattern_digest(pattern)), False
        try:
            task = build_task(label, args.algorithm, scale=scale,
                              options=_algorithm_options(args),
                              base_seed=args.base_seed,
                              check_problem=registered)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        record = execute_task(task, pattern=pattern)
        record_dict = record.to_dict(include_timing=True)
        permutation = ([int(p) for p in record.ordering.perm]
                       if record.ok and record.ordering is not None else None)
        source = "in-process"

    if args.json:
        print(_order_result_json(record_dict, permutation))
    else:
        _print_order_result(record_dict, source)
    if args.output_permutation and permutation is not None:
        _np.savetxt(args.output_permutation, _np.asarray(permutation), fmt="%d")
        if not args.json:
            print(f"  permutation written to {args.output_permutation}")
    return 0 if record_dict.get("status") == "ok" else 1


def _cmd_chaos(args) -> int:
    from repro import chaos

    if args.chaos_command == "suite":
        return chaos.run_chaos_suite(args)
    try:
        return chaos.run_chaos_serve(args)
    except RuntimeError as exc:
        print(f"chaos serve: {exc}", file=sys.stderr)
        return 1


def _cmd_spy(args) -> int:
    pattern, _matrix, label = _load_input(args.input)
    perm = None
    if args.algorithm != "original":
        perm = ORDERING_ALGORITHMS[args.algorithm](pattern).perm
    profile = band_profile(pattern, perm)
    print(f"{label} — {args.algorithm.upper()} ordering")
    print(
        f"envelope={profile['envelope_size']:,}  bandwidth={profile['bandwidth']:,}  "
        f"mean row width={profile['mean_row_width']:.1f}"
    )
    print(ascii_spy(pattern, perm, resolution=args.resolution))
    return 0


def _cmd_fiedler(args) -> int:
    pattern, _matrix, label = _load_input(args.input)
    result = fiedler_vector(pattern, method=args.method, tol=args.tol)
    print(f"{label}")
    print(f"  method              : {result.method}")
    print(f"  algebraic connectivity (lambda_2): {result.eigenvalue:.6e}")
    print(f"  residual            : {result.residual_norm:.2e}")
    print(f"  converged           : {result.converged}")
    if args.output_vector:
        np.savetxt(args.output_vector, result.eigenvector)
        print(f"  eigenvector written to {args.output_vector}")
    return 0


def _cmd_fetch(args) -> int:
    from repro.collections.external import fetch_url, ingest_file, suitesparse_url
    from repro.store.download import DownloadCache

    cache = DownloadCache(args.cache)
    if args.register and args.no_ingest:
        print("--register needs the ingest step; drop --no-ingest", file=sys.stderr)
        return 2
    try:
        url = args.ref if "://" in args.ref else suitesparse_url(args.ref, fmt=args.fmt)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        record = fetch_url(url, cache=cache, force=args.force)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:  # URLError subclasses OSError
        print(f"cannot fetch {url}: {exc}", file=sys.stderr)
        return 1
    print(f"fetched {record['url']}")
    print(f"  cached: {record['path']}")
    print(f"  sha256: {record['sha256']}")
    print(f"  size:   {record['size']} bytes")
    if args.no_ingest:
        return 0
    try:
        pattern, meta = ingest_file(record["path"], filename=record["filename"])
    except (ValueError, OSError) as exc:
        print(f"cannot ingest {record['path']}: {exc}", file=sys.stderr)
        return 1
    print(f"  matrix: {meta['member']} ({meta['format']})")
    print(f"  n={pattern.n} nnz={pattern.nnz} max_degree={pattern.max_degree()}")
    if args.output:
        write_matrix_market(args.output, pattern.to_scipy(), field="pattern")
        print(f"  wrote pattern to {args.output}")
    if args.register:
        from repro.collections.external import register_external

        try:
            spec = register_external(
                args.register, pattern,
                meta={**meta, "source_url": record["url"],
                      "sha256": record["sha256"]},
            )
        except ValueError as exc:
            print(f"--register: {exc}", file=sys.stderr)
            return 2
        print(f"  registered as {spec.name} — run it with e.g. "
              f"\"repro suite '{spec.name}'\" or "
              f"\"repro reorder 'problem:{spec.name}'\"")
    return 0


def _cmd_problems(_args) -> int:
    print("Registered surrogate problems (use as problem:NAME[@SCALE]):")
    for table in ("4.1", "4.2", "4.3"):
        names = ", ".join(available_problems(table))
        print(f"  Table {table}: {names}")
    names = ", ".join(available_problems("random"))
    print(f"  Random families: {names}")
    external = available_problems("external")
    if external:
        print(f"  External (fetched): {', '.join(external)}")
    print("Suite problem arguments accept globs, e.g. repro suite 'RANDOM/*'.")
    print("External matrices: repro fetch Group/Name --register NAME "
          "(SuiteSparse collection) makes them suite problems as EXT/NAME.")
    return 0


def _algorithm_options(args) -> dict:
    options = {}
    if getattr(args, "method", None) and args.algorithm in ("spectral", "hybrid"):
        options["method"] = args.method
    return options


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spectral envelope reduction of sparse matrices (Barnard, Pothen & Simon, SC'93)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reorder_parser = sub.add_parser("reorder", help="compute an envelope-reducing ordering")
    reorder_parser.add_argument("input", help="matrix file or problem:NAME[@SCALE]")
    reorder_parser.add_argument(
        "--algorithm", default="spectral", choices=sorted(ORDERING_ALGORITHMS)
    )
    reorder_parser.add_argument("--method", default=None, choices=FIEDLER_METHODS,
                                help="eigensolver for the spectral/hybrid algorithms")
    reorder_parser.add_argument("--output-permutation", default=None,
                                help="write the new-to-old permutation to this file")
    reorder_parser.add_argument("--output-matrix", default=None,
                                help="write the reordered matrix (MatrixMarket or Harwell-Boeing)")
    reorder_parser.set_defaults(func=_cmd_reorder)

    compare_parser = sub.add_parser("compare", help="compare ordering algorithms (Table 4.x style)")
    compare_parser.add_argument("input", help="matrix file or problem:NAME[@SCALE]")
    compare_parser.add_argument("--algorithms", default=None,
                                help="comma-separated list (default: spectral,gk,gps,rcm)")
    compare_parser.set_defaults(func=_cmd_compare)

    suite_parser = sub.add_parser(
        "suite", help="run the problems x algorithms batch suite (parallel engine)"
    )
    suite_parser.add_argument("problems", nargs="*",
                              help="registered problem names or globs, e.g. "
                                   "'RANDOM/*' (default: all paper problems)")
    suite_parser.add_argument("--table", default=None,
                              choices=["4.1", "4.2", "4.3", "random"],
                              help="run every problem of one paper table, or "
                                   "every random-graph family")
    suite_parser.add_argument("--algorithms", default=None,
                              help="comma-separated list (default: spectral,gk,gps,rcm)")
    suite_parser.add_argument("--scale", type=float, default=None,
                              help="surrogate scale (default: registry default)")
    suite_parser.add_argument("--jobs", type=int, default=1,
                              help="worker processes (1 = serial, identical results)")
    suite_parser.add_argument("--seed", type=int, default=0,
                              help="base seed of the deterministic per-task seeding")
    suite_parser.add_argument("--shard", default=None, metavar="K/N",
                              help="run only the k-th of N disjoint task slices "
                                   "(merge the artifacts with 'repro merge')")
    suite_parser.add_argument("--balance", default="roundrobin",
                              choices=["roundrobin", "cost"],
                              help="how --shard splits the task list: stable "
                                   "round-robin slices, or the greedy LPT plan "
                                   "balanced on estimated per-cell cost")
    suite_parser.add_argument("--cost-model", default=None, metavar="COSTS.json",
                              help="per-cell cost table feeding --balance cost and "
                                   "the longest-first dispatcher; accepts a cost "
                                   "model, results artifact, bench artifact or "
                                   "JSONL stream")
    suite_parser.add_argument("--timeout", default=None, metavar="SECONDS|auto",
                              help="per-task wall-clock limit; overrunning tasks are "
                                   "killed and recorded with status 'timeout'. "
                                   "'auto' derives per-cell limits from the cost "
                                   "model (estimate x 10, floor 1 s; cells without "
                                   "a prior observation get no limit)")
    suite_parser.add_argument("--retry-timeouts", type=int, default=0, metavar="R",
                              help="escalation rounds for timed-out cells: re-run "
                                   "them with the limit grown by --timeout-growth, "
                                   "appending superseding records to the stream")
    suite_parser.add_argument("--timeout-growth", type=float, default=2.0, metavar="G",
                              help="timeout multiplier per escalation round "
                                   "(default 2.0)")
    suite_parser.add_argument("--retry-crashes", type=int, default=0, metavar="R",
                              help="re-run cells whose worker process died "
                                   "(OOM kill, segfault, injected crash) up to "
                                   "R times with exponential backoff, appending "
                                   "superseding records to the stream")
    suite_parser.add_argument("--retry-backoff", type=float, default=0.1,
                              metavar="SECONDS",
                              help="initial crash-retry backoff; doubles per "
                                   "round with jitter (default 0.1)")
    suite_parser.add_argument("--inject-faults", default=None, metavar="SPEC",
                              help="activate deterministic fault injection "
                                   "(exported as REPRO_FAULTS; see "
                                   "docs/robustness.md for the grammar)")
    suite_parser.add_argument("--output", default=None,
                              help="write the versioned JSON results artifact here")
    suite_parser.add_argument("--stream-output", default=None, metavar="PATH.jsonl",
                              help="append each record to this JSONL file as it "
                                   "completes (crash-safe incremental sink)")
    suite_parser.add_argument("--resume", default=None, metavar="PATH.jsonl",
                              help="reuse the completed records of a killed run's "
                                   "--stream-output file and run only the rest")
    suite_parser.add_argument("--fiedler-policy", default="default",
                              choices=["default", "fast"],
                              help="'fast' runs the spectral/hybrid cells with the "
                                   "rank-stability stopping rule (tol_policy="
                                   "'ordering'): same ordering quality class, much "
                                   "cheaper eigensolves; results on large problems "
                                   "are not byte-comparable with default-policy "
                                   "baselines")
    suite_parser.add_argument("--store", default=None, metavar="DIR",
                              help="persistent artifact store directory: spill "
                                   "Laplacians, component splits, hierarchies and "
                                   "converged Fiedler vectors there and reload them "
                                   "across runs and worker processes (exported as "
                                   "REPRO_STORE; results are byte-identical with "
                                   "the store on or off)")
    suite_parser.add_argument("--backend", default=None,
                              choices=["numpy", "python", "numba"],
                              help="kernel backend tier (default: numpy; "
                                   "exported as REPRO_BACKEND so workers "
                                   "inherit it): 'python' runs the loop "
                                   "reference kernels, 'numba' compiles them "
                                   "and exits 2 without numba; results are "
                                   "bit-identical across tiers")
    suite_parser.add_argument("--baseline", default=None,
                              help="diff against a saved results.json (exit 1 on drift)")
    suite_parser.add_argument("--progress", default=None, action=argparse.BooleanOptionalAction,
                              help="live per-task progress on stderr "
                                   "(default: only when stderr is a terminal)")
    suite_parser.set_defaults(func=_cmd_suite)

    merge_parser = sub.add_parser(
        "merge", help="recombine shard artifacts of a distributed suite run"
    )
    merge_parser.add_argument("inputs", nargs="+", metavar="SHARD.json",
                              help="shard artifacts written by 'repro suite --shard "
                                   "K/N', or .jsonl stream files (retried cells "
                                   "deduped to the final attempt)")
    merge_parser.add_argument("--output", required=True,
                              help="write the merged JSON results artifact here")
    merge_parser.add_argument("--canonical", action="store_true",
                              help="write the canonical (timing-free) form, the one "
                                   "golden tests compare byte-for-byte")
    merge_parser.add_argument("--allow-partial", action="store_true",
                              help="tolerate torn/damaged shard streams and "
                                   "missing cells: drop what cannot be read, "
                                   "warn, and record the losses under the "
                                   "merged artifact's 'partial' key")
    merge_parser.set_defaults(func=_cmd_merge)

    bench_parser = sub.add_parser(
        "bench", help="run the pinned perf micro-suite (BENCH_<rev>.json artifact)"
    )
    bench_parser.add_argument("--quick", action="store_true",
                              help="smaller scales, one repeat (CI smoke variant)")
    bench_parser.add_argument("--repeats", type=int, default=None,
                              help="timed runs per kernel (default: 3, or 2 with --quick)")
    bench_parser.add_argument("--filter", default=None, metavar="SUBSTR",
                              help="run only kernels whose name contains SUBSTR "
                                   "(skips the suite section)")
    bench_parser.add_argument("--no-suite", action="store_true",
                              help="skip the per-cell suite timing section")
    bench_parser.add_argument("--output", default=None,
                              help="artifact path (default: BENCH_<rev>.json)")
    bench_parser.add_argument("--export-cost-model", default=None, metavar="COSTS.json",
                              help="also write a per-cell cost model fit from this "
                                   "run, for 'repro suite --balance cost'")
    bench_parser.add_argument("--against", default=None, metavar="BENCH.json",
                              help="diff this run against a saved artifact; "
                                   "exit 1 on regressions beyond --threshold")
    bench_parser.add_argument("--threshold", type=float, default=0.25,
                              help="relative slowdown flagged as a regression "
                                   "(default 0.25 = 25%%)")
    bench_parser.add_argument("--gate", default="kernel", choices=["kernel", "geomean"],
                              help="what fails a --against run: any per-kernel "
                                   "regression beyond --threshold (default), or "
                                   "only a geomean slowdown beyond --threshold "
                                   "over kernels above the noise floor (the CI "
                                   "smoke gate — robust to single-kernel jitter)")
    bench_parser.add_argument("--fiedler-policy", default="default",
                              choices=["default", "fast"],
                              help="'fast' times the spectral/eigen kernels under "
                                   "the rank-stability stopping rule; recorded in "
                                   "the artifact config")
    bench_parser.add_argument("--store", default=None, metavar="DIR",
                              help="persistent artifact store directory shared "
                                   "across repeats/runs (exported as REPRO_STORE); "
                                   "note: warm structural artifacts change what a "
                                   "timed kernel measures, so compare like against "
                                   "like")
    bench_parser.add_argument("--backend", default=None,
                              choices=["numpy", "python", "numba"],
                              help="kernel backend tier to time (default: "
                                   "numpy; recorded in the artifact config; "
                                   "diff a numpy artifact --against a numba "
                                   "one to measure the compiled-tier speedup)")
    bench_parser.add_argument("--trend", default=None, nargs="+",
                              metavar="BENCH.json",
                              help="no bench run: chart the kernel-group geomean "
                                   "speedup trajectory across two or more saved "
                                   "artifacts (sorted by their recorded creation "
                                   "time) and exit")
    bench_parser.set_defaults(func=_cmd_bench)

    cache_parser = sub.add_parser(
        "cache", help="inspect and manage the persistent artifact store"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)

    def _cache_store_option(sub_parser):
        sub_parser.add_argument("--store", default=None, metavar="DIR",
                                help="store directory (default: $REPRO_STORE)")

    cache_ls = cache_sub.add_parser("ls", help="list the store's entries")
    _cache_store_option(cache_ls)
    cache_ls.set_defaults(func=_cmd_cache)
    cache_info = cache_sub.add_parser(
        "info", help="aggregate per-kind entry counts/bytes and process stats"
    )
    _cache_store_option(cache_info)
    cache_info.add_argument("--json", action="store_true",
                            help="machine-readable output (CI stats artifact)")
    cache_info.set_defaults(func=_cmd_cache)
    cache_prewarm = cache_sub.add_parser(
        "prewarm", help="build problems' structural plans into the store"
    )
    cache_prewarm.add_argument("problems", nargs="*",
                               help="registered problem names (default: all)")
    cache_prewarm.add_argument("--scale", type=float, default=None,
                               help="surrogate scale (default: registry default)")
    _cache_store_option(cache_prewarm)
    cache_prewarm.set_defaults(func=_cmd_cache)
    cache_clear = cache_sub.add_parser("clear", help="delete every store entry")
    _cache_store_option(cache_clear)
    cache_clear.add_argument("--quarantine", action="store_true",
                             help="also delete quarantined (corrupt) entries")
    cache_clear.set_defaults(func=_cmd_cache)

    chaos_parser = sub.add_parser(
        "chaos", help="run the suite or a server soak under injected faults "
                      "and assert the resilience invariants"
    )
    chaos_sub = chaos_parser.add_subparsers(dest="chaos_command", required=True)

    chaos_suite = chaos_sub.add_parser(
        "suite", help="faulty suite run, then byte-compare against a "
                      "fault-free serial run"
    )
    chaos_suite.add_argument("problems", nargs="*",
                             help="registered problem names "
                                  "(default: POW9 BARTH4)")
    chaos_suite.add_argument("--algorithms", default=None,
                             help="comma-separated list (default: paper set)")
    chaos_suite.add_argument("--scale", type=float, default=0.05,
                             help="surrogate scale (default 0.05 — chaos runs "
                                  "exercise machinery, not problem size)")
    chaos_suite.add_argument("--jobs", type=int, default=2,
                             help="worker processes for the faulty run")
    chaos_suite.add_argument("--seed", type=int, default=0,
                             help="suite base seed (both runs)")
    chaos_suite.add_argument("--timeout", type=float, default=30.0,
                             help="per-task limit of the faulty run (catches "
                                  "injected hangs)")
    chaos_suite.add_argument("--retry-timeouts", type=int, default=2,
                             help="timeout escalation rounds")
    chaos_suite.add_argument("--retry-crashes", type=int, default=5,
                             help="crash retry rounds")
    chaos_suite.add_argument("--retry-backoff", type=float, default=0.05,
                             metavar="SECONDS",
                             help="initial crash-retry backoff")
    chaos_suite.add_argument("--inject-faults", required=True, metavar="SPEC",
                             help="the fault spec to run under (required; see "
                                  "docs/robustness.md)")
    chaos_suite.add_argument("--events", default=None, metavar="PATH.jsonl",
                             help="write one JSONL event per fired fault here "
                                  "(truncated first; CI uploads it)")
    chaos_suite.add_argument("--output", default=None,
                             help="also write the faulty run's canonical "
                                  "artifact here")
    chaos_suite.set_defaults(func=_cmd_chaos)

    chaos_serve = chaos_sub.add_parser(
        "serve", help="soak a faulty 'repro serve' subprocess, then prove "
                      "the SIGTERM graceful drain"
    )
    chaos_serve.add_argument("problems", nargs="*",
                             help="registered problem names the soak rotates "
                                  "through (default: POW9 BARTH4)")
    chaos_serve.add_argument("--algorithms", default=None,
                             help="comma-separated list (default: paper set)")
    chaos_serve.add_argument("--requests", type=int, default=12,
                             help="soak requests to drive to an ok answer")
    chaos_serve.add_argument("--workers", type=int, default=2,
                             help="server worker pool size")
    chaos_serve.add_argument("--scale", type=float, default=0.05,
                             help="surrogate scale of the soak cells")
    chaos_serve.add_argument("--retries", type=int, default=6,
                             help="client retry budget per request (both the "
                                  "transport retries and the outer "
                                  "crashed-answer rounds)")
    chaos_serve.add_argument("--retry-backoff", type=float, default=0.2,
                             metavar="SECONDS",
                             help="initial client retry backoff")
    chaos_serve.add_argument("--breaker-threshold", type=int, default=3,
                             help="server circuit-breaker crash threshold")
    chaos_serve.add_argument("--breaker-cooldown", type=float, default=1.5,
                             metavar="SECONDS",
                             help="server breaker cooldown (kept short so the "
                                  "soak rides through open/half-open cycles)")
    chaos_serve.add_argument("--drain-grace", type=float, default=20.0,
                             metavar="SECONDS",
                             help="server drain grace period")
    chaos_serve.add_argument("--inject-faults", required=True, metavar="SPEC",
                             help="the fault spec the server runs under")
    chaos_serve.add_argument("--events", default=None, metavar="PATH.jsonl",
                             help="fired-fault event log (truncated first)")
    chaos_serve.add_argument("--journal", default=None, metavar="PATH.jsonl",
                             help="server job journal path (default: a "
                                  "temporary file; the drain proof replays it)")
    chaos_serve.set_defaults(func=_cmd_chaos)

    spy_parser = sub.add_parser("spy", help="ASCII structure plot under an ordering")
    spy_parser.add_argument("input", help="matrix file or problem:NAME[@SCALE]")
    spy_parser.add_argument("--algorithm", default="original",
                            choices=["original"] + sorted(ORDERING_ALGORITHMS))
    spy_parser.add_argument("--resolution", type=int, default=48)
    spy_parser.set_defaults(func=_cmd_spy)

    fiedler_parser = sub.add_parser("fiedler", help="compute the Fiedler value/vector")
    fiedler_parser.add_argument("input", help="matrix file or problem:NAME[@SCALE]")
    fiedler_parser.add_argument("--method", default="auto", choices=FIEDLER_METHODS)
    fiedler_parser.add_argument("--tol", type=float, default=1e-8)
    fiedler_parser.add_argument("--output-vector", default=None)
    fiedler_parser.set_defaults(func=_cmd_fiedler)

    problems_parser = sub.add_parser("problems", help="list the registered surrogate problems")
    problems_parser.set_defaults(func=_cmd_problems)

    fetch_parser = sub.add_parser(
        "fetch",
        help="download an external matrix (SuiteSparse collection) through the "
             "content-addressed cache and ingest it",
    )
    fetch_parser.add_argument("ref",
                              help="collection reference 'Group/Name' "
                                   "(e.g. HB/bcsstk13) or a full URL")
    fetch_parser.add_argument("--format", dest="fmt", default="mm",
                              choices=["mm", "rb"],
                              help="collection packaging: Matrix Market or "
                                   "Rutherford-Boeing (default: mm)")
    fetch_parser.add_argument("--cache", default=None,
                              help="download cache directory (default: "
                                   "REPRO_FETCH_CACHE or ~/.cache/repro/fetch)")
    fetch_parser.add_argument("--force", action="store_true",
                              help="re-download even when the URL is cached")
    fetch_parser.add_argument("--no-ingest", action="store_true",
                              help="only download and cache, skip parsing")
    fetch_parser.add_argument("--output", default=None,
                              help="write the ingested pattern to this Matrix "
                                   "Market file")
    fetch_parser.add_argument("--register", default=None, metavar="NAME",
                              help="register the ingested pattern as the "
                                   "first-class suite problem EXT/NAME "
                                   "(persisted under REPRO_EXTERNAL_DIR or the "
                                   "fetch cache; usable anywhere a problem name "
                                   "is: repro suite, reorder, compare, cache "
                                   "prewarm)")
    fetch_parser.set_defaults(func=_cmd_fetch)

    serve_parser = sub.add_parser(
        "serve", help="run the resident ordering-as-a-service HTTP/JSON API"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8741,
                              help="TCP port (0 = pick an ephemeral port)")
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="bounded worker pool size")
    serve_parser.add_argument("--queue-depth", type=int, default=8,
                              help="admission limit; beyond it requests shed with 429")
    serve_parser.add_argument("--timeout", type=float, default=None,
                              help="per-task wall-clock cap in seconds")
    serve_parser.add_argument("--worker-mode", default="subprocess",
                              choices=["subprocess"],
                              help="accepted for old scripts: cells always run on "
                                   "long-lived killable worker processes")
    serve_parser.add_argument("--journal", default=None, metavar="PATH.jsonl",
                              help="append finished jobs to this crash-tolerant JSONL journal")
    serve_parser.add_argument("--store", default=None, metavar="DIR",
                              help="persistent artifact store shared with the workers")
    serve_parser.add_argument("--retry-after", type=int, default=1,
                              help="Retry-After header value on 429 responses")
    serve_parser.add_argument("--read-timeout", type=float, default=30.0,
                              help="seconds to wait for a complete request before 408")
    serve_parser.add_argument("--max-inline-n", type=int, default=None,
                              help="largest accepted inline/uploaded matrix order")
    serve_parser.add_argument("--no-debug-delay", action="store_true",
                              help="reject requests carrying the debug_delay_s test knob")
    serve_parser.add_argument("--breaker-threshold", type=int, default=3,
                              help="consecutive worker crashes per algorithm "
                                   "before its circuit breaker opens (503 + "
                                   "Retry-After; 0 disables breaking)")
    serve_parser.add_argument("--breaker-cooldown", type=float, default=30.0,
                              metavar="SECONDS",
                              help="seconds an open breaker sheds requests "
                                   "before admitting a half-open probe")
    serve_parser.add_argument("--drain-grace", type=float, default=30.0,
                              metavar="SECONDS",
                              help="upper bound on how long a SIGTERM graceful "
                                   "drain waits for in-flight work")
    serve_parser.add_argument("--inject-faults", default=None, metavar="SPEC",
                              help="activate deterministic fault injection "
                                   "(exported as REPRO_FAULTS; see "
                                   "docs/robustness.md)")
    serve_parser.add_argument("--backend", default=None,
                              choices=["numpy", "python", "numba"],
                              help="kernel backend tier for served orderings "
                                   "(default: numpy; exported as REPRO_BACKEND "
                                   "so subprocess workers inherit it; reported "
                                   "by /statsz)")
    serve_parser.set_defaults(func=_cmd_serve)

    order_parser = sub.add_parser(
        "order", help="request one ordering from a repro serve instance (or in-process)"
    )
    order_parser.add_argument("input", help="matrix file or problem:NAME[@SCALE]")
    order_parser.add_argument(
        "--algorithm", default="spectral", choices=sorted(ORDERING_ALGORITHMS)
    )
    order_parser.add_argument("--method", default=None, choices=FIEDLER_METHODS,
                              help="eigensolver for the spectral/hybrid algorithms")
    order_parser.add_argument("--server", default=None, metavar="URL",
                              help="base URL of a running repro serve "
                                   "(omit to compute in-process)")
    order_parser.add_argument("--base-seed", type=int, default=0,
                              help="suite-level base seed (per-task seed is derived)")
    order_parser.add_argument("--timeout-s", type=float, default=None,
                              help="per-request compute budget forwarded to the server")
    order_parser.add_argument("--client-timeout", type=float, default=60.0,
                              help="HTTP client socket timeout in seconds")
    order_parser.add_argument("--retries", type=int, default=0,
                              help="retry transient failures (connection "
                                   "refused/reset, read timeout, 429/503) up "
                                   "to N times, honoring Retry-After and "
                                   "otherwise backing off exponentially")
    order_parser.add_argument("--retry-backoff", type=float, default=0.5,
                              metavar="SECONDS",
                              help="initial retry backoff (doubles per "
                                   "attempt, capped at 30 s)")
    order_parser.add_argument("--json", action="store_true",
                              help="print the canonical record + permutation as JSON")
    order_parser.add_argument("--output-permutation", default=None,
                              help="write the new-to-old permutation to this file")
    order_parser.set_defaults(func=_cmd_order)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownProblemError as exc:
        # Structured unknown-problem errors (with near-miss suggestions)
        # exit 2 like every other usage error, never as a traceback.
        print(exc, file=sys.stderr)
        return 2
