"""The ``repro serve`` asyncio application: ordering-as-a-service.

One :class:`OrderingServer` exposes the batch engine's single-cell core
over HTTP/JSON (stdlib only — no framework):

``POST /v1/order``
    Submit one ordering request (registry problem, inline COO/CSR, or a
    MatrixMarket / Harwell-Boeing upload; see :mod:`repro.serve.api`).
    ``mode="sync"`` answers with the finished record; ``mode="async"``
    answers ``202`` with a job id to poll.
``GET /v1/jobs/<id>``
    Poll a job (sync and async requests both get one).
``GET /v1/algorithms``
    The registered algorithm names and the paper's default set.
``GET /healthz`` / ``GET /statsz``
    Liveness, and the counters the load tests reconcile: queue depth,
    worker utilization, coalescing effectiveness, response classes, store
    hits/misses.

Identical concurrent requests are **coalesced**: the first one starts the
computation, every later arrival with the same key (pattern digest +
algorithm + params + seed) awaits the same future, so k identical requests
cost one worker slot and one computation.  Admission past the configured
queue depth is **shed** with ``429`` and a ``Retry-After`` header instead of
queueing without bound.

Results are byte-identical in canonical form to what ``repro suite`` writes
for the same cells — the server builds the very same
:class:`~repro.batch.tasks.BatchTask` and runs the very same
:func:`~repro.batch.engine.execute_task` — which the integration tests pin.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
import traceback
from dataclasses import dataclass

from repro import backends, faults
from repro.serve.api import DEFAULT_MAX_INLINE_N, parse_order_request
from repro.serve.breaker import BreakerBoard
from repro.serve.jobs import JobJournal, JobRegistry
from repro.serve.pool import PoolSaturated, WorkerPool
from repro.serve.protocol import (
    DEFAULT_MAX_BODY_BYTES,
    ProtocolError,
    json_response,
    read_request,
)

__all__ = ["OrderingServer", "ServeConfig"]


@dataclass
class ServeConfig:
    """Everything ``repro serve`` can be started with."""

    host: str = "127.0.0.1"
    port: int = 8741
    workers: int = 2
    max_queue: int = 8
    timeout: float | None = None
    journal: str | None = None
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    max_inline_n: int = DEFAULT_MAX_INLINE_N
    retry_after_s: int = 1
    job_capacity: int = 1024
    read_timeout_s: float = 30.0
    allow_delay: bool = True
    #: Consecutive worker crashes per algorithm before its circuit breaker
    #: opens (<= 0 disables circuit breaking).
    breaker_threshold: int = 3
    #: Seconds an open breaker sheds requests before admitting a probe.
    breaker_cooldown_s: float = 30.0
    #: Upper bound on how long a SIGTERM drain waits for in-flight work.
    drain_grace_s: float = 30.0


class OrderingServer:
    """The asyncio HTTP server over the batch engine's single-cell core."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.pool = WorkerPool(
            workers=self.config.workers,
            max_queue=self.config.max_queue,
            timeout=self.config.timeout,
        )
        self.jobs = JobRegistry(capacity=self.config.job_capacity)
        self.breakers = BreakerBoard(
            threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self.journal = None
        self.replayed_jobs = 0
        self.replay_skipped = 0
        if self.config.journal:
            if _journal_exists(self.config.journal):
                replayed = JobJournal.replay(self.config.journal)
                self.replayed_jobs = len(replayed)
                self.replay_skipped = getattr(replayed, "skipped", 0)
            self.journal = JobJournal(self.config.journal, append=True)
        self.draining = False
        self._drain_requested = asyncio.Event()
        self._open_connections = 0
        self._drop_counter = itertools.count(1)
        self._inflight: dict[str, asyncio.Task] = {}
        self._server: asyncio.AbstractServer | None = None
        self._started_monotonic = time.monotonic()
        self.port: int | None = None
        self.counters = {
            "requests_total": 0,
            "order": 0,
            "shed": 0,
            "breaker_rejected": 0,
            "drain_rejected": 0,
            "computations": 0,
            "coalesced": 0,
            "dropped_responses": 0,
            "journaled": 0,
            "journal_write_errors": 0,
            "responses": {"2xx": 0, "3xx": 0, "4xx": 0, "5xx": 0},
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the real port
        (meaningful with ``port=0`` — the ephemeral-port test path)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    def begin_drain(self) -> None:
        """Enter graceful drain (the SIGTERM handler): stop admitting new
        orders — they get ``503`` + ``Retry-After`` — while health checks
        and job polling keep answering and in-flight work runs to
        completion.  Idempotent; safe to call from a signal handler running
        on the event loop."""
        self.draining = True
        self._drain_requested.set()

    async def run_until_drained(self) -> None:
        """Serve until a drain is requested, then until in-flight work ends.

        The graceful-shutdown counterpart of :meth:`serve_forever`: the
        listener stays up the whole time (pollers must be able to collect
        async results during the drain), so "drained" means no computation
        in flight, nothing queued, and no connection mid-request — bounded
        by ``drain_grace_s`` so a wedged worker cannot hold the process
        hostage forever.  The caller then runs :meth:`close`, which flushes
        and closes the journal.
        """
        assert self._server is not None, "call start() first"
        await self._drain_requested.wait()
        deadline = time.monotonic() + self.config.drain_grace_s
        while time.monotonic() < deadline:
            busy = (self._inflight or self.pool.busy or self.pool.queued
                    or self._open_connections)
            if not busy:
                break
            await asyncio.sleep(0.02)
        # One final beat lets async-mode _finish_job callbacks scheduled by
        # the last computation run before the journal closes.
        await asyncio.sleep(0.05)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.pool.shutdown()
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        """One request -> one response -> close.  Never raises."""
        self._open_connections += 1
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader, max_body_bytes=self.config.max_body_bytes),
                    timeout=self.config.read_timeout_s,
                )
                if request is None:
                    return
                response = await self._dispatch(request)
            except ProtocolError as exc:
                response = json_response(exc.status, exc.to_payload())
            except asyncio.TimeoutError:
                response = json_response(408, {"error": {
                    "type": "RequestReadTimeout",
                    "message": f"request not received within "
                               f"{self.config.read_timeout_s:g} s",
                }})
            except Exception as exc:  # noqa: BLE001 — the server must not die
                response = json_response(500, {"error": {
                    "type": "InternalServerError",
                    "message": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }})
            self._count_response(response)
            if faults.fires("http.drop", f"response#{next(self._drop_counter)}") is not None:
                # Injected network failure: the response was computed (and
                # journaled) but the bytes never reach the client — the case
                # client-side retries must absorb.
                self.counters["dropped_responses"] += 1
                return
            writer.write(response)
            await writer.drain()
        except (ConnectionError, BrokenPipeError, OSError, asyncio.CancelledError):
            pass  # the client vanished; nothing to answer
        finally:
            self._open_connections -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 — closing a dead socket is fine
                pass

    def _count_response(self, response: bytes) -> None:
        try:
            status = int(response.split(b" ", 2)[1])
        except (IndexError, ValueError):  # pragma: no cover - we built it
            return
        bucket = f"{status // 100}xx"
        if bucket in self.counters["responses"]:
            self.counters["responses"][bucket] += 1

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    async def _dispatch(self, request) -> bytes:
        self.counters["requests_total"] += 1
        path = request.path
        if path == "/healthz":
            if request.method != "GET":
                return self._method_not_allowed("GET")
            return json_response(200, self.health())
        if path == "/statsz":
            if request.method != "GET":
                return self._method_not_allowed("GET")
            return json_response(200, self.statsz())
        if path == "/v1/algorithms":
            if request.method != "GET":
                return self._method_not_allowed("GET")
            from repro.orderings.registry import ORDERING_ALGORITHMS, PAPER_ALGORITHMS

            return json_response(200, {
                "algorithms": sorted(ORDERING_ALGORITHMS),
                "paper_algorithms": list(PAPER_ALGORITHMS),
            })
        if path.startswith("/v1/jobs/"):
            if request.method != "GET":
                return self._method_not_allowed("GET")
            job = self.jobs.get(path[len("/v1/jobs/"):])
            if job is None:
                return json_response(404, {"error": {
                    "type": "UnknownJob",
                    "message": "no such job (finished jobs are evicted "
                               "oldest-first once the registry is full)",
                }})
            return json_response(200, {"job": job.to_dict()})
        if path == "/v1/order":
            if request.method != "POST":
                return self._method_not_allowed("POST")
            return await self._handle_order(request)
        return json_response(404, {"error": {
            "type": "NotFound",
            "message": f"no route for {path!r} (see docs/serving.md)",
        }})

    @staticmethod
    def _method_not_allowed(allowed: str) -> bytes:
        return json_response(
            405,
            {"error": {"type": "MethodNotAllowed",
                       "message": f"use {allowed} on this endpoint"}},
            extra_headers={"Allow": allowed},
        )

    # ------------------------------------------------------------------ #
    # the order endpoint
    # ------------------------------------------------------------------ #
    async def _handle_order(self, request) -> bytes:
        self.counters["order"] += 1
        if self.draining:
            self.counters["drain_rejected"] += 1
            return json_response(
                503,
                {"error": {"type": "ServerDraining",
                           "message": "server is draining for shutdown; "
                                      "retry against another instance"},
                 "retry_after_s": self.config.retry_after_s},
                extra_headers={"Retry-After": str(self.config.retry_after_s)},
            )
        spec = parse_order_request(
            request.json(),
            max_inline_n=self.config.max_inline_n,
            allow_delay=self.config.allow_delay,
        )

        future = self._inflight.get(spec.key)
        coalesced = future is not None
        if not coalesced:
            algorithm = spec.task.algorithm
            allowed, retry_in = self.breakers.allow(algorithm)
            if not allowed:
                self.counters["breaker_rejected"] += 1
                retry_after = max(1, math.ceil(retry_in))
                return json_response(
                    503,
                    {"error": {"type": "CircuitOpen",
                               "message": f"algorithm {algorithm!r} is "
                                          f"circuit-broken after repeated "
                                          f"worker crashes"},
                     "retry_after_s": retry_after},
                    extra_headers={"Retry-After": str(retry_after)},
                )
            try:
                self.pool.reserve()
            except PoolSaturated as exc:
                # The breaker admitted (possibly a half-open probe) but no
                # computation will run: release the probe.
                self.breakers.abort(algorithm)
                self.counters["shed"] += 1
                return json_response(
                    429,
                    {"error": {"type": "PoolSaturated", "message": str(exc)},
                     "queue_depth": exc.queue_depth,
                     "retry_after_s": self.config.retry_after_s},
                    extra_headers={"Retry-After": str(self.config.retry_after_s)},
                )
            self.counters["computations"] += 1
            future = asyncio.ensure_future(self._compute(spec))
            self._inflight[spec.key] = future
        else:
            self.counters["coalesced"] += 1

        job = self.jobs.new_job(spec.key, algorithm=spec.task.algorithm,
                                problem=spec.task.problem, mode=spec.mode,
                                coalesced=coalesced)
        if spec.mode == "async":
            asyncio.ensure_future(self._finish_job(job, future,
                                                   spec.include_permutation))
            return json_response(202, {"job": job.to_dict(include_result=False)})

        try:
            record = await asyncio.shield(future)
        except Exception as exc:
            # An executor-level failure (not a captured task record): the
            # job must still finish so pollers see a terminal state.
            self._finalize(job, 500, record_dict=None, permutation=None,
                           error={"type": type(exc).__name__,
                                  "message": str(exc)})
            raise
        status, payload = self._result_payload(job, record,
                                               spec.include_permutation)
        self._finalize(job, status, record_dict=payload.get("record"),
                       permutation=_kept_permutation(record, payload))
        payload["job"] = job.to_dict(include_result=False)
        return json_response(status, payload)

    async def _compute(self, spec):
        """The single computation behind one coalescing key."""
        algorithm = spec.task.algorithm
        try:
            record = await self.pool.run(spec.task, spec.pattern,
                                         timeout=spec.timeout_s,
                                         delay_s=spec.delay_s)
        except BaseException:
            # Executor-level failure: no record means no outcome to judge,
            # but a half-open probe must be released or the breaker wedges.
            self.breakers.abort(algorithm)
            raise
        finally:
            self._inflight.pop(spec.key, None)
        crashed = (record.error or {}).get("type") == "WorkerCrashed"
        self.breakers.record(algorithm, crashed=crashed)
        return record

    async def _finish_job(self, job, future, include_permutation) -> None:
        """Async-mode completion: fill the job when the computation lands."""
        try:
            record = await asyncio.shield(future)
        except Exception as exc:  # noqa: BLE001 — job must still finish
            self._finalize(job, 500, record_dict=None, permutation=None,
                           error={"type": type(exc).__name__, "message": str(exc)})
            return
        status, payload = self._result_payload(job, record, include_permutation)
        self._finalize(job, status, record_dict=payload.get("record"),
                       permutation=_kept_permutation(record, payload))

    def _result_payload(self, job, record, include_permutation):
        """Map a TaskRecord to (http status, response payload)."""
        record_dict = record.to_dict(include_timing=True)
        payload = {"record": record_dict, "coalesced": job.coalesced}
        if record.ok:
            status = 200
            if include_permutation and record.ordering is not None:
                payload["permutation"] = record.ordering.perm.tolist()
        elif record.timed_out:
            status = 504
            payload["error"] = record.error
        else:
            # WorkerCrashed and algorithm exceptions are both server-side
            # failures of a validated request: 5xx, never a hang.
            status = 500
            payload["error"] = record.error
        return status, payload

    def _finalize(self, job, status, *, record_dict, permutation, error=None) -> None:
        if error is not None:
            record_dict = {"error": error}
        self.jobs.finish(job, http_status=status, record=record_dict,
                         permutation=permutation)
        if self.journal is not None:
            try:
                self.journal.record_job(job)
                self.counters["journaled"] += 1
            except OSError:
                # A full disk must not take the server down — but the loss
                # is counted and degrades /healthz.
                self.counters["journal_write_errors"] += 1

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """The ``/healthz`` document.

        A healthy server answers exactly ``{"status": "ok"}``.  Anything
        less than healthy adds a ``reasons`` list: ``"draining"`` while a
        graceful shutdown runs, ``"degraded"`` when circuit breakers are
        open or journal writes are failing — still alive and answering,
        but a load balancer should prefer other instances.
        """
        reasons = []
        open_algorithms = self.breakers.open_algorithms()
        if open_algorithms:
            reasons.append("circuit open: " + ", ".join(open_algorithms))
        if self.counters["journal_write_errors"]:
            reasons.append(
                f"journal write errors: {self.counters['journal_write_errors']}")
        if self.draining:
            return {"status": "draining", "reasons": ["draining"] + reasons}
        if reasons:
            return {"status": "degraded", "reasons": reasons}
        return {"status": "ok"}

    def statsz(self) -> dict:
        """The ``/statsz`` document (see docs/serving.md for the schema)."""
        from repro.store.core import get_default_store

        store = get_default_store()
        store_stats = None
        if store is not None or any(self.pool.store_stats.values()):
            merged = dict(self.pool.store_stats)
            if store is not None:
                for name in merged:
                    merged[name] += int(store.stats.get(name, 0))
            store_stats = {"root": str(store.root) if store else None, **merged}
        return {
            "engine": "repro.serve",
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "draining": self.draining,
            "requests": {
                "total": self.counters["requests_total"],
                "order": self.counters["order"],
                "shed": self.counters["shed"],
                "breaker_rejected": self.counters["breaker_rejected"],
                "drain_rejected": self.counters["drain_rejected"],
                "dropped_responses": self.counters["dropped_responses"],
                "responses": dict(self.counters["responses"]),
            },
            "coalescing": {
                "computations": self.counters["computations"],
                "coalesced": self.counters["coalesced"],
                "inflight": len(self._inflight),
            },
            "breakers": self.breakers.stats(),
            "pool": self.pool.stats(),
            "jobs": {"tracked": len(self.jobs),
                     "capacity": self.jobs.capacity,
                     "replayed_from_journal": self.replayed_jobs,
                     "journal_skipped": self.replay_skipped,
                     "journaled": self.counters["journaled"],
                     "journal_write_errors": self.counters["journal_write_errors"]},
            "store": store_stats,
            "backend": backends.backend_summary(),
        }


def _kept_permutation(record, payload):
    """The permutation a job keeps: the record's array, not the response's
    list of Python ints, when the response carries one."""
    return record.ordering.perm if "permutation" in payload else None


def _journal_exists(path) -> bool:
    from pathlib import Path

    return Path(path).exists()
