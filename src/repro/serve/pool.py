"""Bounded worker pool behind the ordering server.

One :class:`WorkerPool` executes the cells the HTTP layer admits on
long-lived killable worker processes (:class:`repro.batch.workers.Worker`,
the batch engine's single-cell core with its structured ``timeout``/``crash``
records) under an asyncio-friendly concurrency cap:

* at most ``workers`` cells run at once (an :class:`asyncio.Semaphore`),
  each on an idle worker process;
* at most ``max_queue`` admitted cells may *wait* for a slot — admission
  beyond that raises :class:`PoolSaturated`, which the server answers with
  ``429 Retry-After`` (bounded queue = bounded memory = bounded latency);
* a cell that overruns its deadline is **SIGKILLed** with its worker (a
  ``"timeout"`` record, exactly as ``repro suite --timeout`` produces) and a
  worker that dies mid-cell (OOM kill, SIGKILL) surfaces as a structured
  ``WorkerCrashed`` error record rather than a hang — the server maps those
  to 504/500.  Either way a fresh worker takes the slot.

Workers live as long as the server, so their problem caches, memoized
``SpectralWorkspace`` plans and search memos stay warm across requests; with
a persistent ``--store`` a fresh worker reads warm artifacts from disk.

Each worker answer carries that cell's artifact-store traffic; the pool sums
it so ``/statsz`` can show cache hits/misses that accrue in the workers.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.batch.workers import Worker

__all__ = ["PoolSaturated", "WorkerPool"]


class PoolSaturated(Exception):
    """Admission refused: the wait queue is at its configured depth."""

    def __init__(self, queue_depth: int, max_queue: int):
        super().__init__(
            f"worker queue is full ({queue_depth} waiting, limit {max_queue})"
        )
        self.queue_depth = int(queue_depth)
        self.max_queue = int(max_queue)


class WorkerPool:
    """Bounded, observable executor of single ordering cells."""

    def __init__(self, *, workers: int = 2, max_queue: int = 16,
                 timeout: float | None = None):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.workers = int(workers)
        self.max_queue = int(max_queue)
        self.timeout = None if timeout is None else float(timeout)
        self.queued = 0
        self.busy = 0
        self.completed = {"ok": 0, "error": 0, "timeout": 0, "crashed": 0}
        self.store_stats = {"hits": 0, "misses": 0, "writes": 0, "corrupt": 0,
                            "quarantined": 0}
        self._tokens = itertools.count(1)
        self._semaphore = asyncio.Semaphore(self.workers)
        # The semaphore lets at most ``workers`` cells hold a Worker at once.
        self._all: list[Worker] = []
        self._idle: list[Worker] = []
        self._lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve-worker"
        )

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def reserve(self) -> None:
        """Claim a queue slot for a new computation, or raise
        :class:`PoolSaturated`.  Coalesced requests never reserve — they
        piggyback on the primary's slot.

        Admission is bounded on *total* unfinished work: up to ``workers``
        cells running plus ``max_queue`` waiting.  ``max_queue=0`` therefore
        means "never wait" — run immediately or shed — not "reject all".
        """
        if self.busy + self.queued >= self.workers + self.max_queue:
            raise PoolSaturated(self.queued, self.max_queue)
        self.queued += 1

    def unreserve(self) -> None:
        """Return a reservation that never ran (admission-time failures)."""
        self.queued = max(0, self.queued - 1)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    async def run(self, task, pattern=None, *, timeout: float | None = None,
                  delay_s: float = 0.0):
        """Execute one reserved cell; always returns a :class:`TaskRecord`.

        The effective deadline is the smaller of the server-wide limit and
        the request's own ``timeout_s``; ``delay_s`` extends it (the sleep
        is instrumentation, not work).  The caller must have called
        :meth:`reserve` first.
        """
        try:
            await self._semaphore.acquire()
        except BaseException:
            self.unreserve()
            raise
        self.queued -= 1
        self.busy += 1
        try:
            limits = [t for t in (self.timeout, timeout) if t is not None]
            limit = min(limits) if limits else None
            loop = asyncio.get_running_loop()
            record, stats = await loop.run_in_executor(
                self._executor, self._run_blocking, task, pattern, limit, delay_s
            )
        finally:
            self.busy -= 1
            self._semaphore.release()
        for name, count in (stats or {}).items():
            if name in self.store_stats:
                self.store_stats[name] += int(count)
        self._tally(record)
        return record

    def _run_blocking(self, task, pattern, limit, delay_s):
        """Run one cell on an idle worker: ``(record, store-stats delta)``."""
        with self._lock:
            if not self._idle:
                self._all.append(Worker())
                self._idle.append(self._all[-1])
            worker = self._idle.pop()
        # Stamp the computation ordinal onto the task so deterministic
        # fault-injection draws (repro.faults) vary across repeated
        # computations of the same cell — a crashed-then-retried request
        # must be able to draw differently the second time.
        task = dataclasses.replace(task, attempt=next(self._tokens))
        try:
            return worker.run(task, pattern, delay_s=delay_s, limit=limit)
        finally:
            with self._lock:
                self._idle.append(worker)

    def _tally(self, record) -> None:
        if record.status == "ok":
            self.completed["ok"] += 1
        elif record.status == "timeout":
            self.completed["timeout"] += 1
        elif (record.error or {}).get("type") == "WorkerCrashed":
            self.completed["crashed"] += 1
        else:
            self.completed["error"] += 1

    # ------------------------------------------------------------------ #
    # observability / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """The ``/statsz`` view of the pool."""
        return {
            "workers": self.workers,
            "busy": self.busy,
            "queue_depth": self.queued,
            "max_queue": self.max_queue,
            "timeout_s": self.timeout,
            "active_pids": sorted(worker.pid for worker in list(self._all)
                                  if worker.task is not None and worker.pid),
            "completed": dict(self.completed),
        }

    def shutdown(self) -> None:
        """Kill every worker (a cell still in flight answers
        ``WorkerCrashed``), let the request threads finish, reap them all."""
        for worker in self._all:
            worker.kill()
        self._executor.shutdown(wait=True, cancel_futures=True)
        for worker in self._all:
            worker.close()
