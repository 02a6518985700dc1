"""Long-lived killable workers: the one way to run a cell out of process.

A :class:`Worker` keeps one child process alive over a duplex Pipe.  The
child runs :func:`repro.batch.engine.execute_task` on every ``(task,
pattern or None, delay_s)`` it is sent and answers ``(record, store-stats
delta)``, so its problem cache, ``SpectralWorkspace`` plans and search memos
stay warm from one cell to the next.  The parent owns the deadline: an
overrunning child is SIGKILLed and its cell becomes a ``"timeout"`` record;
a child that dies mid-cell (EOF on the pipe) costs a ``"WorkerCrashed"``
record for exactly its in-flight cell.  Either way the dead process is
reaped at once and the slot's next cell starts a fresh one.

Two callers share it: :func:`iter_cells` runs N workers over a task list
(``repro suite``), and :class:`repro.serve.pool.WorkerPool` hands idle
workers to request threads (``repro serve``).

Memory: each worker keeps its own 64-entry problem cache
(:func:`repro.batch.engine._cached_pattern`), with the workspaces hanging
off its patterns, for as long as it lives.  The multilevel coarsening
hierarchies are kept for one pattern at a time
(:mod:`repro.eigen.workspace`), so a worker's peak does not depend on which
problems' spectral cells it was dealt before.

Workers start with the platform's default context (fork on Linux), so a
new worker begins with the parent's imports, algorithm registry and fault
plan instead of a fresh interpreter.  What the child must not keep goes at
once.  It closes every socket it inherited but its own pipe end, the
parent's ends of its siblings' pipes included, so the parent's death
reaches an idle worker as EOF.  On Linux the child also asks the
kernel to SIGKILL it when its parent dies, so a busy worker does not
outlive the parent either.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import stat
import threading
import time
from collections import deque

from repro.batch.engine import crash_record, execute_task, timeout_record

__all__ = ["Worker", "iter_cells"]


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket this child inherited except its own pipe end
    *keep*: the server's client connections and listening socket, and the
    parent's ends of the other workers' pipes (duplex Pipes are socketpairs).
    A worker holding a client connection would keep its peer from ever
    seeing the server close it."""
    try:
        descriptors = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:
        return
    for fd in descriptors:
        try:
            if fd != keep and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            pass  # the listing's own descriptor, already closed


def _die_with_parent(parent_pid: int) -> None:
    """Have the kernel SIGKILL this process when its parent exits (Linux)."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(1, int(signal.SIGKILL))  # PR_SET_PDEATHSIG
    except (AttributeError, OSError):
        pass
    if os.getppid() != parent_pid:  # the parent died before the request
        os._exit(0)


def _serve(connection, parent_pid: int) -> None:
    """Child entry point: answer cells until the pipe reaches EOF.

    A worker forked from ``repro serve`` inherits asyncio's SIGTERM handler
    and its wakeup fd; both go, so signals kill the worker instead of waking
    the server's event loop.  Freezing the inherited heap first keeps the
    collector from finalizing a stale object that would close a descriptor
    by number after the sockets below are gone.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    gc.freeze()
    _close_inherited_sockets(keep=connection.fileno())
    _die_with_parent(parent_pid)
    from repro.store.core import get_default_store

    while True:
        try:
            task, pattern, delay_s = connection.recv()
        except EOFError:
            return
        store = get_default_store()
        before = dict(store.stats) if store is not None else {}
        if delay_s:
            time.sleep(delay_s)
        record = execute_task(task, pattern=pattern)
        delta = None if store is None else {
            name: count - before.get(name, 0) for name, count in store.stats.items()}
        connection.send((record, delta))


class Worker:
    """One long-lived worker process and the cell it is running, if any.

    ``task`` is the in-flight cell (``None`` when idle) and ``deadline`` its
    ``time.monotonic()`` limit (``inf`` without one); ``pid`` is ``None``
    while no process runs.  The process starts with the first cell and again
    with the first cell after a kill.
    """

    def __init__(self):
        self.task = None
        self.limit = None
        self.deadline = math.inf
        self.process = self.connection = self.pid = None
        self._lock = threading.Lock()  # guards ``process`` for kill()

    def _spawn(self) -> None:
        context = multiprocessing.get_context()
        self.connection, child_end = context.Pipe()
        process = context.Process(target=_serve, args=(child_end, os.getpid()), daemon=True)
        process.start()
        child_end.close()
        with self._lock:
            self.process, self.pid = process, process.pid

    def submit(self, task, pattern=None, *, delay_s: float = 0.0, limit=None) -> None:
        """Send one cell.  ``limit`` seconds (``None``: none) bound it;
        ``delay_s``, the server's load-testing sleep, extends the deadline."""
        message = (task, pattern, delay_s)
        if self.process is None:
            self._spawn()
        try:
            self.connection.send(message)
        except OSError:  # the worker died while idle: a fresh one takes the cell
            self.close()
            self._spawn()
            self.connection.send(message)
        self.task, self.limit = task, limit
        self.deadline = math.inf if limit is None else time.monotonic() + limit + delay_s

    def collect(self):
        """``(record, store-stats delta)`` of the in-flight cell, once the
        pipe is readable; a dead worker is reaped and gives a crash record."""
        task, self.task = self.task, None
        try:
            return self.connection.recv()
        except (EOFError, OSError) as exc:
            self.close()
            return crash_record(task, type(exc).__name__), None

    def expire(self):
        """Kill the overrunning worker and return its cell's timeout record."""
        task, self.task = self.task, None
        self.close()
        return timeout_record(task, self.limit)

    def run(self, task, pattern=None, *, delay_s: float = 0.0, limit=None):
        """Run one cell to its answer or deadline: ``(record, store-stats delta)``."""
        self.submit(task, pattern, delay_s=delay_s, limit=limit)
        wait_s = None if limit is None else max(0.0, self.deadline - time.monotonic())
        if self.connection.poll(wait_s):
            return self.collect()
        return self.expire(), None

    def kill(self) -> None:
        """SIGKILL the process from any thread; :meth:`close` reaps it."""
        with self._lock:
            if self.process is not None:
                self.process.kill()

    def close(self) -> None:
        """SIGKILL and reap the process and drop its pipe (idempotent)."""
        with self._lock:
            process, self.process, self.pid = self.process, None, None
        if process is None:
            return
        process.kill()
        process.join()
        process.close()
        self.connection.close()


def iter_cells(tasks, n_workers: int, timeout_for=None):
    """Yield ``(task, record, store-stats delta)`` as *n_workers* long-lived
    workers finish *tasks*, dispatched in the order given.

    ``timeout_for(task)`` gives each cell's limit in seconds (``None``: that
    cell has none).  Every worker is killed and reaped before this returns.
    """
    pending = deque(tasks)
    workers = [Worker() for _ in range(min(n_workers, len(pending)))]
    idle = list(workers)
    finished = []
    try:
        while True:
            while pending and idle:
                task = pending.popleft()
                limit = None if timeout_for is None else timeout_for(task)
                if limit is not None and limit <= 0:
                    raise ValueError(
                        f"timeout policy returned {limit!r} for "
                        f"{task.problem}/{task.algorithm}; per-task limits "
                        f"must be positive (or None for no limit)"
                    )
                idle.pop().submit(task, limit=limit)
            # Hand back what finished only once its workers are busy again.
            yield from finished
            finished = []
            busy = [worker for worker in workers if worker.task is not None]
            if not busy:
                return
            nearest = min(worker.deadline for worker in busy)
            wait_s = None if math.isinf(nearest) else max(0.0, nearest - time.monotonic())
            ready = multiprocessing.connection.wait(
                [worker.connection for worker in busy], timeout=wait_s)
            now = time.monotonic()
            for worker in busy:
                task = worker.task
                if worker.connection in ready:
                    finished.append((task, *worker.collect()))
                elif now >= worker.deadline:
                    finished.append((task, worker.expire(), None))
                else:
                    continue
                idle.append(worker)
    finally:
        for worker in workers:
            worker.close()
