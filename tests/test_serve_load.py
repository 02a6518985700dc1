"""Load-behavior tests for ``repro serve``: coalescing, backpressure, crashes.

Each test boots its own server (clean counters) and drives it concurrently,
using the ``debug_delay_s`` request knob to hold workers busy for a
deterministic window.  Pins the tentpole's concurrency acceptance criteria:

* k parallel identical requests -> exactly **one** computation (the
  coalescing counters prove it);
* admission past the configured queue depth -> ``429`` with a
  ``Retry-After`` header while ``/statsz`` shows the saturated queue;
* a worker killed mid-request -> a structured 5xx, never a hang;
* a request past its deadline -> ``504`` with its worker killed;
* the ``/statsz`` counters reconcile exactly with the requests served.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from tests.serve_harness import ServerProcess, child_pids

PROBLEM = "POW9"
SCALE = 0.02
BASE = {"problem": PROBLEM, "scale": SCALE, "algorithm": "rcm"}


def post_order(server, payload):
    """Raw POST (no raise-on-4xx/5xx): returns (status, headers, body)."""
    return server.client.request("POST", "/v1/order", payload)


def wait_for(predicate, *, timeout=30.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise TimeoutError(f"timed out waiting for {message}")


class TestCoalescing:
    def test_parallel_identical_requests_share_one_computation(self):
        k = 6
        payload = {**BASE, "debug_delay_s": 1.0}
        with ServerProcess("--workers", "2") as server:
            barrier = threading.Barrier(k)

            def fire(_index):
                barrier.wait()
                return post_order(server, payload)

            with ThreadPoolExecutor(max_workers=k) as executor:
                results = list(executor.map(fire, range(k)))

            statuses = [status for status, _h, _b in results]
            assert statuses == [200] * k
            records = {json.dumps(body["record"], sort_keys=True)
                       for _s, _h, body in results}
            assert len(records) == 1, "coalesced answers must be identical"
            flags = sorted(body["coalesced"] for _s, _h, body in results)
            assert flags == [False] + [True] * (k - 1)

            stats = server.client.stats()
            assert stats["coalescing"]["computations"] == 1
            assert stats["coalescing"]["coalesced"] == k - 1
            assert stats["coalescing"]["inflight"] == 0
            assert stats["pool"]["completed"]["ok"] == 1

    def test_distinct_requests_are_not_coalesced(self):
        with ServerProcess("--workers", "2") as server:
            first = post_order(server, {**BASE, "base_seed": 1})
            second = post_order(server, {**BASE, "base_seed": 2})
            assert first[0] == second[0] == 200
            stats = server.client.stats()
            assert stats["coalescing"]["computations"] == 2
            assert stats["coalescing"]["coalesced"] == 0


class TestSaturation:
    def test_full_queue_sheds_429_with_retry_after(self):
        args = ("--workers", "1", "--queue-depth", "1", "--retry-after", "7")
        with ServerProcess(*args) as server:
            slow = {**BASE, "debug_delay_s": 4.0}
            outcomes = []

            def fire(seed):
                outcomes.append(post_order(server, {**slow, "base_seed": seed}))

            runner = threading.Thread(target=fire, args=(1,))
            runner.start()
            wait_for(lambda: server.client.stats()["pool"]["busy"] == 1,
                     message="first request to occupy the worker")
            waiter = threading.Thread(target=fire, args=(2,))
            waiter.start()
            wait_for(lambda: server.client.stats()["pool"]["queue_depth"] == 1,
                     message="second request to fill the queue")

            status, headers, body = post_order(server, {**slow, "base_seed": 3})
            assert status == 429
            assert headers.get("Retry-After") == "7"
            assert body["error"]["type"] == "PoolSaturated"
            assert body["queue_depth"] == 1
            assert body["retry_after_s"] == 7

            # The saturated state is observable while the shed happens.
            stats = server.client.stats()
            assert stats["requests"]["shed"] == 1
            assert stats["pool"]["queue_depth"] == 1
            assert stats["pool"]["max_queue"] == 1

            runner.join(60)
            waiter.join(60)
            assert [status for status, _h, _b in outcomes] == [200, 200]

    def test_shed_request_succeeds_after_drain(self):
        args = ("--workers", "1", "--queue-depth", "0")
        with ServerProcess(*args) as server:
            holder = threading.Thread(
                target=post_order,
                args=(server, {**BASE, "base_seed": 1, "debug_delay_s": 2.0}))
            holder.start()
            wait_for(lambda: server.client.stats()["pool"]["busy"] == 1,
                     message="holder to occupy the worker")
            status, _headers, _body = post_order(server, {**BASE, "base_seed": 2})
            assert status == 429
            holder.join(60)
            wait_for(lambda: server.client.stats()["pool"]["busy"] == 0,
                     message="pool to drain")
            status, _headers, body = post_order(server, {**BASE, "base_seed": 2})
            assert status == 200
            assert body["record"]["status"] == "ok"


class TestWorkerCrash:
    def test_killed_worker_yields_structured_500_not_a_hang(self):
        with ServerProcess("--workers", "1") as server:
            result = {}

            def fire():
                result["response"] = post_order(
                    server, {**BASE, "debug_delay_s": 20.0})

            thread = threading.Thread(target=fire)
            thread.start()
            pids = wait_for(
                lambda: server.client.stats()["pool"]["active_pids"],
                message="the worker subprocess to register")
            os.kill(pids[0], signal.SIGKILL)

            thread.join(30)
            assert not thread.is_alive(), "crash must answer, not hang"
            status, _headers, body = result["response"]
            assert status == 500
            assert body["error"]["type"] == "WorkerCrashed"
            assert body["record"]["status"] == "error"
            assert server.client.stats()["pool"]["completed"]["crashed"] == 1

    def test_request_timeout_yields_504(self):
        with ServerProcess("--workers", "1") as server:
            status, _headers, body = post_order(
                server, {**BASE, "algorithm": "sloan", "timeout_s": 0.001})
            assert status == 504
            assert body["error"]["type"] == "TaskTimeout"
            assert body["record"]["status"] == "timeout"
            assert server.client.stats()["pool"]["completed"]["timeout"] == 1

    def test_deadline_kills_a_worker_whose_record_outgrows_the_pipe(self):
        # FLAP@0.25/sloan (n = 12,747) pickles to a record larger than the
        # 64 KiB pipe buffer: a worker that outlived its deadline would block
        # writing it, and the request would never be answered.
        payload = {"problem": "FLAP", "scale": 0.25, "algorithm": "sloan",
                   "timeout_s": 0.05}
        with ServerProcess("--workers", "1") as server:
            result = {}
            thread = threading.Thread(
                target=lambda: result.update(response=post_order(server, payload)),
                daemon=True)
            started = time.monotonic()
            thread.start()
            thread.join(30)
            assert not thread.is_alive(), "a deadline must answer, not hang"
            assert time.monotonic() - started < 10
            status, _headers, body = result["response"]
            assert status == 504
            assert body["error"]["type"] == "TaskTimeout"
            # The killed worker is reaped; its replacement starts with the
            # next cell, so the server has no child process left.
            assert child_pids(server.proc.pid) == []
            status, _headers, body = post_order(server, BASE)
            assert status == 200 and body["record"]["status"] == "ok"


class TestCounterReconciliation:
    def test_statsz_counters_reconcile_with_requests_served(self):
        k = 3
        with ServerProcess("--workers", "2") as server:
            payload = {**BASE, "debug_delay_s": 0.8}
            barrier = threading.Barrier(k)

            def fire(_index):
                barrier.wait()
                return post_order(server, payload)

            with ThreadPoolExecutor(max_workers=k) as executor:
                coalesced_statuses = [s for s, _h, _b in
                                      executor.map(fire, range(k))]
            assert coalesced_statuses == [200] * k

            distinct_status, _h, _b = post_order(server, {**BASE, "base_seed": 9})
            bad_status, _h, _b = post_order(
                server, {**BASE, "algorithm": "amd"})
            assert (distinct_status, bad_status) == (200, 400)
            assert server.client.health() == {"status": "ok"}

            stats = server.client.stats()
            requests = stats["requests"]
            # The statsz snapshot is taken before its own response is
            # counted, so the response classes sum to every request but it.
            assert sum(requests["responses"].values()) == requests["total"] - 1
            assert requests["order"] == k + 2
            assert requests["shed"] == 0
            assert requests["responses"]["4xx"] == 1
            assert requests["responses"]["5xx"] == 0
            coalescing = stats["coalescing"]
            assert coalescing["computations"] == 2
            assert coalescing["coalesced"] == k - 1
            assert stats["pool"]["completed"] == {
                "ok": 2, "error": 0, "timeout": 0, "crashed": 0}
            assert stats["jobs"]["tracked"] == k + 1
