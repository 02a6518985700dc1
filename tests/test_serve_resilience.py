"""Resilience-layer tests for ``repro serve`` and its client.

Unit-level: the :class:`CircuitBreaker` state machine under a fake clock,
``ServerClient.order_with_retries`` against scripted transport outcomes,
and :class:`JobJournal` replay/skip accounting.  Integration-level (real
subprocess via :mod:`tests.serve_harness`): the boot line's separate
``replayed``/``skipped`` counts and the graceful SIGTERM drain — the
server must answer every admitted request and exit 0.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.error
from pathlib import Path

import pytest

from repro.serve import (
    BreakerBoard,
    CircuitBreaker,
    JobJournal,
    ReplayedJobs,
    ServerClient,
    ServerError,
)
from tests.serve_harness import ServerProcess, child_pids, wait_until_gone

PROBLEM = "POW9"
SCALE = 0.02
BASE = {"problem": PROBLEM, "scale": SCALE, "algorithm": "rcm"}


class FakeClock:
    def __init__(self, start: float = 100.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


# --------------------------------------------------------------------- #
# CircuitBreaker state machine
# --------------------------------------------------------------------- #
class TestCircuitBreaker:
    def _breaker(self, **overrides):
        clock = FakeClock()
        defaults = dict(threshold=3, cooldown_s=30.0, clock=clock)
        defaults.update(overrides)
        return CircuitBreaker(**defaults), clock

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(cooldown_s=0.0)

    def test_stays_closed_below_threshold(self):
        breaker, _clock = self._breaker()
        for _ in range(2):
            breaker.record(crashed=True)
        assert breaker.state == "closed"
        assert breaker.allow() == (True, 0.0)

    def test_success_resets_the_consecutive_count(self):
        breaker, _clock = self._breaker()
        breaker.record(crashed=True)
        breaker.record(crashed=True)
        breaker.record(crashed=False)
        breaker.record(crashed=True)
        breaker.record(crashed=True)
        assert breaker.state == "closed"      # never 3 *consecutive*

    def test_trips_open_at_threshold_and_sheds(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record(crashed=True)
        assert breaker.state == "open"
        assert breaker.trips == 1
        clock.advance(10.0)
        allowed, retry_in = breaker.allow()
        assert not allowed
        assert retry_in == pytest.approx(20.0)
        assert breaker.rejected == 1

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record(crashed=True)
        clock.advance(31.0)
        assert breaker.allow() == (True, 0.0)
        assert breaker.state == "half-open"
        allowed, retry_in = breaker.allow()   # concurrent request during probe
        assert not allowed and retry_in == pytest.approx(30.0)

    def test_probe_success_closes(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record(crashed=True)
        clock.advance(31.0)
        assert breaker.allow()[0]
        breaker.record(crashed=False)
        assert breaker.state == "closed"
        assert breaker.consecutive_crashes == 0
        assert breaker.allow() == (True, 0.0)

    def test_probe_crash_reopens_with_fresh_cooldown(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record(crashed=True)
        clock.advance(31.0)
        assert breaker.allow()[0]
        breaker.record(crashed=True)          # probe crashed
        assert breaker.state == "open"
        assert breaker.trips == 2
        allowed, retry_in = breaker.allow()
        assert not allowed
        assert retry_in == pytest.approx(30.0)  # cooldown restarted

    def test_abort_releases_the_probe_slot(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record(crashed=True)
        clock.advance(31.0)
        assert breaker.allow()[0]             # probe admitted
        breaker.abort()                       # ...but never computed
        assert breaker.allow()[0]             # slot free again

    def test_to_dict_reports_remaining_cooldown_when_open(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record(crashed=True)
        clock.advance(12.0)
        payload = breaker.to_dict()
        assert payload["state"] == "open"
        assert payload["trips"] == 1
        assert payload["retry_after_s"] == pytest.approx(18.0)
        breaker.record(crashed=False)
        assert "retry_after_s" not in breaker.to_dict()


class TestBreakerBoard:
    def test_threshold_zero_disables_the_board(self):
        board = BreakerBoard(threshold=0)
        assert not board.enabled
        for _ in range(10):
            board.record("rcm", crashed=True)
        assert board.allow("rcm") == (True, 0.0)
        assert board.stats() == {}
        assert board.open_algorithms() == []

    def test_breakers_are_per_algorithm(self):
        clock = FakeClock()
        board = BreakerBoard(threshold=2, cooldown_s=5.0, clock=clock)
        board.record("gk", crashed=True)
        board.record("gk", crashed=True)
        assert board.open_algorithms() == ["gk"]
        assert board.allow("gk")[0] is False
        assert board.allow("rcm") == (True, 0.0)   # unaffected
        stats = board.stats()
        assert stats["gk"]["state"] == "open"
        assert stats["rcm"]["state"] == "closed"

    def test_abort_on_untouched_algorithm_is_a_noop(self):
        board = BreakerBoard(threshold=2)
        board.abort("never-seen")              # must not create state
        assert board.stats() == {}


# --------------------------------------------------------------------- #
# Client retry policy (scripted transport, no sockets)
# --------------------------------------------------------------------- #
class TestOrderWithRetries:
    def _client(self, responses):
        """A ServerClient whose ``request`` replays a script.

        Each script entry is either an exception (raised) or a
        ``(status, headers, body)`` tuple.  Returns (client, calls, sleeps).
        """
        client = ServerClient("http://127.0.0.1:9")   # never dialled
        calls, sleeps = [], []
        script = list(responses)

        def request(method, path, payload=None):
            calls.append((method, path))
            outcome = script.pop(0)
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        client.request = request
        return client, calls, sleeps

    def test_success_needs_no_retries(self):
        client, calls, sleeps = self._client([(200, {}, {"ok": True})])
        body = client.order_with_retries(BASE, retries=5, sleep=sleeps.append)
        assert body == {"ok": True}
        assert len(calls) == 1 and sleeps == []

    def test_retry_after_header_overrides_backoff(self):
        client, calls, sleeps = self._client([
            (503, {"Retry-After": "1.5"}, {"error": {"type": "Draining"}}),
            (200, {}, {"ok": True}),
        ])
        body = client.order_with_retries(BASE, retries=3, backoff_s=0.01,
                                         sleep=sleeps.append)
        assert body == {"ok": True}
        assert sleeps == [pytest.approx(1.5)]

    def test_exponential_backoff_without_header(self):
        client, _calls, sleeps = self._client([
            (429, {}, {}), (429, {}, {}), (200, {}, {"ok": True}),
        ])
        client.order_with_retries(BASE, retries=4, backoff_s=0.1,
                                  sleep=sleeps.append)
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_backoff_and_retry_after_are_capped(self):
        client, _calls, sleeps = self._client([
            (503, {"Retry-After": "100"}, {}),   # header above the cap
            (503, {}, {}),                       # exponential above the cap
            (200, {}, {"ok": True}),
        ])
        client.order_with_retries(BASE, retries=4, backoff_s=10.0,
                                  max_backoff_s=2.0, sleep=sleeps.append)
        assert sleeps == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_bad_request_raises_immediately(self):
        client, calls, sleeps = self._client([
            (400, {}, {"error": {"type": "BadRequest", "message": "nope"}}),
        ])
        with pytest.raises(ServerError) as excinfo:
            client.order_with_retries(BASE, retries=5, sleep=sleeps.append)
        assert excinfo.value.status == 400
        assert len(calls) == 1 and sleeps == []   # waiting cannot fix a 400

    def test_exhausted_retries_raise_the_last_answer(self):
        client, calls, sleeps = self._client([(503, {}, {})] * 3)
        with pytest.raises(ServerError) as excinfo:
            client.order_with_retries(BASE, retries=2, backoff_s=0.01,
                                      sleep=sleeps.append)
        assert excinfo.value.status == 503
        assert len(calls) == 3 and len(sleeps) == 2

    def test_connection_refused_is_retried(self):
        client, calls, sleeps = self._client([
            urllib.error.URLError(ConnectionRefusedError("refused")),
            ConnectionResetError("reset"),
            (200, {}, {"ok": True}),
        ])
        body = client.order_with_retries(BASE, retries=3, backoff_s=0.01,
                                         sleep=sleeps.append)
        assert body == {"ok": True}
        assert len(calls) == 3 and len(sleeps) == 2

    def test_transport_error_exhausted_propagates(self):
        client, _calls, sleeps = self._client([ConnectionResetError("reset")] * 2)
        with pytest.raises(ConnectionResetError):
            client.order_with_retries(BASE, retries=1, backoff_s=0.01,
                                      sleep=sleeps.append)
        assert len(sleeps) == 1

    def test_zero_retries_matches_plain_order_semantics(self):
        client, calls, _sleeps = self._client([(503, {}, {})])
        with pytest.raises(ServerError):
            client.order_with_retries(BASE, retries=0)
        assert len(calls) == 1


# --------------------------------------------------------------------- #
# Journal replay accounting
# --------------------------------------------------------------------- #
def _header_line() -> str:
    return json.dumps({"kind": "header", "engine": "repro.serve",
                       "journal_schema": 1})


def _job_line(index: int) -> str:
    return json.dumps({
        "kind": "job", "id": f"{index:06d}-cafe", "key": f"key-{index}",
        "algorithm": "rcm", "problem": PROBLEM, "mode": "sync",
        "state": "done", "coalesced": False, "created_s": 1.0,
        "finished_s": 2.0, "http_status": 200, "record": None,
        "permutation": None,
    })


class TestJournalReplay:
    def test_counts_replayed_and_skipped_separately(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("\n".join([
            _header_line(),
            _job_line(1),
            json.dumps({"kind": "future-extension", "x": 1}),  # unknown kind
            "{this line is torn",                              # damaged
            _job_line(2),
        ]) + "\n")
        replayed = JobJournal.replay(path)
        assert [job["id"] for job in replayed] == ["000001-cafe", "000002-cafe"]
        assert replayed.skipped == 2

    def test_replayed_jobs_still_behaves_like_a_list(self):
        replayed = ReplayedJobs([], skipped=3)
        assert replayed == []
        assert replayed.skipped == 3

    def test_empty_journal_replays_nothing(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("")
        replayed = JobJournal.replay(path)
        assert replayed == [] and replayed.skipped == 0

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps({"kind": "header", "engine": "elsewhere"})
                        + "\n")
        with pytest.raises(ValueError, match="header"):
            JobJournal.replay(path)

    def test_record_job_retries_transient_write_failures(self, tmp_path,
                                                         monkeypatch):
        from repro import faults
        from repro.serve.jobs import Job

        failures = {"left": 2}

        def flaky(site, key):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError(f"injected {site} fault")

        monkeypatch.setattr(faults, "flaky_io", flaky)
        journal = JobJournal(tmp_path / "journal.jsonl")
        job = Job(id="000001-cafe", key="k", algorithm="rcm", problem=PROBLEM,
                  state="done")
        journal.record_job(job, retries=2)    # two failures absorbed
        journal.close()
        replayed = JobJournal.replay(tmp_path / "journal.jsonl")
        assert len(replayed) == 1 and replayed.skipped == 0

        failures["left"] = 10                 # more failures than retries
        journal = JobJournal(tmp_path / "journal2.jsonl")
        with pytest.raises(OSError):
            journal.record_job(job, retries=2)
        journal.close()


# --------------------------------------------------------------------- #
# Integration: boot-line accounting and graceful drain (real subprocess)
# --------------------------------------------------------------------- #
class TestBootAccounting:
    def test_boot_line_reports_replayed_and_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("\n".join([
            _header_line(), _job_line(1), "{torn", _job_line(2),
        ]) + "\n")
        with ServerProcess("--workers", "1", "--journal", str(path)) as server:
            journal_line = server.proc.stdout.readline()
            assert "2 finished job(s) replayed" in journal_line
            assert "1 line(s) skipped" in journal_line
            stats = server.client.stats()
            assert stats["jobs"]["replayed_from_journal"] == 2
            assert stats["jobs"]["journal_skipped"] == 1


class TestGracefulDrain:
    def test_sigterm_drains_in_flight_and_exits_zero(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        server = ServerProcess("--workers", "1", "--journal", str(journal),
                               "--drain-grace", "30")
        outcome = {}
        try:
            def slow_order():
                try:
                    outcome["response"] = server.client.request(
                        "POST", "/v1/order", {**BASE, "debug_delay_s": 1.5})
                except Exception as exc:   # noqa: BLE001 - recorded for assert
                    outcome["error"] = exc

            thread = threading.Thread(target=slow_order, daemon=True)
            thread.start()
            time.sleep(0.5)                # let the order reach a worker
            workers = server.client.stats()["pool"]["active_pids"]
            assert len(workers) == 1
            server.proc.send_signal(signal.SIGTERM)
            returncode = server.proc.wait(timeout=60)
            thread.join(timeout=60)
            assert returncode == 0, "drain must exit 0, not crash"
            assert wait_until_gone(workers, timeout=5), "a worker outlived the drain"
            assert "error" not in outcome, f"in-flight order failed: {outcome}"
            status, _headers, body = outcome["response"]
            assert status == 200
            assert body["record"]["status"] == "ok"
            tail = server.proc.stdout.read()
            assert "drained" in tail
            # The admitted job reached the journal before shutdown.
            replayed = JobJournal.replay(journal)
            assert len(replayed) == 1 and replayed.skipped == 0
            assert replayed[0]["state"] == "done"
        finally:
            server.stop()

    def test_new_requests_rejected_while_draining(self):
        with ServerProcess("--workers", "1", "--drain-grace", "5") as server:
            hold = threading.Thread(
                target=lambda: server.client.request(
                    "POST", "/v1/order", {**BASE, "debug_delay_s": 2.0}),
                daemon=True)
            hold.start()
            time.sleep(0.5)
            server.proc.send_signal(signal.SIGTERM)
            time.sleep(0.3)                # drain flag set, still alive
            try:
                status, headers, _body = server.client.request(
                    "POST", "/v1/order", {**BASE, "base_seed": 9})
            except Exception:
                # The listener may already be gone — equally a rejection.
                pass
            else:
                assert status == 503
                assert any(str(k).lower() == "retry-after" for k in headers)
            hold.join(timeout=30)
            assert server.proc.wait(timeout=30) == 0


class TestWorkerProcesses:
    @staticmethod
    def _hold(server, seconds):
        """Start a cell that keeps a worker busy; return its worker's pid."""
        def held_order():
            try:
                server.client.request("POST", "/v1/order",
                                      {**BASE, "debug_delay_s": seconds})
            except OSError:
                pass                       # the server may die mid-request

        threading.Thread(target=held_order, daemon=True).start()
        deadline = time.monotonic() + 10
        while not server.client.stats()["pool"]["active_pids"]:
            assert time.monotonic() < deadline, "the held cell never started"
            time.sleep(0.05)
        return server.client.stats()["pool"]["active_pids"][0]

    def test_worker_holds_no_inherited_socket(self):
        # A worker forked while a client connection is open must not keep
        # it: the client would never see the server close it (a dropped
        # response would hang until the client's own timeout).
        with ServerProcess("--workers", "1") as server:
            pid = self._hold(server, 1.0)
            fds = Path(f"/proc/{pid}/fd")
            sockets = [fd for fd in fds.iterdir()
                       if os.readlink(fd).startswith("socket:")]
            assert len(sockets) == 1, "only the worker's own pipe end"

    def test_sigkilled_server_leaves_no_worker_behind(self):
        server = ServerProcess("--workers", "2")
        try:
            # Two overlapping cells start both workers; once they finish,
            # one more holds a worker busy while the other sits idle.
            warm = [threading.Thread(target=server.client.request, daemon=True,
                                     args=("POST", "/v1/order",
                                           {**BASE, "base_seed": seed,
                                            "debug_delay_s": 0.5}))
                    for seed in (1, 2)]
            for thread in warm:
                thread.start()
            for thread in warm:
                thread.join(30)
            workers = child_pids(server.proc.pid)
            assert len(workers) == 2
            self._hold(server, 30.0)
            server.proc.kill()
            server.proc.wait(timeout=10)
            assert wait_until_gone(workers, timeout=5), \
                "busy and idle workers must die with the server"
        finally:
            server.stop()
