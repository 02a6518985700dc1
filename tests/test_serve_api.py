"""End-to-end integration tests for the ``repro serve`` HTTP API.

Boots the real server (``python -m repro serve --port 0`` in a subprocess,
via :mod:`tests.serve_harness`) and drives it with the stdlib client.
Pins the tentpole acceptance criteria: registry / inline / upload
submissions across three algorithms, job polling, the 4xx validation
surface, and byte-identity of server records (canonical, timing-free form)
with what ``repro suite`` computes for the same cells.
"""

from __future__ import annotations

import io
import json

import pytest

from tests.serve_harness import ServerProcess

PROBLEM = "POW9"
SCALE = 0.02
ALGORITHMS = ("rcm", "gps", "gk")


@pytest.fixture(scope="module")
def server():
    with ServerProcess("--workers", "2") as process:
        yield process


@pytest.fixture(scope="module")
def small_pattern():
    from repro.collections.registry import load_problem

    pattern, _spec = load_problem(PROBLEM, scale=SCALE)
    return pattern


def order(server, payload, **extra):
    return server.client.order({**payload, **extra})


def canonical_record(record_dict: dict) -> dict:
    trimmed = dict(record_dict)
    trimmed.pop("time_s", None)
    return trimmed


class TestEndpoints:
    def test_health(self, server):
        assert server.client.health() == {"status": "ok"}

    def test_algorithms_lists_registry(self, server):
        body = server.client.algorithms()
        assert set(ALGORITHMS) <= set(body["algorithms"])
        assert body["paper_algorithms"] == ["spectral", "gk", "gps", "rcm"]

    def test_statsz_shape(self, server):
        stats = server.client.stats()
        assert stats["engine"] == "repro.serve"
        assert {"requests", "coalescing", "pool", "jobs"} <= set(stats)
        assert "backend" not in stats  # workers always run the production kernels
        assert stats["pool"]["max_queue"] == 8

    def test_unknown_route_404(self, server):
        status, _headers, body = server.client.request("GET", "/v1/nothing")
        assert status == 404
        assert body["error"]["type"] == "NotFound"

    def test_method_not_allowed_405(self, server):
        status, headers, body = server.client.request("GET", "/v1/order")
        assert status == 405
        assert body["error"]["type"] == "MethodNotAllowed"
        assert headers.get("Allow") == "POST"


class TestRegistrySubmissions:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_ordering_ok(self, server, algorithm):
        body = order(server, {"problem": PROBLEM, "scale": SCALE,
                              "algorithm": algorithm})
        record = body["record"]
        assert record["status"] == "ok"
        assert record["problem"] == PROBLEM
        assert record["algorithm"] == algorithm
        assert record["metrics"]["envelope_size"] > 0
        assert body["coalesced"] is False or body["coalesced"] is True

    def test_permutation_on_request(self, server):
        body = order(server, {"problem": PROBLEM, "scale": SCALE,
                              "algorithm": "rcm", "include_permutation": True})
        permutation = body["permutation"]
        assert sorted(permutation) == list(range(body["record"]["n"]))
        # The job keeps it as an array and serves the same plain ints.
        assert server.client.job(body["job"]["id"])["permutation"] == permutation

    def test_no_permutation_by_default(self, server):
        body = order(server, {"problem": PROBLEM, "scale": SCALE,
                              "algorithm": "rcm"})
        assert "permutation" not in body


class TestInlineSubmissions:
    def test_csr_and_coo_agree(self, server, small_pattern):
        csr_body = order(server, {
            "algorithm": "rcm",
            "csr": {"n": int(small_pattern.n),
                    "indptr": [int(i) for i in small_pattern.indptr],
                    "indices": [int(i) for i in small_pattern.indices]},
        })
        rows, cols = zip(*((int(i), int(j)) for i, j in small_pattern.edges()))
        coo_body = order(server, {
            "algorithm": "rcm",
            "coo": {"n": int(small_pattern.n), "rows": list(rows),
                    "cols": list(cols)},
        })
        # Same structure -> same digest -> same inline label and seed ->
        # identical canonical record.
        assert canonical_record(csr_body["record"]) == \
            canonical_record(coo_body["record"])
        assert csr_body["record"]["problem"].startswith("inline:")

    def test_matrix_market_upload(self, server, small_pattern):
        from repro.sparse.io_mm import write_matrix_market

        text = io.StringIO()
        write_matrix_market(text, small_pattern.to_scipy())
        mm_body = order(server, {"algorithm": "gps",
                                 "matrix_market": text.getvalue()})
        csr_body = order(server, {
            "algorithm": "gps",
            "csr": {"n": int(small_pattern.n),
                    "indptr": [int(i) for i in small_pattern.indptr],
                    "indices": [int(i) for i in small_pattern.indices]},
        })
        assert canonical_record(mm_body["record"]) == \
            canonical_record(csr_body["record"])


class TestJobPolling:
    def test_async_job_lifecycle(self, server):
        status, _headers, body = server.client.request(
            "POST", "/v1/order",
            {"problem": PROBLEM, "scale": SCALE, "algorithm": "rcm",
             "mode": "async"})
        assert status == 202
        job = body["job"]
        assert job["state"] in ("queued", "done")
        assert "record" not in job
        final = server.client.poll_job(job["id"])
        assert final["state"] == "done"
        assert final["http_status"] == 200
        assert final["record"]["status"] == "ok"

    def test_sync_requests_get_jobs_too(self, server):
        body = order(server, {"problem": PROBLEM, "scale": SCALE,
                              "algorithm": "gk"})
        job = server.client.job(body["job"]["id"])
        assert job["state"] == "done"
        assert canonical_record(job["record"]) == \
            canonical_record(body["record"])

    def test_unknown_job_404(self, server):
        status, _headers, body = server.client.request(
            "GET", "/v1/jobs/999999-deadbeef")
        assert status == 404
        assert body["error"]["type"] == "UnknownJob"


class TestValidation4xx:
    def test_unknown_algorithm(self, server):
        status, _headers, body = server.client.request(
            "POST", "/v1/order", {"problem": PROBLEM, "algorithm": "amd"})
        assert status == 400
        assert body["error"]["type"] == "UnknownAlgorithm"
        assert "rcm" in body["error"]["message"]

    def test_unknown_problem(self, server):
        status, _headers, body = server.client.request(
            "POST", "/v1/order", {"problem": "NOPE", "algorithm": "rcm"})
        assert status == 400
        assert body["error"]["type"] == "UnknownProblem"

    def test_malformed_json_body(self, server):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            server.url + "/v1/order", data=b'{"algorithm": "rcm",,,',
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=30):
                raise AssertionError("expected a 400")
        except urllib.error.HTTPError as exc:
            with exc:
                assert exc.code == 400
                assert json.loads(exc.read())["error"]["type"] == "InvalidBody"

    def test_no_pattern_source(self, server):
        status, _headers, body = server.client.request(
            "POST", "/v1/order", {"algorithm": "rcm"})
        assert status == 400

    def test_two_pattern_sources(self, server):
        status, _headers, body = server.client.request(
            "POST", "/v1/order",
            {"algorithm": "rcm", "problem": PROBLEM,
             "coo": {"n": 2, "rows": [0], "cols": [1]}})
        assert status == 400

    def test_inline_pattern_too_large(self, server):
        status, _headers, body = server.client.request(
            "POST", "/v1/order",
            {"algorithm": "rcm", "coo": {"n": 10**12, "rows": [], "cols": []}})
        assert status == 400
        assert "n" in body["error"]["message"]

    def test_bad_inline_indices(self, server):
        status, _headers, body = server.client.request(
            "POST", "/v1/order",
            {"algorithm": "rcm", "coo": {"n": 4, "rows": [0], "cols": [9]}})
        assert status == 400

    @pytest.mark.parametrize("source, arrays", [
        ("csr", {"indptr": [0], "indices": []}),
        ("coo", {"rows": [], "cols": []}),
    ])
    def test_inline_pattern_without_n(self, source, arrays):
        from repro.serve.api import DEFAULT_MAX_INLINE_N, parse_order_request
        from repro.serve.protocol import ProtocolError

        with pytest.raises(ProtocolError) as info:
            parse_order_request({"algorithm": "rcm", source: arrays})
        assert info.value.status == 400
        assert info.value.error_type == "InvalidOrderRequest"
        assert info.value.message == (
            f"{source!r} needs an integer 'n' >= 0 (<= {DEFAULT_MAX_INLINE_N})")


class TestStoreIntegration:
    def test_warm_request_hits_the_artifact_store(self, tmp_path):
        args = ("--workers", "1", "--store", str(tmp_path / "store"))
        with ServerProcess(*args) as store_server:
            payload = {"problem": PROBLEM, "scale": SCALE,
                       "algorithm": "spectral"}
            cold = order(store_server, payload)
            assert cold["record"]["status"] == "ok"
            # Sequential identical requests do not coalesce (the first is
            # finished); warmth must come from the persistent store.
            warm = order(store_server, payload)
            assert canonical_record(warm["record"]) == \
                canonical_record(cold["record"])
            stats = store_server.client.stats()
            assert stats["store"] is not None
            assert stats["store"]["writes"] > 0, "cold request must persist"
            assert stats["store"]["hits"] > 0, "warm request must hit the store"
            assert stats["coalescing"]["computations"] == 2

    def test_statsz_adds_each_cells_own_store_traffic(self, tmp_path):
        # A long-lived worker's store.stats is cumulative: adding it per
        # cell would count the first cell again with the second.
        from repro.batch.engine import clear_problem_cache, execute_task
        from repro.batch.tasks import build_tasks
        from repro.store import (get_default_store, reset_default_store,
                                 set_default_store)

        problems = (PROBLEM, "CAN1072")
        args = ("--workers", "1", "--store", str(tmp_path / "served"))
        with ServerProcess(*args) as store_server:
            for problem in problems:
                order(store_server, {"problem": problem, "scale": SCALE,
                                     "algorithm": "spectral"})
            served = store_server.client.stats()["store"]
        # What two fresh processes add: each cell on a cold problem cache.
        set_default_store(tmp_path / "fresh")
        try:
            for task in build_tasks(list(problems), ("spectral",), scale=SCALE):
                clear_problem_cache()
                assert execute_task(task).ok
            fresh = dict(get_default_store().stats)
        finally:
            reset_default_store()
            clear_problem_cache()
        assert fresh["writes"] > 0
        for name in ("hits", "misses", "writes"):
            assert served[name] == fresh[name], (name, served, fresh)


class TestByteIdentityWithSuite:
    def test_server_records_match_suite_canonical_form(self, server):
        from repro.batch import run_suite

        suite = run_suite([PROBLEM], ALGORITHMS, scale=SCALE, base_seed=0)
        expected = {
            (record.problem, record.algorithm):
                json.dumps(record.to_dict(include_timing=False), sort_keys=True)
            for record in suite.records
        }
        for algorithm in ALGORITHMS:
            body = order(server, {"problem": PROBLEM, "scale": SCALE,
                                  "algorithm": algorithm, "base_seed": 0})
            served = json.dumps(canonical_record(body["record"]),
                                sort_keys=True)
            assert served == expected[(PROBLEM, algorithm)], \
                f"server and suite disagree on {PROBLEM}/{algorithm}"
