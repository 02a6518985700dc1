"""The ``serve-mix`` workload: a closed loop of clients against ``repro serve``.

The server runs as the user would start it (``python -m repro serve
--workers 2 --store <fresh dir>``, subprocess worker mode).  Two client
threads each send their next synchronous ``POST /v1/order`` as soon as the
previous one is answered.  An untimed warm-up names each of the 48 registry
cells once; then, for ``--seconds``, 80% of requests repeat a registry cell
(so they read the store) and 20% upload a fresh CSR pattern generated from
the seed (so they write it).  Per-layer figures come from splitting each
latency into the record's ``time_s`` and the rest, and from ``/statsz``
deltas over the timed phase.
"""

from __future__ import annotations

import http.client
import json
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from check import RESIDUAL_FLOOR, check_record
from stats import geomean, median, percentile
from tracer import Span, write_chrome

PROBLEMS = ("POW9", "CAN1072", "DWT2680", "BARTH4", "SSTMODEL", "BLKHOLE", "SHUTTLE", "BCSSTK13")
ALGORITHMS = ("rcm", "gk", "gps", "sloan", "spectral", "hybrid")
CLIENTS = 2
INLINE_SHARE = 0.2
BOOTS = 3
WARMUP_LIMIT_S = 120.0
FULL = {"problems": PROBLEMS, "scale": 0.1, "requests": 1200, "inline_n": (1000, 3000)}
SMOKE = {"problems": ("POW9", "CAN1072"), "scale": 0.02, "requests": 40, "inline_n": (60, 200)}


@dataclass
class Request:
    kind: str  # "registry" or "inline"
    algorithm: str
    body: bytes
    problem: str | None = None
    csr: tuple | None = None  # (n, indptr, indices) of an inline upload


def inline_pattern(rng, n_target: int) -> tuple:
    """A mesh-like CSR pattern of about *n_target* vertices: a grid with
    random chords, randomly relabelled.  Canonical (sorted rows, no
    duplicates, no diagonal), as ``POST /v1/order`` requires."""
    width = int(rng.integers(16, 33))
    height = max(2, n_target // width)
    n = width * height
    ids = np.arange(n).reshape(height, width)
    edges = [np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
             np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1),
             rng.integers(0, n, size=(n // 20, 2))]
    pairs = np.concatenate(edges)
    label = rng.permutation(n)
    pairs = label[pairs]
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    both = np.concatenate([pairs, pairs[:, ::-1]])
    both = np.unique(both, axis=0)  # sorted by row, then column
    indptr = np.concatenate(([0], np.cumsum(np.bincount(both[:, 0], minlength=n))))
    return n, indptr.astype(np.int64), both[:, 1].astype(np.int64)


def build_schedule(seed: int, config: dict) -> tuple[list[Request], int]:
    """``(requests, warmup)``: the request sequence of one run, a pure
    function of the seed, whose first ``warmup`` requests are untimed.

    The warm-up names every registry cell once, so timed registry requests
    read the store.  Timed requests come in rounds of identical make-up,
    shuffled within the round: every registry cell once, plus one fresh
    upload per 4 cells, the uploads' algorithms cycling and their sizes
    stratified over the size range.  Whatever prefix of the rounds a run
    gets through, the mix is the same on every seed; only the order and the
    uploaded patterns vary.
    """
    rng = np.random.default_rng(seed)
    cells = [(p, a) for p in config["problems"] for a in ALGORITHMS]
    uploads = int(round(len(cells) * INLINE_SHARE / (1 - INLINE_SHARE)))
    low, high = config["inline_n"]

    def registry(problem, algorithm):
        payload = {"problem": problem, "scale": config["scale"], "algorithm": algorithm,
                   "base_seed": seed, "include_permutation": True}
        return Request("registry", algorithm, json.dumps(payload).encode(), problem)

    def upload(n_target, algorithm):
        n, indptr, indices = inline_pattern(rng, n_target)
        payload = {"csr": {"n": n, "indptr": indptr.tolist(), "indices": indices.tolist()},
                   "algorithm": algorithm, "base_seed": seed, "include_permutation": True}
        return Request("inline", algorithm, json.dumps(payload).encode(),
                       csr=(n, indptr, indices))

    requests = [registry(*cells[i]) for i in rng.permutation(len(cells))]
    while len(requests) < len(cells) + config["requests"]:
        round_ = [(registry, cell) for cell in cells]
        round_ += [(upload, (int(low + (high - low) * (k + rng.random()) / uploads),
                             ALGORITHMS[k % len(ALGORITHMS)])) for k in range(uploads)]
        for i in rng.permutation(len(round_)):
            make, args = round_[i]
            requests.append(make(*args))
    return requests[:len(cells) + config["requests"]], len(cells)


def _get(port: int, path: str, timeout: float = 10.0):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Server:
    """One ``repro serve`` process; ``setup_s`` is spawn to first healthy answer."""

    def __init__(self, root, env, store_dir, log):
        self.start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", str(CLIENTS),
             "--store", str(store_dir), "--worker-mode", "subprocess"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=log, text=True)
        watchdog = threading.Timer(60.0, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"server did not boot: {line!r}")
            self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
            while True:
                try:
                    if _get(self.port, "/healthz")[0] == 200:
                        break
                except OSError:
                    pass
                time.sleep(0.002)
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - self.start

    def statsz(self) -> dict:
        return json.loads(_get(self.port, "/statsz")[1])

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then a kill if it overstays."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def _client(port, requests, cursor, lock, stop, deadline, samples, thread):
    while True:
        with lock:
            index = cursor[0]
            cursor[0] += 1
        if index >= stop or time.perf_counter() > deadline:
            return
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        sent = time.perf_counter()
        try:
            connection.request("POST", "/v1/order", body=requests[index].body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            body = response.read()
            status = response.status
        except OSError as exc:
            body, status = str(exc).encode(), 0
        finally:
            connection.close()
        samples.append((index, sent, time.perf_counter(), status, body, thread))


def request_phase(port, requests, first, stop, seconds):
    """Send ``requests[first:stop]`` from the closed-loop clients until they
    run out or *seconds* pass; ``(wall_s, samples)``, samples in index order."""
    cursor, lock, samples = [first], threading.Lock(), []
    start = time.perf_counter()
    threads = [threading.Thread(target=_client, args=(port, requests, cursor, lock, stop,
                                                      start + seconds, samples, thread + 1))
               for thread in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, sorted(samples)


def _cross_check(seed, config):
    """The spectral registry cells through ``run_suite``: the served
    permutations must equal these, and their Fiedler pairs give the residual."""
    from repro.batch import run_suite

    suite = run_suite(list(config["problems"]), ("spectral",), scale=config["scale"],
                      n_jobs=1, base_seed=seed, keep_orderings=True)
    return {record.problem: record for record in suite.records}


def check_responses(requests, samples, seed, config):
    from repro.collections.registry import load_problem

    patterns = {p: load_problem(p, scale=config["scale"])[0] for p in config["problems"]}
    suite = _cross_check(seed, config)
    failed, problems, residuals, ok = 0, [], [], []
    for index, _sent, _done, status, body, _thread in samples:
        request = requests[index]
        label = f"#{index} {request.kind} {request.problem or ''}/{request.algorithm}"
        try:
            payload = json.loads(body)
        except ValueError:
            payload = {}
        record = payload.get("record") or {}
        if status != 200 or record.get("status") != "ok" or "permutation" not in payload:
            failed += 1
            problems.append(f"{label}: HTTP {status} {body[:200]!r}")
            continue
        if request.kind == "registry":
            pattern = patterns[request.problem]
            csr = (pattern.n, pattern.indptr, pattern.indices)
        else:
            csr = request.csr
        perm = np.asarray(payload["permutation"], dtype=np.int64)
        found, _ = check_record(csr[1], csr[2], csr[0], perm, record.get("metrics", {}))
        if request.kind == "registry" and request.algorithm == "spectral":
            reference = suite[request.problem]
            if not np.array_equal(perm, reference.ordering.perm):
                found.append("served spectral ordering differs from run_suite's")
        if found:
            failed += 1
            problems.extend(f"{label}: {message}" for message in found)
            continue
        ok.append((index, record))
    for problem, reference in suite.items():
        pattern = patterns[problem]
        found, cell_residuals = check_record(
            pattern.indptr, pattern.indices, pattern.n, reference.ordering.perm,
            reference.metrics, reference.ordering.metadata.get("components", []))
        residuals.extend(cell_residuals)
        if found:
            failed += 1
            problems.extend(f"run_suite {problem}/spectral: {message}" for message in found)
    return ok, failed, problems[:20], max(residuals, default=0.0)


def _delta(after: dict, before: dict, *path):
    for key in path:
        after, before = (after or {}).get(key, 0), (before or {}).get(key, 0)
    return int(after or 0) - int(before or 0)


def run(root, env, work, seed: int, seconds: float, smoke: bool, trace_out=None) -> dict:
    config = SMOKE if smoke else FULL
    requests, warmup = build_schedule(seed, config)
    setups = []
    with open(work / "serve.log", "w", encoding="utf-8") as log:
        for boot in range(BOOTS):
            store = work / f"store-{boot}"
            shutil.rmtree(store, ignore_errors=True)
            server = Server(root, env, store, log)
            setups.append(server.setup_s)
            if boot < BOOTS - 1:
                server.stop()
        try:
            _, warm_samples = request_phase(server.port, requests, 0, warmup, WARMUP_LIMIT_S)
            before = server.statsz()
            wall, samples = request_phase(server.port, requests, warmup, len(requests), seconds)
            after = server.statsz()
        finally:
            server.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for boot in range(BOOTS):
        shutil.rmtree(work / f"store-{boot}", ignore_errors=True)

    ok, failed, problems, residual = check_responses(requests, warm_samples + samples,
                                                     seed, config)
    latencies = [done - sent for _i, sent, done, *_rest in samples]
    timed = {sample[0]: sample for sample in samples}
    # index -> (latency, the record's compute time_s): timed ok responses
    timing = {index: (timed[index][2] - timed[index][1], record["time_s"])
              for index, record in ok if index in timed}
    first_per_cell = {}
    for index, record in ok:
        if requests[index].kind == "registry":
            first_per_cell.setdefault((requests[index].problem, requests[index].algorithm),
                                      record["metrics"])
    cells = list(first_per_cell.values())
    hits = _delta(after, before, "store", "hits")
    misses = _delta(after, before, "store", "misses")
    overheads = [latency - compute for latency, compute in timing.values()]
    inline_overheads = [latency - compute for index, (latency, compute) in timing.items()
                        if requests[index].kind == "inline"]
    if trace_out:
        spans = [Span(f"serve.request.{requests[i].kind}", sent, done, cell=requests[i].algorithm,
                      counts={"status": status, **({"time_s": timing[i][1]} if i in timing else {})},
                      thread=thread)
                 for i, sent, done, status, _body, thread in samples]
        write_chrome(trace_out, spans, {"workload": "serve-mix", "seed": seed})
    attempted = len(warm_samples) + len(samples) + len(config["problems"])
    return {
        "setup_s": median(setups),
        "setup_samples": setups,
        "wall_s": wall,
        "latency_p50_s": median(latencies),
        "latency_p90_s": percentile(latencies, 0.90),
        "latency_samples": len(latencies),
        "throughput_rps": len(timing) / wall,
        "ok_rate": 1.0 - failed / attempted,
        "envelope_geomean": geomean([max(m["envelope_size"], 1) for m in cells]) if cells else 0.0,
        "bandwidth_geomean": geomean([max(m["bandwidth"], 1) for m in cells]) if cells else 0.0,
        "fiedler_residual_max": max(residual, RESIDUAL_FLOOR),
        "fiedler_residual_raw": residual,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "seed": seed,
        "layers": {
            "store.hits": hits,
            "store.misses": misses,
            "store.writes": _delta(after, before, "store", "writes"),
            "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serve.compute_p50_s": median([c for _l, c in timing.values()]) if timing else 0.0,
            "serve.overhead_p50_s": median(overheads) if overheads else 0.0,
            "serve.inline.overhead_p50_s": median(inline_overheads) if inline_overheads else 0.0,
            "serve.shed": sum(1 for sample in samples if sample[3] == 429),
            "serve.coalesced": _delta(after, before, "coalescing", "coalesced"),
            "serve.pool.crashed": _delta(after, before, "pool", "completed", "crashed"),
            "trace.spans": len(samples),
            "trace.overhead_ratio": 0.0,
        },
        "absent": [],
    }
