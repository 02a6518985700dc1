"""The repository benchmark: one workload per run, checked, as JSON.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0

Workloads: ``paper-suite`` and ``powerlaw`` (``repro.batch.run_suite`` in a
freshly spawned interpreter) and ``serve-mix`` (``python -m repro serve``
under a closed loop of two clients).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run and writes a
Chrome trace to ``.bench_work/trace-<workload>.json``.  ``--smoke`` shrinks
every workload to seconds.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
0 only when every output passed its check.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from catalog import END_TO_END, PER_LAYER
from check import RESIDUAL_FLOOR
from stats import median, reportable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("paper-suite", "powerlaw", "serve-mix")
SETUP_PROBES = 4  # extra interpreters timed for set-up alone, besides the measured one
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    """The program's environment: the checkout's ``src`` on the path, and
    BLAS pools held to one thread so two workers use two CPUs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn_suite_child(argv, env, limit_s):
    """Start ``suite_child.py``; return ``(setup_s, stdout after READY, returncode)``."""
    start = time.perf_counter()
    process = subprocess.Popen([sys.executable, str(HERE / "suite_child.py"), *argv],
                               cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(limit_s, process.kill)
    watchdog.start()
    try:
        line = process.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            process.kill()
        output = process.stdout.read()
        process.wait()
    finally:
        watchdog.cancel()
        process.stdout.close()
    if line.strip() != "READY":
        raise RuntimeError(f"suite child failed before set-up finished (exit {process.returncode})")
    return setup_s, output, process.returncode


def run_suite_workload(args, env) -> dict:
    started = time.perf_counter()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    setups = []
    if args.trace:
        argv += ["--trace-out", str(WORK / f"trace-{args.workload}.json")]
    else:
        for _ in range(SETUP_PROBES):
            setup_s, _output, code = spawn_suite_child(argv + ["--probe"], env, 60.0)
            if code != 0:
                raise RuntimeError(f"set-up probe exited {code}")
            setups.append(setup_s)
    setup_s, output, code = spawn_suite_child(
        argv, env, RUN_LIMIT_S - (time.perf_counter() - started))
    lines = [line for line in output.splitlines() if line.strip()]
    if code != 0 or not lines:
        raise RuntimeError(f"suite child exited {code}")
    result = json.loads(lines[-1])
    setups.append(setup_s)
    result["setup_s"] = median(setups)
    result["setup_samples"] = setups
    return result


def report(args, result) -> int:
    """Print the human-readable summary, then the JSON result line."""
    trace = bool(args.trace)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {int(trace)}{'  (smoke)' if args.smoke else ''}")
    print("end-to-end (tracing off):")
    for name, unit in END_TO_END:
        if name in result:
            print(f"  {name:24s} {result[name]:<14.6g} {unit}")
    n = result.get("latency_samples", 0)
    print(f"  latency samples: n={n}; p90 "
          f"{'meets' if reportable(n, 0.90) else 'is below'} the ten-samples-beyond rule"
          f" (needs n >= 100)")
    print(f"  error_rate (1 - ok_rate): {1.0 - result['ok_rate']:.6g}   "
          f"fiedler residual before the {RESIDUAL_FLOOR:.0e} floor: "
          f"{result['fiedler_residual_raw']:.3e}")
    if "setup_samples" in result:
        print("  setup samples: " + ", ".join(f"{value:.4f}" for value in result["setup_samples"]))
    layers = result.get("layers", {})
    if trace:
        print("per-layer (traced run):")
        for name, unit in PER_LAYER:
            note = ("  absent" if name in result.get("absent", ())
                    else "" if name in layers else "  not measured on this workload")
            print(f"  {name:48s} {layers.get(name, 0):<14.6g} {unit}{note}")
        for key, value in result.get("trace_details", {}).items():
            print(f"  {key}: {value}")
        print(f"  trace written to {WORK / f'trace-{args.workload}.json'}")
    for problem in result.get("problems", []):
        print(f"  CHECK FAILED {problem}")
    catalog = PER_LAYER if trace else END_TO_END
    source = layers if trace else result
    metrics = {name: {"value": source.get(name, 0), "unit": unit} for name, unit in catalog}
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = child_env()
    if args.workload == "serve-mix":
        sys.path.insert(0, str(ROOT / "src"))
        import serve_mix

        trace_out = WORK / "trace-serve-mix.json" if args.trace else None
        result = serve_mix.run(ROOT, env, WORK, args.seed, args.seconds, args.smoke, trace_out)
    else:
        result = run_suite_workload(args, env)
    return report(args, result)


if __name__ == "__main__":
    sys.exit(main())
