"""Benchmark entry point: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload phase2-k1 --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each workload runs in its own fresh worker
process (worker.py) with the BLAS thread count fixed.  Set-up time is the
median over several fresh processes that only set up.  With --trace 0 the
end-to-end metrics named in BENCHMARK.json are reported, with --trace 1 the
per-layer ones; both print every metric by name with its unit, the machine
and numerics the run used, and, as the last stdout line, one JSON object
with the keys correct, attempted, failed and metrics.  A copy of the full
result is written under perfbench/out/.

Uses only the standard library, so it can refuse to run, with a non-zero
exit and no result, when the checkout holds no library to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("phase2-k1", "recover-tall", "sweep-k3")

# Held fixed so that a parent and a change are timed with the same BLAS
# parallelism; never more threads than cores.
BLAS_THREADS = min(2, os.cpu_count() or 1)
# Fresh processes that only set up; with the worker's own set-up the median
# is over SETUP_PROBES + 1 samples.
SETUP_PROBES = 5
# Every run ends within this many seconds of its start.
TIME_LIMIT_S = 175.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)  # the worker imports the library from ./src only
    return env


def _worker(args: list, deadline: float) -> dict:
    """Run worker.py with args and return the JSON on its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }


def _finite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    """Set-up probes, then the measured worker; returns the full result."""
    base = ["--workload", name, "--seed", str(seed)]
    setups = [_worker(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    result = _worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    values = result["layers"] if trace else result
    metrics = {}
    for metric, unit in _metric_specs()[trace]:
        if metric not in values:
            raise BenchError(f"workload {name} produced no value for {metric}")
        metrics[metric] = {"value": _finite(values[metric]), "unit": unit}
    result["metrics"] = metrics
    result["correct"] = result["failed"] == 0 and not result["problems"]
    return result


def _report(name: str, seed: int, trace: int, result: dict) -> None:
    print(f"== {name} (seed {seed}, trace {trace})")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    print(
        f"cells: attempted {result['attempted']}, failed {result['failed']}, "
        f"failed_frac = {result['failed'] / result['attempted']!r} ratio"
    )
    print(f"passes: untraced {len(result['walls_untraced'])}, traced {len(result.get('walls_traced', []))}")
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']!r} {entry['unit']}")
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + TIME_LIMIT_S
    for needed in (ROOT / "src" / "subspace_bandit" / "__init__.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"perfbench: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    for name, result in results.items():
        _report(name, args.seed, args.trace, result)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
