"""One workload in one fresh process: set up, run timed passes, check outputs.

Started by run.py, which fixes the BLAS thread count in the environment
before this process imports numpy.  Prints one JSON object on its last
stdout line for run.py to read.

Passes repeat the same inputs (fresh environments built from the workload
seed) until --seconds have elapsed; end-to-end times are medians over
passes.  Every pass must reproduce the first pass's per-cell results
exactly.  With --trace 1, untraced and traced passes alternate: the
untraced ones give the baseline for the tracing overhead, the traced ones
the per-layer split.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_library():
    """Import numpy and the library from this checkout's src/, nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import subspace_bandit

    if Path(subspace_bandit.__file__).resolve().parent != src / "subspace_bandit":
        raise ImportError(f"subspace_bandit came from {subspace_bandit.__file__}, not {src}")


def _setup(name: str, seed: int):
    """Timed set-up: imports plus building the workload's first inputs."""
    start = time.perf_counter()
    _import_library()
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.build(seed)
    return workload, inputs, time.perf_counter() - start


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import platform

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


@dataclass
class Pass:
    traced: bool
    wall_s: float
    outcomes: list
    tracer: object = None
    bytes_written: int = 0

    @property
    def rounds(self) -> int:
        """Horizons of the cells that passed their checks."""
        return sum(o.n for o in self.outcomes if o.ok)


def _one_pass(workload, inputs, traced: bool, out_dir: Path) -> Pass:
    """Run one pass (timed), then check its outputs (untimed)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        start = time.perf_counter()
        try:
            result = workload.run(inputs, str(out_dir))
        except Exception as exc:  # a failed sweep fails its cells; checked below
            result = exc
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcomes = workload.check(inputs, result, str(out_dir))
    written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    shutil.rmtree(out_dir, ignore_errors=True)
    return Pass(traced, wall, outcomes, tracer, written)


def _trace_problems(workload, tracer) -> list:
    problems = tracer.check_nesting()
    queries = tracer.cell_queries()
    if len(queries) != workload.cells or any(n != q for n, q in queries):
        problems.append(f"traced (horizon, queries) per cell {queries} do not match")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload, inputs, setup_s = _setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import resource

    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"sweep-{os.getpid()}"
    deadline = time.perf_counter() + args.seconds
    passes = []
    problems = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if passes:
            inputs = workload.build(args.seed)
        run = _one_pass(workload, inputs, traced, out_dir)
        if traced:
            problems += _trace_problems(workload, run.tracer)
        if passes and [o.signature for o in run.outcomes] != [o.signature for o in passes[0].outcomes]:
            problems.append(f"pass {len(passes)} did not reproduce the first pass's results")
        passes.append(run)
        done = time.perf_counter() >= deadline
        if done and (not args.trace or len(passes) >= 2):
            break

    for i, run in enumerate(passes):
        problems += [f"pass {i} cell n={o.n}: {'; '.join(o.problems)}" for o in run.outcomes if not o.ok]
    untraced = [p for p in passes if not p.traced]
    ok = [o for o in passes[0].outcomes if o.ok]
    nan = float("nan")
    result = {
        "setup_s": setup_s,
        "attempted": sum(len(p.outcomes) for p in passes),
        "failed": sum(1 for p in passes for o in p.outcomes if not o.ok),
        "problems": problems,
        "walls_untraced": [p.wall_s for p in untraced],
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "rounds_per_s": statistics.median(p.rounds / p.wall_s for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "subspace_err_mean": statistics.fmean(o.subspace_err for o in ok) if ok else nan,
        "total_regret_mean": statistics.fmean(o.total_regret for o in ok) if ok else nan,
        "machine": machine_info(),
    }
    if args.trace:
        by_wall = sorted((p for p in passes if p.traced), key=lambda p: p.wall_s)
        # the median traced pass, whole, so its layer times still add up
        chosen = by_wall[(len(by_wall) - 1) // 2]
        layers = chosen.tracer.layer_metrics(chosen.bytes_written)
        layers["trace_overhead_frac"] = (
            statistics.median(p.wall_s for p in by_wall) / result["wall_s"] - 1.0
        )
        # exact per workload seed, so reported with the layers rather than
        # as end-to-end metrics whose spread across seeds is input, not noise
        layers["subspace_err_mean"] = result["subspace_err_mean"]
        layers["total_regret_mean"] = result["total_regret_mean"]
        result["layers"] = layers
        result["walls_traced"] = [p.wall_s for p in passes if p.traced]
        chosen.tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
