"""Determinism and trace-accounting self-check for the benchmark.

    python3 perfbench/selfcheck.py

For every workload and each of two workload seeds, runs a short traced
benchmark twice and requires:

* both runs correct, with no failed cell;
* the exact counts and the quality guards identical between the two runs;
* child spans plus self time adding up to pipeline.run_s (and, on the
  sweep, to harness.sweep_s).

It also prints each workload's layer shares against the design claim in
README.md; a claim that does not hold is reported, not failed.  Exits 1 when
a requirement fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

EXACT = (
    "envs.queries",
    "sampling.phase1_queries",
    "recovery.fista_iters",
    "recovery.outer_rounds",
    "bandit.rounds",
    "bandit.n_arms",
    "harness.bytes_written",
    "subspace_err_mean",
    "total_regret_mean",
)
RUN_CHILDREN = (
    "envs.optimal_value_s",
    "envs.best_on_subspace_s",
    "sampling.draw_s",
    "sampling.collect_s",
    "recovery.solve_s",
    "bandit.phase2_s",
)
LAYERS = {
    "oracles": ("envs.optimal_value_s", "envs.best_on_subspace_s"),
    "sampling": ("sampling.draw_s", "sampling.collect_s"),
    "recovery": ("recovery.solve_s",),
    "bandit": ("bandit.phase2_s",),
    "pipeline self": ("pipeline.self_s",),
    "harness self + write": ("harness.self_s", "harness.write_s"),
}
# workload -> (layer that should dominate, need a majority rather than the largest share)
CLAIMS = {
    "phase2-k1": ("bandit", True),
    "recover-tall": ("recovery", False),
    "sweep-k3": ("oracles", False),
}
ACCOUNTING_TOL_S = 1e-6
# two workload seeds, so the checks and ceilings are not tuned to one; the
# exact counts and the span accounting do not depend on the run length
SEEDS = (1, 2)
SECONDS = 1


def traced_run(workload: str, seed: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1",
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, seed: int) -> list:
    runs = [traced_run(workload, seed) for _ in range(2)]
    failures = []
    for i, run in enumerate(runs):
        if not run["correct"] or run["failed"]:
            failures.append(f"run {i} not correct ({run['failed']} of {run['attempted']} cells failed)")
    first, second = ({k: v["value"] for k, v in r["metrics"].items()} for r in runs)
    for name in EXACT:
        if first[name] != second[name]:
            failures.append(f"{name} differs between runs: {first[name]!r} vs {second[name]!r}")

    m = first
    gap = m["pipeline.run_s"] - m["pipeline.self_s"] - sum(m[c] for c in RUN_CHILDREN)
    if abs(gap) > ACCOUNTING_TOL_S:
        failures.append(f"pipeline.run_s not accounted for by children + self: gap {gap:.3e} s")
    gap = m["harness.sweep_s"] - m["harness.self_s"] - m["harness.write_s"]
    if m["harness.sweep_s"]:
        gap -= m["pipeline.run_s"]
    if abs(gap) > ACCOUNTING_TOL_S:
        failures.append(f"harness.sweep_s not accounted for by children + self: gap {gap:.3e} s")

    base = m["harness.sweep_s"] or m["pipeline.run_s"]
    shares = {layer: sum(m[k] for k in keys) / base for layer, keys in LAYERS.items()}
    layer, majority = CLAIMS[workload]
    holds = shares[layer] > 0.5 if majority else shares[layer] == max(shares.values())
    print(
        f"{workload} seed {seed}: "
        + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
        + f" -> {layer} {'majority' if majority else 'largest'}: {'holds' if holds else 'DOES NOT HOLD'}"
    )
    print("  exact: " + ", ".join(f"{k}={first[k]!r}" for k in EXACT))
    return failures


def main() -> int:
    failures = []
    for workload in CLAIMS:
        for seed in SEEDS:
            failures += [f"{workload} seed {seed}: {f}" for f in check(workload, seed)]
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
