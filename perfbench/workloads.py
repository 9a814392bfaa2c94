"""The benchmark's workloads: inputs derived from a workload seed, one timed
pass over them, and the per-cell checks on what the library produced.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in README.md next to this file.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass

from subspace_bandit import harness, pipeline
from subspace_bandit.envs import make_environment
from subspace_bandit.pipeline import PracticalParams

# |R1 + R2 + R3 - total| <= REGRET_SPLIT_TOL * max(1, |total|)
REGRET_SPLIT_TOL = 1e-8


def cell_seeds(seed: int, count: int) -> list:
    """Distinct, non-negative cell seeds derived from the workload seed."""
    return [seed * 1000 + i for i in range(1, count + 1)]


@dataclass
class CellOutcome:
    """One cell's result after the benchmark's checks."""

    n: int
    problems: list
    subspace_err: float = math.nan
    total_regret: float = math.nan
    # everything that must repeat exactly under one workload seed
    signature: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.problems


def _check_split(r1, r2, r3, total) -> list:
    if None in (r1, r2, r3, total):
        return ["regret split missing"]
    gap = abs(r1 + r2 + r3 - total)
    if not gap <= REGRET_SPLIT_TOL * max(1.0, abs(total)):
        return [f"R1 + R2 + R3 misses total regret by {gap:.3e}"]
    return []


def _check_quality(subspace_err, feasible, ceiling) -> list:
    problems = []
    if feasible is not True:
        problems.append("solver did not report a feasible solution")
    if subspace_err is None or not subspace_err <= ceiling:
        problems.append(f"subspace_err {subspace_err} above ceiling {ceiling}")
    return problems


# ---------- run_cablp per cell ----------


@dataclass
class DirectWorkload:
    """Cells that call ``pipeline.run_cablp`` one after another."""

    env_args: dict
    params: dict
    n_cells: int
    err_ceiling: float

    def build(self, seed: int) -> list:
        """Fresh environments and params for one pass, one pair per cell."""
        return [
            (make_environment(seed=s, **self.env_args), PracticalParams(**self.params))
            for s in cell_seeds(seed, self.n_cells)
        ]

    def run(self, inputs, out_dir: str):
        results = []
        for env, params in inputs:
            try:
                # looked up on the module at call time, so a traced pass sees the wrapper
                results.append(pipeline.run_cablp(env, params))
            except Exception as exc:  # a failed cell is counted, never dropped
                results.append(exc)
        return results

    def check(self, inputs, records, out_dir: str) -> list:
        outcomes = []
        for (env, params), record in zip(inputs, records):
            if isinstance(record, Exception):
                outcomes.append(CellOutcome(n=params.n, problems=[f"raised {record!r}"]))
                continue
            problems = []
            if env.query_count != params.n:
                problems.append(f"spent {env.query_count} queries, horizon is {params.n}")
            if len(record.regret_trace) != params.n:
                problems.append(f"regret trace has {len(record.regret_trace)} rounds")
            total = record.total_regret
            problems += _check_split(record.R1, record.R2, record.R3, total)
            diag = record.recovery_diagnostics or {}
            problems += _check_quality(record.subspace_err, diag.get("feasible"), self.err_ceiling)
            outcomes.append(
                CellOutcome(
                    n=params.n,
                    problems=problems,
                    subspace_err=record.subspace_err,
                    total_regret=total,
                    signature=(
                        params.n,
                        record.phase1_rounds,
                        diag.get("iterations"),
                        record.subspace_err,
                        total,
                    ),
                )
            )
        return outcomes

    @property
    def cells(self) -> int:
        return self.n_cells


# ---------- harness.run_experiment with an output directory ----------


@dataclass
class SweepWorkload:
    """One ``harness.run_experiment`` sweep writing JSON/CSV output."""

    environment: dict
    horizons: list
    practical: dict
    n_seeds: int
    err_ceiling: float

    def build(self, seed: int):
        return harness.ExperimentConfig(
            environment=dict(self.environment),
            horizons=list(self.horizons),
            seeds=cell_seeds(seed, self.n_seeds),
            practical=dict(self.practical),
        )

    def run(self, config, out_dir: str):
        return harness.run_experiment(dataclasses.replace(config, out_dir=out_dir))

    def check(self, config, summary, out_dir: str) -> list:
        """Check every cell from the files the sweep wrote."""
        expected = [(n, s) for n in config.horizons for s in config.seeds]
        shared = [f"sweep raised {summary!r}"] if isinstance(summary, Exception) else []
        try:
            with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
                cells = json.load(fh)["cells"]
        except (OSError, ValueError, KeyError) as exc:
            rows, cells = [], []
            shared.append(f"sweep output unreadable: {exc}")
        if len(rows) != len(expected) or len(cells) != len(expected):
            shared.append(
                f"sweep.csv has {len(rows)} rows and summary.json {len(cells)} cells, "
                f"expected {len(expected)}"
            )
        status = {(int(r["n"]), int(r["seed"])): r["status"] for r in rows}
        outcomes = []
        for n, seed in expected:
            problems = list(shared)
            if status.get((n, seed)) != "ok":
                problems.append(f"sweep.csv status {status.get((n, seed))!r}")
            path = os.path.join(out_dir, f"run-n{n}-seed{seed}.json")
            try:
                with open(path, encoding="utf-8") as fh:
                    rec = json.load(fh)
            except (OSError, ValueError) as exc:
                outcomes.append(CellOutcome(n=n, problems=problems + [f"no run record: {exc}"]))
                continue
            rounds = rec["phase1_rounds"] + rec["phase2_rounds"]
            if rounds != n or len(rec["regret_trace"]) != n:
                problems.append(f"record accounts {rounds} rounds, horizon is {n}")
            problems += _check_split(rec["R1"], rec["R2"], rec["R3"], rec["total_regret"])
            diag = rec.get("recovery") or {}
            problems += _check_quality(rec["subspace_err"], diag.get("feasible"), self.err_ceiling)
            outcomes.append(
                CellOutcome(
                    n=n,
                    problems=problems,
                    subspace_err=rec["subspace_err"],
                    total_regret=rec["total_regret"],
                    signature=(
                        n,
                        rec["phase1_rounds"],
                        diag.get("iterations"),
                        rec["subspace_err"],
                        rec["total_regret"],
                    ),
                )
            )
        return outcomes

    @property
    def cells(self) -> int:
        return len(self.horizons) * self.n_seeds


# Ceilings on subspace_err sit well above every value seen over ten workload
# seeds and well below a collapsed recovery (a random k-subspace of R^d lies
# about sqrt(2k(1 - k/d)) away: 1.34, 1.93 and 2.12 for the three workloads).
WORKLOADS = {
    "phase2-k1": DirectWorkload(
        env_args=dict(d=10, k=1, family="norm-squared", sigma=0.01, nu=0.1),
        params=dict(
            n=100_000, m_X=30, m_Phi=100, epsilon=0.2, N=10,
            lambda_override=0.5, ucb_scale=0.75,
        ),
        n_cells=3,
        err_ceiling=1.0,
    ),
    "recover-tall": DirectWorkload(
        env_args=dict(d=30, k=2, family="centered-quadratic", sigma=0.0, nu=0.1),
        # tall sketch: m_Phi = 6000 > d * m_X = 900; n = n1 + 5000 phase-2 rounds
        params=dict(
            n=30 * (6000 + 1) + 5000, m_X=30, m_Phi=6000, epsilon=0.1,
            lambda_override=0.02,
        ),
        n_cells=2,
        err_ceiling=0.05,
    ),
    "sweep-k3": SweepWorkload(
        environment=dict(family="centered-quadratic", d=12, k=3, sigma=0.001, nu=0.1),
        horizons=[3000, 6000, 12000],
        practical=dict(m_X=12, m_Phi=200, epsilon=0.1, lambda_override=0.08, ucb_scale=0.75),
        n_seeds=4,
        err_ceiling=1.2,
    ),
}
