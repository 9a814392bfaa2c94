"""Experiment sweeps: config handling, seed splitting, CSV/JSON emission,
regret-exponent fitting, and self-contained SVG plot output.

A sweep runs the two-phase pipeline over a grid of horizons and seeds.
Every cell gets a fresh environment whose stream seed is derived from the
cell seed and the horizon through :func:`subspace_bandit.util.derive_seed`,
so adding horizons or seeds later never disturbs existing cells.  Cells
that cannot run (infeasible budget, rank collapse during recovery, a
query outside the action ball) are recorded with a status and a reason
and excluded from aggregates instead of aborting the sweep.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .bandit import BudgetError
from .envs import DomainError, Environment, environment_from_descriptor, estimate_conditioning
from .pipeline import (
    PracticalParams,
    RunAborted,
    StepSizeError,
    TheoryConstants,
    TheoryParams,
    params_to_dict,
    plan_parameters,
    record_to_dict,
    run_cablp,
    run_phase1,
    sampling_plan,
)
from .recovery import result_to_dict
from .util import derive_seed, dump_json

SWEEP_CSV_HEADER = "n,seed,R_total,R1,R2,R3,subspace_err,n1,status"
PLOT_CSV_HEADER = "n,mean_R,se_R,count"


# ---------- configuration ----------


_PRACTICAL_KEYS = {f.name for f in fields(PracticalParams)} - {"n"}
_CONSTANT_KEYS = {f.name for f in fields(TheoryConstants)}


@dataclass
class ExperimentConfig:
    """One sweep: an environment template crossed with horizons and seeds.

    environment is a descriptor dict (family, d, k, sigma, nu, params);
    any seed it carries is ignored because each cell derives its own.
    practical holds PracticalParams overrides shared by all cells; theory
    holds {"alpha": ..., "constants": {...}} for theory-mode planning.
    """

    environment: dict
    horizons: list
    seeds: list
    mode: str = "practical"
    practical: dict = field(default_factory=dict)
    theory: dict = field(default_factory=dict)
    out_dir: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.environment, dict):
            raise ValueError("environment must be a descriptor dict")
        for key in ("family", "d", "k"):
            if key not in self.environment:
                raise ValueError(f"environment descriptor missing {key!r}")
        if self.mode not in ("theory", "practical"):
            raise ValueError(f"mode must be 'theory' or 'practical', got {self.mode!r}")
        self.horizons = [int(n) for n in self.horizons]
        if not self.horizons:
            raise ValueError("horizons must be nonempty")
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise ValueError(f"horizons must be strictly ascending, got {self.horizons}")
        if any(n < 1 for n in self.horizons):
            raise ValueError("horizons must be positive")
        self.seeds = [int(s) for s in self.seeds]
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        unknown = set(self.practical) - _PRACTICAL_KEYS
        if unknown:
            raise ValueError(f"unknown practical override(s): {sorted(unknown)}")
        if self.mode == "theory" and "alpha" not in self.theory:
            raise ValueError("theory mode needs theory.alpha in the config")
        unknown = set(self.theory.get("constants", {})) - _CONSTANT_KEYS
        if unknown:
            raise ValueError(f"unknown theory constant(s): {sorted(unknown)}")


def config_from_dict(data: dict) -> ExperimentConfig:
    allowed = {f.name for f in fields(ExperimentConfig)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown config key(s): {sorted(unknown)}")
    missing = {"environment", "horizons", "seeds"} - set(data)
    if missing:
        raise ValueError(f"config missing key(s): {sorted(missing)}")
    return ExperimentConfig(**data)


def load_config(path, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read a JSON config; top-level keys in overrides replace the file's."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    data.update(overrides or {})
    return config_from_dict(data)


# ---------- sweep execution ----------


@dataclass
class CellResult:
    """Outcome of one (horizon, seed) cell."""

    n: int
    seed: int
    status: str  # "ok" | "infeasible" | "aborted" | "error"
    R_total: float
    R1: float
    R2: float
    R3: float
    subspace_err: float
    n1: float
    reason: Optional[str] = None  # why a failed cell failed; not a CSV column

    def csv_row(self) -> str:
        vals = [self.R_total, self.R1, self.R2, self.R3, self.subspace_err]
        body = ",".join(repr(float(v)) for v in vals)
        n1 = repr(float(self.n1)) if math.isnan(self.n1) else str(int(self.n1))
        return f"{self.n},{self.seed},{body},{n1},{self.status}"


@dataclass
class SweepSummary:
    """All cells plus per-horizon aggregates and the rate fit."""

    config: ExperimentConfig
    cells: list
    aggregates: list  # dicts: n, count, mean_R, se_R, mean_R1, mean_R2, mean_R3, mean_subspace_err
    failed_count: int
    fit: Optional[dict]  # {"slope", "intercept", "r2"} over (n, mean_R)

    def to_dict(self) -> dict:
        return {
            "mode": self.config.mode,
            "environment": self.config.environment,
            "horizons": self.config.horizons,
            "seeds": self.config.seeds,
            "cells": [vars(c) for c in self.cells],
            "aggregates": self.aggregates,
            "failed_count": self.failed_count,
            "fit": self.fit,
        }


def _cell_environment(config: ExperimentConfig, n: int, seed: int) -> Environment:
    desc = dict(config.environment)
    desc["seed"] = derive_seed(seed, n)
    desc.pop("A", None)  # realized bases never transfer between cells
    return environment_from_descriptor(desc)


def _theory_plan(config: ExperimentConfig, env: Environment, n: int) -> TheoryParams:
    """The theory-mode plan for horizon n on one cell's environment."""
    return plan_parameters(
        n=n, d=env.d, k=env.k, sigma=env.sigma, c2=env.mean.c2,
        alpha=float(config.theory["alpha"]), nu=env.nu,
        constants=TheoryConstants(**config.theory.get("constants", {})),
    )


def _run_cell(config: ExperimentConfig, n: int, seed: int):
    """Run one cell; returns (CellResult, RunRecord or None)."""
    env = _cell_environment(config, n, seed)
    nan = float("nan")

    def failed(status, n1, exc):
        return CellResult(n, seed, status, nan, nan, nan, nan, nan, n1, reason=str(exc))

    if config.mode == "theory":
        try:
            params = _theory_plan(config, env, n)
        except StepSizeError as exc:
            return failed("infeasible", nan, exc), None
        n1_known = float(params.n1)
    else:
        params = PracticalParams(n=n, **config.practical)
        skipped = params.known_subspace is not None
        n1_known = 0.0 if skipped else float(sampling_plan(params).budget())
    try:
        record = run_cablp(env, params)
    except BudgetError as exc:
        return failed("infeasible", n1_known, exc), None
    except DomainError as exc:
        return failed("error", n1_known, exc), None
    except RunAborted as exc:
        partial = exc.record
        return failed("aborted", float(partial.phase1_rounds), exc), partial
    cell = CellResult(
        n=n,
        seed=seed,
        status="ok",
        R_total=float(record.total_regret),
        R1=float(record.R1),
        R2=float(record.R2),
        R3=float(record.R3),
        subspace_err=float(record.subspace_err),
        n1=float(record.phase1_rounds),
    )
    return cell, record


def _aggregate(cells: Sequence[CellResult], horizons: Sequence[int]) -> list:
    out = []
    for n in horizons:
        ok = [c for c in cells if c.n == n and c.status == "ok"]
        if not ok:
            continue
        totals = np.array([c.R_total for c in ok])
        se = float(totals.std(ddof=1) / math.sqrt(len(ok))) if len(ok) > 1 else 0.0
        out.append(
            {
                "n": n,
                "count": len(ok),
                "mean_R": float(totals.mean()),
                "se_R": se,
                "mean_R1": float(np.mean([c.R1 for c in ok])),
                "mean_R2": float(np.mean([c.R2 for c in ok])),
                "mean_R3": float(np.mean([c.R3 for c in ok])),
                "mean_subspace_err": float(np.mean([c.subspace_err for c in ok])),
            }
        )
    return out


def write_sweep_csv(cells: Sequence[CellResult], fileobj) -> None:
    fileobj.write(SWEEP_CSV_HEADER + "\n")
    for cell in cells:
        fileobj.write(cell.csv_row() + "\n")


def run_experiment(config: ExperimentConfig) -> SweepSummary:
    """Execute the sweep, write artifacts when out_dir is set, return the summary.

    Files under out_dir: run-n{n}-seed{seed}.json per successful or aborted
    cell, sweep.csv with one row per cell, and summary.json.
    """
    out_dir = config.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    cells = []
    for n in config.horizons:
        for seed in config.seeds:
            cell, record = _run_cell(config, n, seed)
            cells.append(cell)
            if out_dir and record is not None:
                path = os.path.join(out_dir, f"run-n{n}-seed{seed}.json")
                dump_json(record_to_dict(record), path)
    aggregates = _aggregate(cells, config.horizons)
    failed = sum(1 for c in cells if c.status != "ok")
    fit = None
    points = [(a["n"], a["mean_R"]) for a in aggregates if a["mean_R"] > 0]
    if len(points) >= 3:
        slope, intercept, r2 = fit_regret_exponent(points)
        fit = {"slope": slope, "intercept": intercept, "r2": r2}
    summary = SweepSummary(
        config=config, cells=cells, aggregates=aggregates, failed_count=failed, fit=fit
    )
    if out_dir:
        with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
            write_sweep_csv(cells, fh)
        dump_json(summary.to_dict(), os.path.join(out_dir, "summary.json"))
    return summary


# ---------- exponent fitting ----------


def fit_regret_exponent(points) -> tuple:
    """Least-squares fit of log R against log n.

    points is a sequence of (n, R) pairs with positive entries, at least
    three of them.  Returns (slope, intercept, r_squared) for the model
    log R = slope * log n + intercept in natural logs.
    """
    pts = [(float(n), float(r)) for n, r in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points to fit, got {len(pts)}")
    if any(n <= 0 or r <= 0 for n, r in pts):
        raise ValueError("fit inputs must be positive")
    x = np.log([n for n, _ in pts])
    y = np.log([r for _, r in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    ss_res = float((resid**2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


# ---------- plot emission ----------


def _log_ticks(lo: float, hi: float) -> list:
    """Decade ticks within [lo, hi] (log10 units), or the endpoints."""
    first = math.ceil(lo - 1e-9)
    last = math.floor(hi + 1e-9)
    ticks = [float(t) for t in range(first, last + 1)]
    return ticks if ticks else [lo, hi]


def _fmt_pow10(v: float) -> str:
    if abs(v - round(v)) < 1e-9:
        return f"1e{int(round(v))}"
    return f"{10.0**v:.3g}"


def emit_plot_data(summary: SweepSummary, out_dir: str, stem: str = "plot") -> str:
    """Write a log-log regret chart as plain SVG plus its underlying CSV.

    Returns the SVG path.  The chart needs no external tooling: markers,
    error bars, the fitted rate line, and decade ticks are emitted as raw
    SVG elements with a 10% margin around the data in log space.
    """
    aggs = [a for a in summary.aggregates if a["mean_R"] > 0]
    if not aggs:
        raise ValueError("no data to plot")
    os.makedirs(out_dir, exist_ok=True)

    xs = [math.log10(a["n"]) for a in aggs]
    lows, highs = [], []
    for a in aggs:
        lo = a["mean_R"] - a["se_R"]
        if lo <= 0:
            lo = a["mean_R"] / 2
        lows.append(math.log10(lo))
        highs.append(math.log10(a["mean_R"] + a["se_R"]))
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(lows), max(highs)
    x_pad = 0.1 * (x_hi - x_lo) or 0.5
    y_pad = 0.1 * (y_hi - y_lo) or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    width, height = 640.0, 440.0
    ml, mr, mt, mb = 70.0, 30.0, 40.0, 60.0

    def px(v: float) -> float:
        return ml + (v - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(v: float) -> float:
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<rect x="{ml:g}" y="{mt:g}" width="{width - ml - mr:g}" '
        f'height="{height - mt - mb:g}" fill="none" stroke="#333"/>',
    ]
    for t in _log_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{height - mb:.2f}" x2="{x:.2f}" y2="{height - mb + 5:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{height - mb + 18:.2f}" text-anchor="middle">{_fmt_pow10(t)}</text>')
    for t in _log_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{ml - 5:.2f}" y1="{y:.2f}" x2="{ml:.2f}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{ml - 8:.2f}" y="{y + 4:.2f}" text-anchor="end">{_fmt_pow10(t)}</text>')
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 15:.2f}" text-anchor="middle">horizon n</text>'
    )
    parts.append(
        f'<text x="18" y="{(mt + height - mb) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(mt + height - mb) / 2:.2f})">mean total regret</text>'
    )

    if summary.fit is not None:
        ln10 = math.log(10.0)
        slope, intercept = summary.fit["slope"], summary.fit["intercept"]

        def fit_y(xlog: float) -> float:
            return slope * xlog + intercept / ln10

        x0, x1 = min(xs), max(xs)
        parts.append(
            f'<line x1="{px(x0):.2f}" y1="{py(fit_y(x0)):.2f}" x2="{px(x1):.2f}" '
            f'y2="{py(fit_y(x1)):.2f}" stroke="#c33" stroke-dasharray="5 3"/>'
        )
        parts.append(
            f'<text x="{width - mr - 6:.2f}" y="{mt + 16:.2f}" text-anchor="end" fill="#c33">'
            f'fitted slope {slope:.3f}, r^2 {summary.fit["r2"]:.4f}</text>'
        )

    line_pts = " ".join(f"{px(x):.2f},{py(math.log10(a['mean_R'])):.2f}" for x, a in zip(xs, aggs))
    parts.append(f'<polyline points="{line_pts}" fill="none" stroke="#2266aa" stroke-width="1.5"/>')
    for x, a, lo, hi in zip(xs, aggs, lows, highs):
        cx = px(x)
        if a["se_R"] > 0:
            parts.append(f'<line x1="{cx:.2f}" y1="{py(lo):.2f}" x2="{cx:.2f}" y2="{py(hi):.2f}" stroke="#2266aa"/>')
            for v in (lo, hi):
                parts.append(
                    f'<line x1="{cx - 4:.2f}" y1="{py(v):.2f}" x2="{cx + 4:.2f}" y2="{py(v):.2f}" stroke="#2266aa"/>'
                )
        parts.append(f'<circle cx="{cx:.2f}" cy="{py(math.log10(a["mean_R"])):.2f}" r="4" fill="#2266aa"/>')
    parts.append("</svg>")

    svg_path = os.path.join(out_dir, f"{stem}.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    csv_path = os.path.join(out_dir, f"{stem}_data.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(PLOT_CSV_HEADER + "\n")
        for a in aggs:
            fh.write(f"{a['n']},{a['mean_R']!r},{a['se_R']!r},{a['count']}\n")
    return svg_path


# ---------- one-off helpers used by the CLI ----------


def recovery_report(config: ExperimentConfig) -> dict:
    """Phase 1 alone: measure, solve, and report the recovered subspace.

    Uses the first configured horizon's cell environment and the practical
    overrides (m_X, m_Phi, epsilon are required), through the same
    :func:`subspace_bandit.pipeline.run_phase1` as a full run.  A query
    outside the action ball fails the cell like a sweep does: the report
    then holds status "error" and the reason instead of the solver output.
    """
    missing = {"m_X", "m_Phi", "epsilon"} - set(config.practical)
    if missing:
        raise ValueError(f"recover needs practical overrides: {sorted(missing)}")
    env = _cell_environment(config, config.horizons[0], config.seeds[0])
    try:
        phase1 = run_phase1(env, PracticalParams(n=1, **config.practical))
    except DomainError as exc:
        return {"status": "error", "reason": str(exc), "env_seed": env.seed}
    out = result_to_dict(phase1.recovery)
    out["status"] = "ok"
    out["queries"] = phase1.bundle.budget_used
    out["env_seed"] = env.seed
    return out


def conditioning_report(config: ExperimentConfig, n_samples: int) -> dict:
    env = _cell_environment(config, config.horizons[0], config.seeds[0])
    report = estimate_conditioning(env, n_samples)
    return {
        "d": env.d,
        "k": env.k,
        "family": env.mean.family,
        "n_samples": report.n_samples,
        "alpha_hat": report.alpha_hat,
        "singular_values": report.singular_values.tolist(),
    }


def plan_report(config: ExperimentConfig, n: int) -> dict:
    if "alpha" not in config.theory:
        raise ValueError("plan needs theory.alpha in the config")
    env = _cell_environment(config, n, config.seeds[0])
    return params_to_dict(_theory_plan(config, env, n))
