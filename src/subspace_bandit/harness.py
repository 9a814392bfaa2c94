"""Experiment sweeps: config handling, seed splitting, CSV/JSON emission,
regret-exponent fitting, and the sweep's self-contained SVG chart.

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
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .envs import (
    DomainError,
    Environment,
    estimate_conditioning,
    make_environment,
)
from .pipeline import (
    BudgetError,
    PracticalParams,
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
from .util import check_keys, check_number, derive_seed, dump_json

SWEEP_CSV_HEADER = "n,seed,R_total,R1,R2,R3,subspace_err,n1,status"
PLOT_CSV_HEADER = "n,mean_R,se_R,count"


# ---------- configuration ----------


# make_environment's keywords but the seed, which each cell derives
_ENVIRONMENT_KEYS = ("family", "d", "k", "sigma", "nu", "params")
_PRACTICAL_KEYS = {f.name for f in fields(PracticalParams)} - {"n"}
_PRACTICAL_REQUIRED = {f.name for f in fields(PracticalParams) if f.default is MISSING} - {"n"}
_CONSTANT_KEYS = {f.name for f in fields(TheoryConstants)}


@dataclass
class ExperimentConfig:
    """One sweep: an environment template crossed with horizons and seeds.

    environment holds make_environment's keywords (family, d, k, sigma,
    nu, params) but the seed, which each cell derives; any other key is an
    error, and the values are checked by building the first cell's
    environment, last.  practical holds PracticalParams overrides shared by all cells,
    each checked here in practical mode; theory holds {"alpha": ...,
    "constants": {...}}, nothing else, for theory-mode planning, and the
    constants are checked here in either mode.  out_dir is a path or None.
    """

    environment: dict
    horizons: list
    seeds: list
    mode: str = "practical"
    practical: dict = field(default_factory=dict)
    theory: dict = field(default_factory=dict)
    out_dir: Optional[str] = None
    constants: TheoryConstants = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.environment, dict):
            raise ValueError(f"environment must be an object, got {self.environment!r}")
        check_keys("environment", self.environment, _ENVIRONMENT_KEYS)
        missing = {"family", "d", "k"} - set(self.environment)
        if missing:
            raise ValueError(f"environment missing key(s): {sorted(missing)}")
        if self.mode not in ("theory", "practical"):
            raise ValueError(f"mode must be 'theory' or 'practical', got {self.mode!r}")
        for key in ("horizons", "seeds"):
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{key} must be a list, got {values!r}")
            for value in values:
                check_number(key, value, integer=True)
        self.horizons = [int(n) for n in self.horizons]
        if not self.horizons:
            raise ValueError("horizons must be nonempty")
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise ValueError(f"horizons must be strictly ascending, got {self.horizons}")
        if any(n < 1 for n in self.horizons):
            raise ValueError("horizons must be positive")
        if self.mode == "theory" and self.horizons[0] < 2:
            raise ValueError(f"horizons must be at least 2 in theory mode, got {self.horizons[0]}")
        self.seeds = [int(s) for s in self.seeds]
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if not isinstance(self.practical, dict):
            raise ValueError(f"practical must be an object, got {self.practical!r}")
        check_keys("practical", self.practical, _PRACTICAL_KEYS)
        known = None
        if self.mode == "practical":
            missing = _PRACTICAL_REQUIRED - set(self.practical)
            if missing:
                raise ValueError(f"practical config missing key(s): {sorted(missing)}")
            known = PracticalParams(n=self.horizons[0], **self.practical).known_subspace
        if not isinstance(self.theory, dict):
            raise ValueError(f"theory must be an object, got {self.theory!r}")
        check_keys("theory", self.theory, ("alpha", "constants"))
        if self.mode == "theory" and "alpha" not in self.theory:
            raise ValueError("theory mode needs theory.alpha in the config")
        if "alpha" in self.theory:
            alpha = self.theory["alpha"]
            check_number("theory.alpha", alpha, integer=False)
            if not (math.isfinite(alpha) and alpha > 0):
                raise ValueError(f"theory.alpha must be finite and > 0, got {alpha}")
        constants = self.theory.get("constants", {})
        if not isinstance(constants, dict):
            raise ValueError(f"theory.constants must be an object, got {constants!r}")
        check_keys("theory.constants", constants, _CONSTANT_KEYS)
        try:
            self.constants = TheoryConstants(**constants)
        except ValueError as exc:
            raise ValueError(f"theory.constants: {exc}") from None
        if not (self.out_dir is None or isinstance(self.out_dir, str) and self.out_dir):
            raise ValueError(f"out_dir must be a nonempty string or null, got {self.out_dir!r}")
        # an environment the config cannot build stops here, before any
        # cell runs or any directory exists
        try:
            d = _cell_environment(self, self.horizons[0], self.seeds[0]).d
        except ValueError as exc:
            raise ValueError(f"environment: {exc}") from None
        if known is not None and np.shape(known)[1] != d:
            raise ValueError(
                f"known_subspace: basis has {np.shape(known)[1]} columns but the "
                f"environment has d = {d}"
            )


def config_from_dict(data: dict) -> ExperimentConfig:
    check_keys("config", data, {f.name for f in fields(ExperimentConfig) if f.init})
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
    return make_environment(**config.environment, seed=derive_seed(seed, n))


def _theory_plan(config: ExperimentConfig, env: Environment, n: int) -> TheoryParams:
    """The theory-mode plan for horizon n on one cell's environment."""
    return plan_parameters(
        n=n, d=env.d, k=env.k, sigma=env.sigma, c2=env.mean.c2,
        alpha=float(config.theory["alpha"]), nu=env.nu, constants=config.constants,
    )


def _cell_params(config: ExperimentConfig, env: Environment, n: int):
    """One cell's settings: the theory plan for horizon n, or the practical
    overrides.  Raises StepSizeError when a plan has no workable step."""
    if config.mode == "theory":
        return _theory_plan(config, env, n)
    return PracticalParams(n=n, **config.practical)


def _run_cell(config: ExperimentConfig, n: int, seed: int):
    """Run one cell; returns (CellResult, RunRecord or None)."""
    env = _cell_environment(config, n, seed)
    nan = float("nan")

    def failed(status, n1, reason):
        return CellResult(n, seed, status, nan, nan, nan, nan, nan, n1, reason=str(reason))

    try:
        params = _cell_params(config, env, n)
    except StepSizeError as exc:
        return failed("infeasible", nan, exc), None
    skipped = getattr(params, "known_subspace", None) is not None
    n1_known = 0.0 if skipped else float(sampling_plan(params).budget())
    try:
        record = run_cablp(env, params)
    except BudgetError as exc:
        return failed("infeasible", n1_known, exc), None
    except DomainError as exc:
        return failed("error", n1_known, exc), None
    if record.aborted:
        return failed("aborted", float(record.phase1_rounds), record.abort_reason), record
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
    cell, sweep.csv with one row per cell, summary.json, and, when some
    horizon aggregated with a positive mean regret, the chart plot.svg and
    its numbers plot_data.csv.
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
    positive = [a for a in aggregates if a["mean_R"] > 0]
    if len(positive) >= 3:
        slope, intercept, r2 = fit_regret_exponent([(a["n"], a["mean_R"]) for a in positive])
        fit = {"slope": slope, "intercept": intercept, "r2": r2}
    summary = SweepSummary(
        config=config, cells=cells, aggregates=aggregates, failed_count=failed, fit=fit
    )
    if out_dir:
        with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
            write_sweep_csv(cells, fh)
        dump_json(summary.to_dict(), os.path.join(out_dir, "summary.json"))
        if positive:
            _write_plot(positive, fit, out_dir)
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


# ---------- the sweep's chart ----------


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


def _write_plot(aggs: list, fit: Optional[dict], out_dir: str) -> None:
    """Write a log-log regret chart as plot.svg plus its numbers as plot_data.csv.

    aggs is a nonempty list of aggregates, each with mean_R > 0, and fit the
    sweep's rate fit or None.  The chart needs no external tooling: markers,
    error bars, the fitted rate line, and decade ticks are emitted as raw
    SVG elements with a 10% margin around the data in log space.
    """
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

    if fit is not None:
        ln10 = math.log(10.0)
        slope, intercept = fit["slope"], fit["intercept"]

        def fit_y(xlog: float) -> float:
            return slope * xlog + intercept / ln10

        x0, x1 = min(xs), max(xs)
        parts.append(
            f'<line x1="{px(x0):.2f}" y1="{py(fit_y(x0)):.2f}" x2="{px(x1):.2f}" '
            f'y2="{py(fit_y(x1)):.2f}" stroke="#c33" stroke-dasharray="5 3"/>'
        )
        parts.append(
            f'<text x="{width - mr - 6:.2f}" y="{mt + 16:.2f}" text-anchor="end" fill="#c33">'
            f'fitted slope {slope:.3f}, r^2 {fit["r2"]:.4f}</text>'
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

    with open(os.path.join(out_dir, "plot.svg"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    with open(os.path.join(out_dir, "plot_data.csv"), "w", encoding="utf-8") as fh:
        fh.write(PLOT_CSV_HEADER + "\n")
        for a in aggs:
            fh.write(f"{a['n']},{a['mean_R']!r},{a['se_R']!r},{a['count']}\n")


# ---------- one-off helpers used by the CLI ----------


def recovery_report(config: ExperimentConfig) -> dict:
    """Phase 1 alone: measure, solve, and report the recovered subspace.

    Runs the first cell's settings (the theory plan or the practical
    overrides) through the same :func:`subspace_bandit.pipeline.run_phase1`
    as a full run.  A theory plan must fit its horizon; practical settings
    are not checked against it.  A cell fails like a sweep's, with status
    "infeasible" (no workable step size, or a theory plan over budget; no
    query spent), "error" (a query outside the action ball) or "aborted"
    (a recovery that collapses after the measurements); the report then
    holds the reason, and an aborted one the queries and solver diagnostics.
    """
    env = _cell_environment(config, config.horizons[0], config.seeds[0])
    try:
        params = _cell_params(config, env, config.horizons[0])
        if config.mode == "theory":
            params.check_budget()
            params = params.as_practical()
    except (StepSizeError, BudgetError) as exc:
        return {"status": "infeasible", "reason": str(exc), "env_seed": env.seed}
    try:
        phase1 = run_phase1(env, params)
    except DomainError as exc:
        return {"status": "error", "reason": str(exc), "env_seed": env.seed}
    recovery = phase1.recovery
    out = {"status": "aborted" if recovery.basis is None else "ok"}
    if recovery.basis is None:
        out["reason"] = recovery.abort_reason
    out.update(env_seed=env.seed, queries=phase1.bundle.budget_used)
    out.update(result_to_dict(recovery))
    out["lambda"] = recovery.lam
    out["outer_rounds"] = recovery.info.outer_rounds
    if recovery.basis is not None:
        out["basis"] = recovery.basis.tolist()
        out["subspace_err"] = recovery.subspace_err
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
