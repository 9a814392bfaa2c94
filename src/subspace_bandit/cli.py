"""Command-line front end.

Subcommands: run (one cell), sweep (full grid, exponent fit and chart),
recover (phase 1 only), conditioning (gradient-moment spectrum), plan (echo
a theory-mode plan).

Exit codes: 0 success, 1 config or input error, 2 when any cell failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .harness import (
    ExperimentConfig,
    conditioning_report,
    load_config,
    plan_report,
    recovery_report,
    run_experiment,
)
from .util import dump_json


def _parse_int_list(flag: str, text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from exc


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ValueError("--config PATH is required for this command")
    overrides = {}
    if args.horizons is not None:
        overrides["horizons"] = _parse_int_list("--horizons", args.horizons)
    if args.seeds is not None:
        overrides["seeds"] = _parse_int_list("--seeds", args.seeds)
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.out is not None:
        overrides["out_dir"] = args.out
    return load_config(args.config, overrides)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="experiment config (JSON)")
    sub.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
    sub.add_argument("--seeds", metavar="LIST", help="comma-separated seed list override")
    sub.add_argument("--horizons", metavar="LIST", help="comma-separated horizon override")
    sub.add_argument("--mode", choices=["theory", "practical"], help="mode override")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspace-bandit",
        description="Two-phase subspace-recovery bandit experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one (horizon, seed) cell and print its regret split")
    _add_common(p)

    p = sub.add_parser("sweep", help="run the full horizon x seed grid, fit its exponent and chart it")
    _add_common(p)

    p = sub.add_parser("recover", help="run phase 1 only and report the recovered subspace")
    _add_common(p)

    p = sub.add_parser("conditioning", help="estimate the gradient-moment spectrum")
    _add_common(p)
    p.add_argument("--samples", type=int, default=50000, help="sphere sample count")

    p = sub.add_parser("plan", help="echo the theory-mode parameter plan as JSON")
    _add_common(p)

    return parser


# ---------- subcommand bodies ----------


def _cmd_run(args) -> int:
    config = _load_config(args)
    from .harness import _run_cell

    n, seed = config.horizons[0], config.seeds[0]
    cell, record = _run_cell(config, n, seed)
    if config.out_dir and record is not None:
        os.makedirs(config.out_dir, exist_ok=True)
        from .pipeline import record_to_dict, write_regret_csv

        dump_json(record_to_dict(record), os.path.join(config.out_dir, f"run-n{n}-seed{seed}.json"))
        with open(
            os.path.join(config.out_dir, f"trace-n{n}-seed{seed}.csv"), "w", encoding="utf-8"
        ) as fh:
            write_regret_csv(record, fh)
    if cell.status != "ok":
        print(f"cell (n={n}, seed={seed}) failed: {cell.status} ({cell.reason})")
        return 2
    print(
        f"n={n} seed={seed} R_total={cell.R_total:.4f} "
        f"R1={cell.R1:.4f} R2={cell.R2:.4f} R3={cell.R3:.4f} "
        f"subspace_err={cell.subspace_err:.3e} n1={int(cell.n1)}"
    )
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    summary = run_experiment(config)
    for agg in summary.aggregates:
        print(
            f"n={agg['n']} mean_R={agg['mean_R']:.4f} se={agg['se_R']:.4f} "
            f"({agg['count']} seeds)"
        )
    if summary.fit is not None:
        print(
            f"fitted exponent {summary.fit['slope']:.4f} "
            f"(r^2 {summary.fit['r2']:.4f})"
        )
    if summary.failed_count:
        print(f"{summary.failed_count} cell(s) failed")
        return 2
    return 0


def _cmd_recover(args) -> int:
    config = _load_config(args)
    report = recovery_report(config)
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        dump_json(report, os.path.join(config.out_dir, "recovery.json"))
    if report["status"] != "ok":
        n, seed = config.horizons[0], config.seeds[0]
        print(f"cell (n={n}, seed={seed}) failed: {report['status']} ({report['reason']})")
        return 2
    err = report.get("subspace_err")
    err_text = "n/a" if err is None else f"{err:.4e}"
    print(
        f"subspace_err={err_text} lambda={report['lambda']:.6g} "
        f"queries={report['queries']} converged={report['converged']}"
    )
    return 0


def _cmd_conditioning(args) -> int:
    config = _load_config(args)
    report = conditioning_report(config, args.samples)
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        dump_json(report, os.path.join(config.out_dir, "conditioning.json"))
    spectrum = ", ".join(f"{s:.5g}" for s in report["singular_values"])
    print(
        f"alpha_hat={report['alpha_hat']:.6g} over {report['n_samples']} samples "
        f"(spectrum: {spectrum})"
    )
    return 0


def _cmd_plan(args) -> int:
    config = _load_config(args)
    report = plan_report(config, config.horizons[0])
    text = json.dumps(report, indent=2)
    print(text)
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        with open(os.path.join(config.out_dir, "plan.json"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "recover": _cmd_recover,
    "conditioning": _cmd_conditioning,
    "plan": _cmd_plan,
}


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
