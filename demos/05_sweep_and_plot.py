"""
A seeded sweep over horizons, aggregated and plotted
====================================================

"""

import os
import tempfile

from subspace_bandit import ExperimentConfig, run_experiment

out_dir = os.path.join(tempfile.mkdtemp(prefix="sweep-demo-"), "out")

# The same structure the CLI reads from JSON, built in code: a small
# noisy norm-squared problem, three horizons, two master seeds.  Every
# cell derives its own environment seed from (master seed, n), so adding
# horizons or seeds later never perturbs existing cells.  The constraint
# level is set by hand to 1e-3 times compute_lambda's default for this
# problem; at the default, zero is feasible and recovery aborts.
config = ExperimentConfig(
    environment={"family": "norm-squared", "d": 6, "k": 1, "sigma": 0.05, "nu": 0.1},
    horizons=[900, 1300, 1900],
    seeds=[1, 2],
    mode="practical",
    practical={
        "m_X": 8, "m_Phi": 40, "epsilon": 0.05,
        "lambda_override": 0.7364726058014618, "ucb_scale": 1.0,
    },
    out_dir=out_dir,
)

# run_experiment executes every (horizon, seed) cell, writes one JSON
# record per cell plus sweep.csv and summary.json, and fits the regret
# growth exponent once at least three horizons aggregated cleanly.  It
# also draws the chart: plot.svg, a self-contained log-log SVG, next to
# plot_data.csv, the exact numbers it plots.
summary = run_experiment(config)
for agg in summary.aggregates:
    print(
        f"n = {agg['n']:>5}  mean regret {agg['mean_R']:8.2f} "
        f"+- {agg['se_R']:.2f}  ({agg['count']} cells)"
    )

# The fit is a recorded diagnostic, not a verdict: six tiny cells at
# desk scale are dominated by seed noise (watch the standard errors
# above).  Rate experiments with real statistical weight live in
# tests/test_acceptance.py; the harness applies the same fit machinery
# to them unchanged.
print(f"fitted exponent {summary.fit['slope']:.3f}  (r^2 = {summary.fit['r2']:.4f})")

print()
print("files written to", out_dir)
for name in sorted(os.listdir(out_dir)):
    print(" ", name)
