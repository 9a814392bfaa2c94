"""Tests for experiment sweeps, exponent fitting, plotting, and the CLI."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from subspace_bandit import harness
from subspace_bandit.cli import main
from subspace_bandit.util import dump_json
from subspace_bandit.harness import (
    ExperimentConfig,
    SWEEP_CSV_HEADER,
    SweepSummary,
    config_from_dict,
    emit_plot_data,
    fit_regret_exponent,
    load_config,
    run_experiment,
)

SEED = 77113


def small_config(**overrides):
    base = dict(
        environment={"family": "norm-squared", "d": 6, "k": 1, "sigma": 0.05, "nu": 0.1},
        mode="practical",
        practical={
            "m_X": 8,
            "m_Phi": 40,
            "epsilon": 0.05,
            "lambda_scale": 1e-3,
            "ucb_scale": 1.0,
        },
        horizons=[900, 1300, 1900],
        seeds=[1, 2],
        out_dir=None,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------- config validation ----------


class TestConfig:
    def test_horizons_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            small_config(horizons=[2000, 1000])

    def test_seeds_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            small_config(seeds=[3, 3])

    def test_mode_checked(self):
        with pytest.raises(ValueError, match="mode"):
            small_config(mode="hybrid")

    def test_unknown_practical_key_rejected(self):
        with pytest.raises(ValueError, match="unknown practical"):
            small_config(practical={"m_X": 8, "m_Phi": 40, "epsilon": 0.05, "stride": 2})

    def test_theory_mode_needs_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            small_config(mode="theory")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            config_from_dict(
                {
                    "environment": {"family": "linear", "d": 4, "k": 1},
                    "horizons": [100],
                    "seeds": [1],
                    "horizon": [100],
                }
            )

    def test_removed_oracle_and_epoch_knobs_rejected(self):
        base = {
            "environment": {"family": "linear", "d": 4, "k": 1},
            "horizons": [100],
            "seeds": [1],
        }
        with pytest.raises(ValueError, match="unknown config"):
            config_from_dict(dict(base, oracle_resolution=1e-3))
        for key, value in (("oracle_resolution", 1e-3), ("multi_epoch", True)):
            practical = {"m_X": 5, "m_Phi": 20, "epsilon": 0.05, key: value}
            with pytest.raises(ValueError, match="unknown practical"):
                config_from_dict(dict(base, practical=practical))

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "environment": {"family": "linear", "d": 4, "k": 1, "sigma": 0.0, "nu": 0.1},
                    "horizons": [500],
                    "seeds": [9],
                    "practical": {"m_X": 5, "m_Phi": 20, "epsilon": 0.05},
                }
            )
        )
        config = load_config(path)
        assert config.horizons == [500] and config.seeds == [9]
        config = load_config(path, {"seeds": [3, 4], "out_dir": "elsewhere"})
        assert config.seeds == [3, 4] and config.out_dir == "elsewhere"

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config(path)


# ---------- sweep execution ----------


class TestSweep:
    def test_single_cell_writes_one_json_and_one_row(self, tmp_path):
        config = small_config(horizons=[900], seeds=[5], out_dir=str(tmp_path / "out"))
        summary = run_experiment(config)
        assert len(summary.cells) == 1
        assert summary.cells[0].status == "ok"
        out = tmp_path / "out"
        assert (out / "run-n900-seed5.json").exists()
        assert (out / "summary.json").exists()
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == SWEEP_CSV_HEADER
        assert len(rows) == 2
        assert rows[1].startswith("900,5,") and rows[1].endswith(",ok")

    def test_grid_cardinality_and_aggregates(self):
        summary = run_experiment(small_config())
        assert len(summary.cells) == 6
        assert len(summary.aggregates) == 3
        assert all(a["count"] == 2 for a in summary.aggregates)
        assert summary.failed_count == 0
        assert summary.fit is not None and "slope" in summary.fit
        # decomposition carried through: totals equal their parts
        for cell in summary.cells:
            assert cell.R_total == pytest.approx(cell.R1 + cell.R2 + cell.R3, abs=1e-8)

    def test_rerun_is_byte_identical(self, tmp_path):
        config_a = small_config(horizons=[900, 1300, 1900], out_dir=str(tmp_path / "a"))
        config_b = small_config(horizons=[900, 1300, 1900], out_dir=str(tmp_path / "b"))
        run_experiment(config_a)
        run_experiment(config_b)
        for name in ("sweep.csv", "summary.json", "run-n900-seed1.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_extending_horizons_keeps_existing_cells(self):
        short = run_experiment(small_config(horizons=[900, 1300]))
        longer = run_experiment(small_config(horizons=[900, 1300, 1900]))
        for a, b in zip(short.cells, longer.cells[:4]):
            assert (a.n, a.seed, a.R_total) == (b.n, b.seed, b.R_total)

    def test_infeasible_horizon_becomes_failed_cell(self, tmp_path):
        config = small_config(horizons=[100, 900], out_dir=str(tmp_path / "out"))
        summary = run_experiment(config)
        assert summary.failed_count == 2
        bad = [c for c in summary.cells if c.n == 100]
        assert all(c.status == "infeasible" for c in bad)
        assert all(math.isnan(c.R_total) for c in bad)
        # aggregates skip the failed horizon entirely
        assert [a["n"] for a in summary.aggregates] == [900]
        rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 5
        assert rows[1].endswith(",infeasible")
        assert "nan" in rows[1]

    def test_environment_without_nu_takes_the_library_default(self):
        environment = {"family": "norm-squared", "d": 6, "k": 1, "sigma": 0.05, "seed": 3}
        summary = run_experiment(small_config(environment=environment))
        assert [c.status for c in summary.cells] == ["ok"] * 6

    def test_query_outside_ball_fails_the_cell_not_the_sweep(self, tmp_path):
        # probe shifts of length 2.0 * sqrt(d / m_Phi) = 0.77 leave B_6(1.1)
        practical = dict(small_config().practical, epsilon=2.0)
        out = tmp_path / "out"
        summary = run_experiment(small_config(practical=practical, out_dir=str(out)))
        assert [c.status for c in summary.cells] == ["error"] * 6
        assert summary.failed_count == 6
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == SWEEP_CSV_HEADER
        assert len(rows) == 7 and all(r.endswith(",error") for r in rows[1:])
        cells = json.loads((out / "summary.json").read_text())["cells"]
        assert all("step size infeasible" in c["reason"] for c in cells)

    def test_aborted_cell_recorded_not_raised(self):
        config = small_config(
            environment={
                "family": "linear",
                "d": 6,
                "k": 1,
                "sigma": 0.0,
                "nu": 0.1,
                "params": {"weight": [0.0]},
            },
            practical={"m_X": 8, "m_Phi": 40, "epsilon": 0.05, "lambda_override": 0.1},
            horizons=[900],
            seeds=[4],
        )
        summary = run_experiment(config)
        assert summary.cells[0].status == "aborted"
        assert summary.failed_count == 1
        assert summary.aggregates == []


# ---------- exponent fitting ----------


class TestFit:
    def test_exact_power_law(self):
        ns = [10**3, 10**4, 10**5, 10**6]
        slope, intercept, r2 = fit_regret_exponent([(n, n**0.75) for n in ns])
        assert slope == pytest.approx(0.75, abs=1e-10)
        assert intercept == pytest.approx(0.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_linear_regret(self):
        ns = [500, 4000, 20000, 90000]
        slope, _, _ = fit_regret_exponent([(n, 3.7 * n) for n in ns])
        assert slope == pytest.approx(1.0, abs=1e-10)

    def test_log_factor_inflates_slope_slightly(self):
        ns = np.geomspace(1e4, 1e6, 7)
        pts = [(n, n**0.75 * math.log(n) ** 0.25) for n in ns]
        slope, _, r2 = fit_regret_exponent(pts)
        assert 0.75 < slope < 0.80
        assert r2 > 0.999

    def test_rejects_nonpositive_and_short_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            fit_regret_exponent([(10, 1.0), (100, 0.0), (1000, 5.0)])
        with pytest.raises(ValueError, match="at least 3"):
            fit_regret_exponent([(10, 1.0), (100, 2.0)])


# ---------- plot emission ----------


def fake_summary(n_points=3):
    aggregates = [
        {
            "n": 10 ** (3 + i),
            "count": 5,
            "mean_R": 40.0 * (10 ** (3 + i)) ** 0.7,
            "se_R": 2.0 * (i + 1),
            "mean_R1": 1.0,
            "mean_R2": 1.0,
            "mean_R3": 1.0,
            "mean_subspace_err": 0.01,
        }
        for i in range(n_points)
    ]
    fit = {"slope": 0.7, "intercept": math.log(40.0), "r2": 0.999}
    return SweepSummary(config=None, cells=[], aggregates=aggregates, failed_count=0, fit=fit)


class TestPlot:
    def test_empty_summary_errors(self, tmp_path):
        empty = SweepSummary(config=None, cells=[], aggregates=[], failed_count=0, fit=None)
        with pytest.raises(ValueError, match="no data"):
            emit_plot_data(empty, str(tmp_path))

    def test_chart_has_markers_and_fit_annotation(self, tmp_path):
        path = emit_plot_data(fake_summary(), str(tmp_path))
        text = Path(path).read_text()
        assert text.startswith("<svg")
        assert text.count("<circle") == 3
        assert "fitted slope 0.700" in text
        assert (tmp_path / "plot_data.csv").read_text().splitlines()[0] == "n,mean_R,se_R,count"

    def test_markers_stay_inside_margins(self, tmp_path):
        import re

        path = emit_plot_data(fake_summary(), str(tmp_path))
        text = Path(path).read_text()
        cx = [float(v) for v in re.findall(r'<circle cx="([0-9.]+)"', text)]
        cy = [float(v) for v in re.findall(r'cy="([0-9.]+)"', text)]
        assert all(70.0 <= v <= 640.0 - 30.0 for v in cx)
        assert all(40.0 <= v <= 440.0 - 60.0 for v in cy)
        # 10% margin keeps data strictly off the frame
        assert min(cx) > 70.0 and max(cx) < 610.0


# ---------- CLI ----------


CLI_PRACTICAL = {"m_X": 8, "m_Phi": 40, "epsilon": 0.05, "lambda_scale": 1e-3, "ucb_scale": 1.0}
# one valid JSON value per practical override, for a d = 6, k = 1 environment
VALID_PRACTICAL = {
    "m_X": 6,
    "m_Phi": 30,
    "epsilon": 0.02,
    "N": 2,
    "delta": 0.2,
    "gamma": 3.5,
    "c0": 2.0,
    "lambda_scale": 1e-2,
    "lambda_override": 0.05,
    "ucb_scale": 0.5,
    "M": 3,
    "known_subspace": [[0.0, 1.0, 0.0, 0.0, 0.0, 0.0]],
}


def write_config(tmp_path, **overrides):
    data = dict(
        environment={"family": "norm-squared", "d": 6, "k": 1, "sigma": 0.05, "nu": 0.1},
        mode="practical",
        practical=dict(CLI_PRACTICAL),
        horizons=[900],
        seeds=[1],
    )
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestCli:
    def test_missing_config_is_exit_1(self, capsys):
        assert main(["run"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_run_prints_split_and_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "R_total=" in printed and "subspace_err=" in printed
        assert os.path.exists(os.path.join(out, "run-n900-seed1.json"))
        assert os.path.exists(os.path.join(out, "trace-n900-seed1.csv"))

    def test_sweep_then_fit_then_plot(self, tmp_path, capsys):
        cfg = write_config(tmp_path, horizons=[900, 1300, 1900], seeds=[1, 2])
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        assert "fitted exponent" in capsys.readouterr().out
        assert main(["fit", os.path.join(out, "sweep.csv")]) == 0
        assert "slope=" in capsys.readouterr().out
        assert main(["plot", os.path.join(out, "summary.json")]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(out, "plot.svg"))

    def test_sweep_with_failed_cell_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, horizons=[100])
        assert main(["sweep", "--config", cfg]) == 2
        assert "failed" in capsys.readouterr().out

    def test_sweep_with_query_outside_ball_exits_2(self, tmp_path, capsys):
        practical = {"m_X": 8, "m_Phi": 40, "epsilon": 2.0, "lambda_scale": 1e-3}
        cfg = write_config(tmp_path, practical=practical)
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 2
        assert "1 cell(s) failed" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "summary.json"))

    def test_summary_with_failed_cell_is_strict_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, horizons=[100, 900, 1300], seeds=[1, 2])
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2

        def reject(constant):
            raise ValueError(f"non-finite constant {constant} in summary.json")

        data = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        failed = [c for c in data["cells"] if c["status"] != "ok"]
        assert [c["n"] for c in failed] == [100, 100]
        assert all(c[key] is None for c in failed for key in ("R_total", "R1", "R2", "R3", "subspace_err"))
        assert main(["plot", str(out / "summary.json")]) == 0
        assert (out / "plot.svg").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"environment": {"family": "norm-squared", "d": 6, "k": 1, "sigma": float("nan")}},
            {"environment": {"family": "norm-squared", "d": 6, "k": 1, "nu": float("inf")}},
            {"practical": {"m_X": 8, "m_Phi": 40, "epsilon": 0.05, "ucb_scale": float("nan")}},
            {"practical": {"m_X": 8, "m_Phi": 40, "epsilon": 0.05, "ucb_scale": -1.0}},
        ],
        ids=["sigma-nan", "nu-inf", "ucb_scale-nan", "ucb_scale-negative"],
    )
    def test_non_finite_or_negative_input_is_config_error_before_any_cell(
        self, tmp_path, capsys, monkeypatch, overrides
    ):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran on a bad config")

        monkeypatch.setattr(harness, "run_cablp", no_cell)
        cfg = write_config(tmp_path, **overrides)
        assert main(["sweep", "--config", cfg]) == 1
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "horizon, extra",
        [(8 * 41 + 1, {}), (1, {"known_subspace": [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]})],
        ids=["one-round-after-phase-1", "known-subspace-one-round"],
    )
    def test_cell_with_one_phase2_round_is_ok(self, tmp_path, capsys, horizon, extra):
        practical = dict(CLI_PRACTICAL, **extra)
        cfg = write_config(tmp_path, horizons=[horizon, 900], practical=practical)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        cell = json.loads((out / "summary.json").read_text())["cells"][0]
        assert (cell["n"], cell["status"]) == (horizon, "ok")
        record = json.loads((out / f"run-n{horizon}-seed1.json").read_text())
        n1 = 0 if extra else 8 * 41
        assert (record["phase1_rounds"], record["phase2_rounds"]) == (n1, horizon - n1)
        assert len(record["regret_trace"]) == horizon
        total = record["total_regret"]
        assert abs(record["R1"] + record["R2"] + record["R3"] - total) <= 1e-8 * max(1.0, abs(total))

    @pytest.mark.parametrize("key", sorted(harness._PRACTICAL_KEYS))
    def test_every_practical_key_runs_a_sweep(self, tmp_path, capsys, key):
        practical = dict(CLI_PRACTICAL, **{key: VALID_PRACTICAL[key]})
        cfg = write_config(tmp_path, practical=practical)
        assert main(["sweep", "--config", cfg]) in (0, 2)
        capsys.readouterr()

    def test_every_practical_key_has_a_case(self):
        assert set(VALID_PRACTICAL) == harness._PRACTICAL_KEYS

    def test_solver_override_is_a_config_error(self, tmp_path, capsys):
        practical = dict(CLI_PRACTICAL, solver={"max_iters": 10})
        cfg = write_config(tmp_path, practical=practical)
        assert main(["sweep", "--config", cfg]) == 1
        assert "unknown practical override" in capsys.readouterr().err

    def test_seed_and_horizon_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--horizons", "1100", "--seeds", "7"]) == 0
        assert "n=1100 seed=7" in capsys.readouterr().out

    def test_recover_reports_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            environment={"family": "linear", "d": 10, "k": 1, "sigma": 0.0, "nu": 0.05},
            practical={"m_X": 20, "m_Phi": 300, "epsilon": 0.05, "lambda_scale": 1e-4},
        )
        assert main(["recover", "--config", cfg]) == 0
        printed = capsys.readouterr().out
        assert "subspace_err=" in printed and "converged=True" in printed

    def test_recover_with_query_outside_ball_is_a_failed_cell(self, tmp_path, capsys):
        # probe shifts of length 2.0 * sqrt(6 / 40) = 0.77 exceed nu
        cfg = write_config(tmp_path, practical={"m_X": 8, "m_Phi": 40, "epsilon": 2.0})
        out = tmp_path / "out"
        assert main(["recover", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "failed: error (step size infeasible" in captured.out
        assert "config error" not in captured.err
        report = json.loads((out / "recovery.json").read_text())
        assert report["status"] == "error" and "step size infeasible" in report["reason"]

    def test_conditioning_prints_alpha(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["conditioning", "--config", cfg, "--samples", "20000"]) == 0
        assert "alpha_hat=" in capsys.readouterr().out

    def test_plan_echoes_parameters(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            environment={"family": "norm-squared", "d": 6, "k": 1, "sigma": 0.0, "nu": 0.1},
            mode="theory",
            theory={"alpha": 0.5},
            horizons=[10**7],
        )
        assert main(["plan", "--config", cfg]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["m_X"] >= 1 and blob["m_Phi"] >= 1
        assert blob["n"] == 10**7

    def test_bad_mode_flag_value_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["run", "--config", cfg, "--mode", "bogus"])

    def test_fit_rejects_foreign_csv(self, tmp_path, capsys):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["fit", str(path)]) == 1
        assert "config error" in capsys.readouterr().err


def test_dump_json_writes_non_finite_as_null(tmp_path):
    path = tmp_path / "out.json"
    dump_json(
        {
            "scalars": [float("nan"), np.float64("inf"), np.float32("-inf"), np.int64(3), np.bool_(True), 0.5],
            "array": np.array([[1.0, np.nan], [-np.inf, 2.0]]),
            "pair": (np.float64(0.25), float("nan")),
        },
        path,
    )
    assert json.loads(path.read_text()) == {
        "scalars": [None, None, None, 3, True, 0.5],
        "array": [[1.0, None], [None, 2.0]],
        "pair": [0.25, None],
    }
