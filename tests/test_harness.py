"""Tests for experiment sweeps, exponent fitting, the sweep's chart, and the CLI."""

import inspect
import json
import math
import os

import numpy as np
import pytest

from subspace_bandit import harness
from subspace_bandit.cli import main
from subspace_bandit.envs import make_environment
from subspace_bandit.util import derive_seed, dump_json
from subspace_bandit.harness import (
    ExperimentConfig,
    SWEEP_CSV_HEADER,
    config_from_dict,
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
            "lambda_override": 0.7364726058014618,
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
        with pytest.raises(ValueError, match="practical.stride is not a key of practical"):
            small_config(practical={"m_X": 8, "m_Phi": 40, "epsilon": 0.05, "stride": 2})

    @pytest.mark.parametrize("width", [5, 7])
    def test_known_subspace_width_must_match_d(self, width):
        """Checked when the config loads, naming the key, not in the first
        cell against the environment it builds."""
        practical = dict(small_config().practical, known_subspace=[[1.0] + [0.0] * (width - 1)])
        with pytest.raises(ValueError, match=rf"known_subspace: basis has {width} columns .* d = 6"):
            small_config(practical=practical)

    def test_environment_without_family_rejected(self):
        with pytest.raises(ValueError, match=r"environment missing key\(s\): \['family'\]"):
            small_config(environment={"d": 6, "k": 1})

    def test_environment_keys_are_make_environment_keywords_but_the_seed(self):
        keywords = set(inspect.signature(make_environment).parameters) - {"seed"}
        assert set(harness._ENVIRONMENT_KEYS) == keywords

    def test_theory_mode_needs_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            small_config(mode="theory")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="config.horizon is not a key of config"):
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
        with pytest.raises(ValueError, match="config.oracle_resolution is not a key of config"):
            config_from_dict(dict(base, oracle_resolution=1e-3))
        for key, value in (("oracle_resolution", 1e-3), ("multi_epoch", True)):
            practical = {"m_X": 5, "m_Phi": 20, "epsilon": 0.05, key: value}
            with pytest.raises(ValueError, match=f"practical.{key} is not a key of practical"):
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
        for name in ("sweep.csv", "summary.json", "run-n900-seed1.json", "plot.svg", "plot_data.csv"):
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

    def test_no_out_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        summary = run_experiment(small_config(horizons=[900], seeds=[1]))
        assert summary.aggregates and summary.aggregates[0]["mean_R"] > 0
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "horizons", [[900], [900, 1300], [900, 1300, 1900]], ids=["one", "two", "three"]
    )
    def test_chart_draws_the_fit_only_from_three_horizons(self, tmp_path, horizons):
        out = tmp_path / "out"
        summary = run_experiment(small_config(horizons=horizons, out_dir=str(out)))
        text = (out / "plot.svg").read_text()
        assert text.count("<circle") == len(horizons)
        assert (summary.fit is not None) == (len(horizons) >= 3)
        if summary.fit is None:
            assert "fitted slope" not in text
        else:
            assert f"fitted slope {summary.fit['slope']:.3f}, r^2 {summary.fit['r2']:.4f}" in text

    @pytest.mark.parametrize("mean_R", [0.0, -3.5], ids=["zero", "negative"])
    def test_chart_and_fit_leave_out_nonpositive_aggregates(self, tmp_path, monkeypatch, mean_R):
        """summary.json keeps every aggregate; the log-log fit and chart
        cannot place a nonpositive mean regret, so they skip it."""
        aggregate = harness._aggregate

        def first_nonpositive(cells, horizons):
            aggs = aggregate(cells, horizons)
            aggs[0] = dict(aggs[0], mean_R=mean_R)
            return aggs

        monkeypatch.setattr(harness, "_aggregate", first_nonpositive)
        out = tmp_path / "out"
        summary = run_experiment(small_config(out_dir=str(out)))
        assert summary.fit is None
        saved = json.loads((out / "summary.json").read_text())["aggregates"]
        assert [a["n"] for a in saved] == [900, 1300, 1900] and saved[0]["mean_R"] == mean_R
        rows = (out / "plot_data.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["n", "1300", "1900"]
        assert (out / "plot.svg").read_text().count("<circle") == 2

    def test_no_positive_aggregate_writes_no_chart(self, tmp_path, monkeypatch):
        aggregate = harness._aggregate
        monkeypatch.setattr(
            harness, "_aggregate",
            lambda cells, horizons: [dict(a, mean_R=0.0) for a in aggregate(cells, horizons)],
        )
        out = tmp_path / "out"
        summary = run_experiment(small_config(horizons=[900], seeds=[1], out_dir=str(out)))
        assert summary.fit is None and summary.failed_count == 0
        assert sorted(os.listdir(out)) == ["run-n900-seed1.json", "summary.json", "sweep.csv"]

    def test_environment_without_nu_takes_the_library_default(self):
        environment = {"family": "norm-squared", "d": 6, "k": 1, "sigma": 0.05}
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


# ---------- the sweep's chart ----------


def fake_aggregates(n_points=3):
    return [
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


FAKE_FIT = {"slope": 0.7, "intercept": math.log(40.0), "r2": 0.999}

# (n, mean_R, se_R, count) rows a sweep can hand the chart: one horizon or
# several, with or without a rate fit, no error bars or a bar reaching past
# zero, flat or falling regret, and totals near either end of the float range
CHART_CASES = {
    "one-horizon": [(900, 25.0, 0.0, 1)],
    "two-horizons": [(900, 25.0, 1.5, 2), (1300, 31.0, 2.0, 2)],
    "rate-fit": [(1000, 500.0, 20.0, 4), (4000, 1300.0, 45.0, 4), (16000, 3500.0, 90.0, 4)],
    "no-error-bars": [(1000, 500.0, 0.0, 1), (4000, 1300.0, 0.0, 1), (16000, 3500.0, 0.0, 1)],
    "bar-past-zero": [(900, 4.0, 6.0, 3), (1300, 9.0, 1.0, 3), (1900, 12.0, 2.0, 3)],
    "flat-regret": [(900, 50.0, 0.0, 1), (1300, 50.0, 0.0, 1), (1900, 50.0, 0.0, 1)],
    "falling-regret": [(900, 80.0, 5.0, 2), (1300, 60.0, 4.0, 2), (1900, 45.0, 3.0, 2)],
    "huge-totals": [(1000, 1e300, 1e299, 2), (10000, 5e300, 2e299, 2), (100000, 2e301, 1e300, 2)],
    "tiny-totals": [(1000, 1e-300, 1e-301, 2), (10000, 5e-300, 2e-301, 2), (100000, 2e-299, 1e-300, 2)],
}


class TestPlot:
    def test_chart_has_markers_and_fit_annotation(self, tmp_path):
        harness._write_plot(fake_aggregates(), FAKE_FIT, str(tmp_path))
        text = (tmp_path / "plot.svg").read_text()
        assert text.startswith("<svg")
        assert text.count("<circle") == 3
        assert "fitted slope 0.700" in text
        assert (tmp_path / "plot_data.csv").read_text().splitlines()[0] == "n,mean_R,se_R,count"

    def test_markers_stay_inside_margins(self, tmp_path):
        import re

        harness._write_plot(fake_aggregates(), FAKE_FIT, str(tmp_path))
        text = (tmp_path / "plot.svg").read_text()
        cx = [float(v) for v in re.findall(r'<circle cx="([0-9.]+)"', text)]
        cy = [float(v) for v in re.findall(r'cy="([0-9.]+)"', text)]
        assert all(70.0 <= v <= 640.0 - 30.0 for v in cx)
        assert all(40.0 <= v <= 440.0 - 60.0 for v in cy)
        # 10% margin keeps data strictly off the frame
        assert min(cx) > 70.0 and max(cx) < 610.0

    @pytest.mark.parametrize("rows", list(CHART_CASES.values()), ids=list(CHART_CASES))
    def test_chart_of_sweep_aggregates_stays_in_frame(self, tmp_path, rows):
        import re

        aggs = [{"n": n, "mean_R": mean, "se_R": se, "count": count} for n, mean, se, count in rows]
        fit = None
        if len(aggs) >= 3:
            slope, intercept, r2 = fit_regret_exponent([(a["n"], a["mean_R"]) for a in aggs])
            fit = {"slope": slope, "intercept": intercept, "r2": r2}
        harness._write_plot(aggs, fit, str(tmp_path))
        text = (tmp_path / "plot.svg").read_text()
        assert "nan" not in text and "inf" not in text
        number = r"(-?[0-9.]+)"
        circles = re.findall(rf'<circle cx="{number}" cy="{number}"', text)
        assert len(circles) == len(aggs)
        bars = re.findall(
            rf'<line x1="{number}" y1="{number}" x2="{number}" y2="{number}" stroke="#2266aa"/>', text
        )
        # one vertical bar and two caps per aggregate with a nonzero standard error
        assert len(bars) == 3 * sum(a["se_R"] > 0 for a in aggs)
        for x, y in circles + [(x, y) for x1, y1, x2, y2 in bars for x, y in ((x1, y1), (x2, y2))]:
            assert 70.0 < float(x) < 610.0 and 40.0 < float(y) < 380.0
        assert ("fitted slope" in text) == (fit is not None)
        assert (tmp_path / "plot_data.csv").read_text().splitlines() == ["n,mean_R,se_R,count"] + [
            f"{n},{mean!r},{se!r},{count}" for n, mean, se, count in rows
        ]


# ---------- CLI ----------


# lambda_override is 1e-3 times compute_lambda at the default TheoryConstants
# for CLI_ENVIRONMENT and this plan
CLI_PRACTICAL = {
    "m_X": 8, "m_Phi": 40, "epsilon": 0.05, "lambda_override": 0.7364726058014618, "ucb_scale": 1.0,
}
# one valid JSON value per practical override, for a d = 6, k = 1 environment
VALID_PRACTICAL = {
    "m_X": 6,
    "m_Phi": 30,
    "epsilon": 0.02,
    "N": 2,
    "c0": 2.0,
    "lambda_override": 0.05,
    "ucb_scale": 0.5,
    "known_subspace": [[0.0, 1.0, 0.0, 0.0, 0.0, 0.0]],
}


CLI_ENVIRONMENT = {"family": "norm-squared", "d": 6, "k": 1, "sigma": 0.05, "nu": 0.1}


def write_config(tmp_path, **overrides):
    data = dict(
        environment=dict(CLI_ENVIRONMENT),
        mode="practical",
        practical=dict(CLI_PRACTICAL),
        horizons=[900],
        seeds=[1],
    )
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


# a feasible theory plan at n = 300000: m_X = 1, m_Phi = 160675, n1 = 160676
THEORY_CONFIG = dict(
    environment={"family": "linear", "d": 6, "k": 1, "sigma": 0.0, "nu": 0.1},
    mode="theory",
    theory={"alpha": 1.0, "constants": {"delta": 0.4, "rho": 0.9, "p": 0.9}},
    practical={},
    horizons=[300_000],
)


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

    def test_sweep_writes_the_chart(self, tmp_path, capsys):
        cfg = write_config(tmp_path, horizons=[900, 1300, 1900], seeds=[1, 2])
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert "fitted exponent" in capsys.readouterr().out
        text = (out / "plot.svg").read_text()
        assert text.startswith("<svg") and text.count("<circle") == 3
        assert "fitted slope" in text
        aggregates = json.loads((out / "summary.json").read_text())["aggregates"]
        rows = [f"{a['n']},{a['mean_R']!r},{a['se_R']!r},{a['count']}"
                for a in aggregates if a["mean_R"] > 0]
        assert len(rows) == 3
        assert (out / "plot_data.csv").read_text().splitlines() == ["n,mean_R,se_R,count"] + rows

    @pytest.mark.parametrize("command", ["fit", "plot"])
    def test_removed_subcommand_is_an_invalid_choice(self, capsys, command):
        """The sweep writes the exponent fit and the chart itself."""
        with pytest.raises(SystemExit) as exc:
            main([command, "x.csv" if command == "fit" else "x.json"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_sweep_with_failed_cell_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, horizons=[100])
        assert main(["sweep", "--config", cfg]) == 2
        assert "failed" in capsys.readouterr().out

    def test_sweep_with_every_cell_failed_writes_no_chart(self, tmp_path, capsys):
        cfg = write_config(tmp_path, horizons=[100], seeds=[1, 2])
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert "2 cell(s) failed" in printed.out
        assert not any(line.startswith("config error") for line in printed.err.splitlines())
        assert sorted(os.listdir(out)) == ["summary.json", "sweep.csv"]

    def test_sweep_with_query_outside_ball_exits_2(self, tmp_path, capsys):
        practical = {"m_X": 8, "m_Phi": 40, "epsilon": 2.0, "lambda_override": 0.03706776690647182}
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
        assert (out / "plot.svg").read_text().count("<circle") == 2
        assert [row.split(",")[0] for row in (out / "plot_data.csv").read_text().splitlines()] == [
            "n", "900", "1300",
        ]

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
        "key, value",
        [
            ("c0", -1.0),
            ("lambda_override", -1.0),
            ("lambda_override", float("inf")),
            ("m_X", 8.5),
            ("N", 1.5),
            ("epsilon", "0.05"),
            ("known_subspace", [[2.0, 0.0, 0.0, 0.0, 0.0, 0.0]]),
            ("known_subspace", [[1.0, 0.0, 0.0, 0.0, 0.0]]),
            ("known_subspace", [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0]]),
        ],
    )
    def test_bad_practical_value_is_config_error_before_any_query(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        """Each value fails a later stage, most after phase 1 has spent its
        queries."""
        envs = []
        make = harness._cell_environment

        def spy(*args, **kwargs):
            envs.append(make(*args, **kwargs))
            return envs[-1]

        monkeypatch.setattr(harness, "_cell_environment", spy)
        cfg = write_config(tmp_path, practical=dict(CLI_PRACTICAL, **{key: value}))
        assert main(["sweep", "--config", cfg]) == 1
        assert f"config error: {key}" in capsys.readouterr().err
        assert all(env.query_count == 0 for env in envs)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"horizons": 900}, "horizons"),
            ({"horizons": [900.7]}, "horizons"),
            ({"horizons": ["900"]}, "horizons"),
            ({"seeds": [1.9]}, "seeds"),
            ({"seeds": [True]}, "seeds"),
            ({"environment": dict(CLI_ENVIRONMENT, d=6.9)}, "environment.d"),
            ({"environment": dict(CLI_ENVIRONMENT, k=True)}, "environment.k"),
            ({"environment": dict(CLI_ENVIRONMENT, sigma="0.01")}, "environment.sigma"),
            ({"environment": dict(CLI_ENVIRONMENT, nu="0.1")}, "environment.nu"),
            ({"mode": "theory", "theory": {"alpha": "0.5"}}, "theory.alpha"),
            ({"practical": 5}, "practical"),
            ({"practical": None}, "practical"),
            ({"out_dir": 5}, "out_dir"),
            ({"out_dir": ["x"]}, "out_dir"),
        ],
        ids=[
            "horizons-scalar", "horizon-float", "horizon-str", "seed-float", "seed-bool",
            "d-float", "k-bool", "sigma-str", "nu-str", "alpha-str",
            "practical-int", "practical-null", "out_dir-int", "out_dir-list",
        ],
    )
    def test_non_number_is_config_error(self, tmp_path, capsys, overrides, key):
        """Each value was once truncated by int() or parsed by float(), and
        the run went ahead on some other cell (a scalar horizon, a practical
        block that is not an object and an out_dir that is not a string
        raised a TypeError out of the CLI)."""
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {key} must be ")
        assert captured.out == ""

    def test_missing_practical_key_is_config_error(self, tmp_path, capsys):
        practical = {key: v for key, v in CLI_PRACTICAL.items() if key != "m_X"}
        cfg = write_config(tmp_path, practical=practical)
        assert main(["sweep", "--config", cfg]) == 1
        assert "config error: practical config missing key(s): ['m_X']" in capsys.readouterr().err

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
        assert "config error: practical.solver is not a key" in capsys.readouterr().err

    def test_seed_and_horizon_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--horizons", "1100", "--seeds", "7"]) == 0
        assert "n=1100 seed=7" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [("--horizons", ""), ("--horizons", "900,,1100"), ("--seeds", ""), ("--seeds", "1,"),
         ("--out", "")],
    )
    def test_empty_override_is_config_error(self, tmp_path, capsys, flag, value):
        """Each was once dropped without a word, and the run went ahead on
        the config's horizons, seeds or output directory."""
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, flag, value]) == 1
        captured = capsys.readouterr()
        key = "out_dir" if flag == "--out" else flag
        assert captured.err.startswith(f"config error: {key} ") and captured.out == ""

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (dict(THEORY_CONFIG, theory={"alpha": 1.0, "constans": {"delta": 0.9}}),
             "theory.constans"),
            ({"environment": dict(CLI_ENVIRONMENT, sigmaa=5.0)}, "environment.sigmaa"),
            ({"practical": dict(CLI_PRACTICAL, lambda_scale=1e-3)}, "practical.lambda_scale"),
            ({"practical": dict(CLI_PRACTICAL, M=3)}, "practical.M"),
            ({"environment": dict(CLI_ENVIRONMENT, seed=3)}, "environment.seed"),
            ({"environment": dict(CLI_ENVIRONMENT, A=[[1, 0, 0, 0, 0, 0]])}, "environment.A"),
        ],
        ids=[
            "theory-typo", "environment-typo", "removed-lambda_scale", "removed-M",
            "environment-seed", "environment-A",
        ],
    )
    def test_unknown_key_is_config_error_before_any_cell(
        self, tmp_path, capsys, monkeypatch, overrides, key
    ):
        """Each typo was once ignored: the plan used the default constants,
        and the cell ran noiseless and exited 0.  lambda_scale and M were
        practical keys once; a config that still sets one stops here.  Each
        cell once dropped an environment's seed and A and drew its own."""

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell started on a bad config")

        monkeypatch.setattr(harness, "_cell_environment", no_cell)
        monkeypatch.setattr(harness, "run_cablp", no_cell)
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {key} is not a ")
        assert captured.out == ""

    def test_recover_with_a_huge_resampling_factor(self, tmp_path, capsys):
        """N = 10^12 repeats per point cost one normal draw per point, and
        the report charges every one of them."""
        cfg = write_config(tmp_path, practical=dict(CLI_PRACTICAL, N=10**12))
        out = tmp_path / "out"
        assert main(["recover", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "recovery.json").read_text())
        assert report["status"] == "ok"
        assert report["queries"] == 10**12 * 8 * (40 + 1)

    def test_recover_reports_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            environment={"family": "linear", "d": 10, "k": 1, "sigma": 0.0, "nu": 0.05},
            practical={"m_X": 20, "m_Phi": 300, "epsilon": 0.05, "lambda_override": 3.38886042793149e-05},
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

    def test_recover_with_collapsed_recovery_is_an_aborted_cell(self, tmp_path, capsys):
        """As run and sweep record it: zero gradients leave nothing to recover."""
        cfg = write_config(
            tmp_path,
            environment={"family": "linear", "params": {"weight": [0.0]}, "d": 8, "k": 1},
            practical={"m_X": 10, "m_Phi": 80, "epsilon": 0.02, "lambda_override": 0.1},
        )
        out = tmp_path / "out"
        assert main(["recover", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "cell (n=900, seed=1) failed: aborted (degenerate recovery" in captured.out
        assert captured.err == ""
        report = json.loads((out / "recovery.json").read_text())
        assert report["status"] == "aborted" and "degenerate recovery" in report["reason"]
        assert report["queries"] == 10 * 81
        assert report["env_seed"] == derive_seed(1, 900)
        assert report["feasible"] and report["iterations"] == 0 and report["lambda"] == 0.1

    def test_recover_runs_the_theory_plans_phase_1(self, tmp_path, capsys):
        """recover on a theory config runs the plan's phase 1, without the
        budget check, and recovers what a full run of that cell recovers."""
        cfg = write_config(tmp_path, **THEORY_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert main(["recover", "--config", cfg, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        report = json.loads((out / "recovery.json").read_text())
        record = json.loads((out / "run-n300000-seed1.json").read_text())
        assert report["status"] == "ok" and report["queries"] == 160676
        assert f"subspace_err={record['subspace_err']:.3e}" in printed
        assert report["subspace_err"] == record["subspace_err"]

    def test_run_writes_the_theory_plan_echo(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **THEORY_CONFIG)
        out = tmp_path / "out"
        assert main(["plan", "--config", cfg]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        record = json.loads((out / "run-n300000-seed1.json").read_text())
        assert record["mode"] == "theory"
        assert record["params"] == plan
        assert (plan["m_X"], plan["m_Phi"], plan["n1"]) == (1, 160675, 160676)

    def test_recover_on_a_plan_without_step_size_is_infeasible(
        self, tmp_path, capsys, monkeypatch
    ):
        """nu = 0 leaves no room for a probe step: recover reports the cell
        infeasible, as run does, and spends nothing."""
        envs = []
        make = harness._cell_environment

        def spy(*args, **kwargs):
            envs.append(make(*args, **kwargs))
            return envs[-1]

        monkeypatch.setattr(harness, "_cell_environment", spy)
        environment = dict(THEORY_CONFIG["environment"], nu=0.0)
        cfg = write_config(tmp_path, **dict(THEORY_CONFIG, environment=environment))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg]) == 2
        run_line = capsys.readouterr().out
        assert main(["recover", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "failed: infeasible (step-size infeasible" in captured.out
        assert captured.out == run_line and captured.err == ""
        report = json.loads((out / "recovery.json").read_text())
        assert report["status"] == "infeasible" and "queries" not in report
        assert len(envs) == 2 and all(env.query_count == 0 for env in envs)

    def test_over_budget_theory_plan_is_refused_by_run_and_recover(
        self, tmp_path, capsys, monkeypatch
    ):
        """sigma = 0.01 makes the plan's resampling factor N about 2e13, and
        no horizon up to 2^60 fits it.  run and recover report the cell
        infeasible alike, and recover spends nothing: it once ran that
        phase 1 and asked for an N-wide noise draw."""
        envs = []
        make = harness._cell_environment

        def spy(*args, **kwargs):
            envs.append(make(*args, **kwargs))
            return envs[-1]

        monkeypatch.setattr(harness, "_cell_environment", spy)
        environment = dict(THEORY_CONFIG["environment"], sigma=0.01)
        cfg = write_config(tmp_path, **dict(THEORY_CONFIG, environment=environment))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg]) == 2
        run_line = capsys.readouterr().out
        assert "failed: infeasible (budget infeasible" in run_line
        assert run_line.endswith("; no n up to 2^60 fits)\n")
        assert main(["recover", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == run_line and captured.err == ""
        report = json.loads((out / "recovery.json").read_text())
        assert report["status"] == "infeasible" and "queries" not in report
        assert len(envs) == 2 and all(env.query_count == 0 for env in envs)

    @pytest.mark.parametrize(
        "constants, message",
        [
            ({"delta": "0.4"}, "theory.constants: delta must be a real number"),
            ({"gamma": True}, "theory.constants: gamma must be a real number"),
            ({"c1": float("inf")}, "theory.constants: c1 must be finite"),
            ({"delta": 0.9}, "theory.constants: delta must lie in"),
            ({"delt": 0.4}, "theory.constants.delt is not a key of theory.constants"),
            ("delta", "theory.constants must be an object"),
            (None, "theory must be an object"),
        ],
        ids=[
            "delta-str", "gamma-bool", "c1-inf", "delta-out-of-range", "delta-typo",
            "not-an-object", "no-theory",
        ],
    )
    def test_bad_theory_constant_is_config_error_before_any_cell(
        self, tmp_path, capsys, monkeypatch, constants, message
    ):
        """A string once ended run in a TypeError traceback from inside the
        first cell."""

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell started on a bad config")

        monkeypatch.setattr(harness, "_cell_environment", no_cell)
        theory = "alpha" if constants is None else {"alpha": 1.0, "constants": constants}
        cfg = write_config(tmp_path, **dict(THEORY_CONFIG, theory=theory))
        assert main(["run", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "family, k, params, message",
        [
            ("gaussian-bump", 1, {"widht": 0.2}, "params.widht is not a parameter"),
            ("gaussian-bump", 1, {"width": "0.5"}, "params.width must be a real number"),
            ("gaussian-bump", 1, {"width": True}, "params.width must be a real number"),
            ("linear", 1, {"weight": ["1"]}, "params.weight must be a list of k = 1 "),
            ("centered-quadratic", 1, {"center": ["0.1"]}, "params.center must be a list of k = 1 "),
            ("linear", 2, {"weight": [1.0]}, "params.weight must be a list of k = 2 "),
        ],
        ids=["width-typo", "width-str", "width-bool", "weight-str", "center-str", "weight-short"],
    )
    def test_bad_family_parameter_is_config_error(self, tmp_path, capsys, family, k, params, message):
        """A typo was ignored and the cell ran on the default; strings and
        bools were parsed; a short weight failed in numpy's reshape."""
        environment = {"family": family, "d": 6, "k": k, "sigma": 0.05, "params": params}
        cfg = write_config(tmp_path, environment=environment)
        assert main(["run", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {message}")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_bad_environment_leaves_no_output_directory(self, tmp_path, capsys):
        """The first cell once refused the center after sweep had made the
        directory, and left it empty."""
        environment = {"family": "centered-quadratic", "d": 6, "k": 1, "params": {"center": [2.0]}}
        cfg = write_config(tmp_path, environment=environment)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert "config error: center must lie in the unit ball" in capsys.readouterr().err
        assert not out.exists()

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


def test_dump_json_writes_non_finite_as_null(tmp_path):
    path = tmp_path / "out.json"
    dump_json(
        {
            "scalars": [float("nan"), np.float64("inf"), np.float32("-inf"), np.int64(3), np.bool_(True), 0.5],
            "array": np.array([[1.0, np.nan], [-np.inf, 2.0]]),
            "finite": np.array([0.1, -2.5, 1e-300]),
            "empty": np.zeros(0),
            "pair": (np.float64(0.25), float("nan")),
        },
        path,
    )
    assert json.loads(path.read_text()) == {
        "scalars": [None, None, None, 3, True, 0.5],
        "array": [[1.0, None], [None, 2.0]],
        "finite": [0.1, -2.5, 1e-300],
        "empty": [],
        "pair": [0.25, None],
    }


@pytest.mark.parametrize(
    "trace",
    [
        np.array([0.0, -0.0, 0.5, -0.0, 0.0, 0.5, 1e-300, -1e300, 0.1 + 0.2]),
        np.repeat(np.random.default_rng(3).random(40), 25),  # repeats, as phase 2 writes
        np.zeros(0),
        np.array([0.25, np.nan, -0.0, 0.25]),  # not finite: the null path
        np.array([-0.0, 1.0, 2.0, 3.0])[::2],  # strided
        np.array([1.5, -0.0], dtype=np.float32),  # not float64: json.dumps
    ],
    ids=["signed-zeros", "repeats", "empty", "non-finite", "strided", "float32"],
)
def test_dump_json_bytes_are_json_dumps(tmp_path, trace):
    """dump_json encodes a finite float64 trace from its distinct bit
    patterns, and the rest through json.dumps, item by item: the file's
    bytes are json.dumps's, with -0.0 kept apart from 0.0."""
    from subspace_bandit.util import _json_ready

    record = {
        "mode": "practical", "n": 3, 7: "int key", "params": {"m_X": 2, "eps": float("nan")},
        "regret_trace": trace, "after": [np.float64(-0.0), None], "last": np.int64(4),
    }
    path = tmp_path / "run.json"
    dump_json(record, path)
    assert path.read_bytes() == (json.dumps(_json_ready(record), allow_nan=False) + "\n").encode()
    for top in ([trace, 1.0], trace, 2.5):
        dump_json(top, path)
        assert path.read_bytes() == (json.dumps(_json_ready(top), allow_nan=False) + "\n").encode()
