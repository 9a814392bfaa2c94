"""Tests for building, caching and loading the compiled kernels of
_kernels.c: phase 2's round loop, the tall sketch's Gram counts, the
solve's FISTA rounds and the float formatter."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subspace_bandit import _kernels, cli
from subspace_bandit.bandit import run_phase2
from subspace_bandit.envs import make_environment
from subspace_bandit.recovery import DantzigProblem, solve_dantzig
from subspace_bandit.sampling import SamplingPlan, draw_sampling_sets

SEED = 91600


def norm_squared_env(seed):
    return make_environment(d=8, k=1, family="norm-squared", sigma=0.2, nu=0.1, seed=seed)


SRC = str(Path(_kernels.__file__).resolve().parents[1])


def run_python(code):
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def no_compiler(monkeypatch, cache):
    """An empty cache folder and a compiler command that does not exist."""
    monkeypatch.setattr(_kernels, "_cache_dirs", lambda: [str(cache)])
    monkeypatch.setattr(_kernels, "_library", None)
    monkeypatch.setattr(_kernels, "_COMMAND", ("no-such-cc",) + _kernels._COMMAND[1:])


class TestKernelBuild:
    """Every kernel (phase 2's rounds, the tall Gram's counts, the solve's
    FISTA rounds) comes from the one library, built at first use and
    cached."""

    def test_import_loads_nothing(self):
        """Importing the package neither builds nor loads the kernels, and
        imports no cffi: nothing new runs at import."""
        run_python(
            "import sys, subspace_bandit\n"
            "from subspace_bandit import _kernels\n"
            "assert _kernels._library is None\n"
            "assert 'cffi' not in sys.modules\n"
        )

    def test_warm_cache_needs_no_compiler(self):
        _kernels.load()
        run_python(
            "import subprocess\n"
            "from subspace_bandit import bandit\n"
            "from subspace_bandit.envs import make_environment\n"
            "def refuse(command, **kwargs):\n"
            "    raise AssertionError(f'compiled with a warm cache: {command}')\n"
            "subprocess.run = refuse\n"
            "env = make_environment(d=6, k=1, family='norm-squared', sigma=0.1, nu=0.1, seed=5)\n"
            "got = bandit.run_phase2(env, env.A, 3000)\n"
            "assert env.query_count == 3000 and got.arm_ids.size == 3000\n"
            "from subspace_bandit.sampling import SamplingPlan, draw_sampling_sets\n"
            "assert draw_sampling_sets(SamplingPlan(m_X=2, m_Phi=70, epsilon=0.1), 5, rng=1).gram().shape == (10, 10)\n"
        )

    def test_build_caches_one_library_per_key(self, tmp_path, monkeypatch):
        """The first writable folder gets the library under its hashed name,
        with no partial file left; a second build finds it.  A build into
        the package's own folder (the first) deletes the libraries it
        supersedes there, but no partial build or other file; one into the
        shared temporary folder, or a warm-cache load, deletes nothing."""
        stale = ["_kernels-" + "0" * 64 + ".so", "_phase2-" + "1" * 64 + ".so"]
        kept = ["_kernels-" + "2" * 64 + ".so.123.tmp", "bandit.cpython-311.pyc"]
        own, shared, blocked = tmp_path / "own", tmp_path / "shared", tmp_path / "file"
        for folder in (own, shared):
            folder.mkdir()
            for name in stale + kept:
                (folder / name).write_text("")
        blocked.write_text("")
        monkeypatch.setattr(_kernels, "_cache_dirs", lambda: [str(blocked / "cache"), str(shared)])
        path = _kernels._build()
        assert os.path.dirname(path) == str(shared)
        assert re.fullmatch(r"_kernels-[0-9a-f]{64}\.so", os.path.basename(path))
        assert sorted(os.listdir(shared)) == sorted(stale + kept + [os.path.basename(path)])

        monkeypatch.setattr(_kernels, "_cache_dirs", lambda: [str(own), str(shared)])
        assert _kernels._build() == str(own / os.path.basename(path))
        assert sorted(os.listdir(own)) == sorted(kept + [os.path.basename(path)])
        monkeypatch.setattr(_kernels, "_COMMAND", (*_kernels._COMMAND, "-DSECOND_KEY"))
        second = _kernels._build()
        assert sorted(os.listdir(own)) == sorted(kept + [os.path.basename(second)])
        assert len(os.listdir(shared)) == len(stale + kept) + 1

        (own / stale[0]).write_text("")
        monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: pytest.fail("rebuilt"))
        assert _kernels._build() == second
        assert sorted(os.listdir(own)) == sorted(kept + [stale[0], os.path.basename(second)])

    def test_missing_compiler_raises_before_any_query(self, tmp_path, monkeypatch):
        no_compiler(monkeypatch, tmp_path)
        env = norm_squared_env(SEED + 1100)
        with pytest.raises(RuntimeError, match="cannot build the compiled kernels: no-such-cc -O2"):
            run_phase2(env, env.A, 500)
        assert env.query_count == 0
        assert env.rng.standard_normal() == norm_squared_env(SEED + 1100).rng.standard_normal()
        assert os.listdir(tmp_path) == []

    # a wide sketch (d * m_X = 48 > m_Phi) fails in the solve's rounds, a
    # tall one (24 < m_Phi) in its Gram counts; lam is 1e-3 times
    # compute_lambda at the default TheoryConstants
    @pytest.mark.parametrize(
        "m_x, lam", [(8, 0.7364726058014618), (4, 0.45094308029241253)], ids=["wide", "tall"]
    )
    def test_missing_compiler_is_not_a_config_error(self, m_x, lam, tmp_path, monkeypatch, capsys):
        no_compiler(monkeypatch, tmp_path / "cache")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "environment": {"family": "norm-squared", "d": 6, "k": 1, "sigma": 0.05, "nu": 0.1},
            "practical": {"m_X": m_x, "m_Phi": 40, "epsilon": 0.05, "lambda_override": lam},
            "horizons": [900],
            "seeds": [1],
        }))
        with pytest.raises(RuntimeError, match="no-such-cc"):
            cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert "config error" not in capsys.readouterr().err

    def test_solve_needs_the_kernels(self, tmp_path, monkeypatch):
        """A solve's rounds, and a tall sketch's Gram counts, run in the
        compiled kernels, so a solve on either shape raises RuntimeError
        naming the command; the zero-is-feasible exit builds nothing."""
        no_compiler(monkeypatch, tmp_path)

        def problem(m_phi, lam):
            sets = draw_sampling_sets(SamplingPlan(m_X=4, m_Phi=m_phi, epsilon=0.1), 6, rng=SEED)
            y = np.random.default_rng(SEED).standard_normal(m_phi)
            return DantzigProblem(y=y, sets=sets, lam=lam, k=1)

        tall, wide = problem(40, 1e-3), problem(20, 1e-3)
        assert tall.sets.tall and not wide.sets.tall
        for needs in (tall, wide):
            with pytest.raises(RuntimeError, match="cannot build the compiled kernels: no-such-cc -O2"):
                solve_dantzig(needs)
        assert solve_dantzig(problem(40, 1e6))[1].iterations == 0
        assert os.listdir(tmp_path) == []

    def test_recover_on_a_wide_sketch_needs_the_compiler(self, tmp_path, monkeypatch, capsys):
        """`recover` runs no phase 2, but its solve's rounds are compiled, so
        on a wide sketch too a missing compiler raises RuntimeError, as phase
        2 does, and is not reported as a config error."""
        no_compiler(monkeypatch, tmp_path / "cache")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "environment": {"family": "norm-squared", "d": 6, "k": 1, "sigma": 0.05, "nu": 0.1},
            "practical": {"m_X": 8, "m_Phi": 40, "epsilon": 0.05, "lambda_override": 0.7364726058014618},
            "horizons": [900],
            "seeds": [1],
        }))
        with pytest.raises(RuntimeError, match="cannot build the compiled kernels: no-such-cc"):
            cli.main(["recover", "--config", str(config), "--out", str(tmp_path / "out")])
        assert "config error" not in capsys.readouterr().err

    def test_compiler_errors_are_reported(self, tmp_path, monkeypatch):
        broken = tmp_path / "_kernels.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(_kernels, "_SOURCE", str(broken))
        monkeypatch.setattr(_kernels, "_cache_dirs", lambda: [str(tmp_path / "cache")])
        monkeypatch.setattr(_kernels, "_library", None)
        with pytest.raises(RuntimeError, match=r"(?s)cc -O2 .*_kernels\.c -lm: .*error"):
            _kernels.load()
        assert os.listdir(tmp_path / "cache") == []

    def test_source_compiles_without_warnings(self, tmp_path):
        command = [*_kernels._COMMAND, "-std=c99", "-Wall", "-Wextra", "-Werror",
                   "-o", str(tmp_path / "strict.so"), _kernels._SOURCE, "-lm"]
        done = subprocess.run(command, capture_output=True, text=True)
        assert done.returncode == 0 and done.stderr == "", done.stderr


def format_floats(values):
    """format_floats's text of a float64 vector."""
    library = _kernels.load()
    pow5, pow5_inv = library.ryu_tables
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = np.empty(26 * len(values), dtype=np.uint8)
    size = library.format_floats(
        values.ctypes.data, len(values), pow5.ctypes.data, pow5_inv.ctypes.data, out.ctypes.data
    )
    assert size <= out.size
    return out[:size].tobytes().decode("ascii")


class TestFormatFloats:
    """format_floats writes what json.dumps writes for each finite float:
    float.__repr__'s shortest round-trip digits, in its layout."""

    @staticmethod
    def assert_is_repr(values):
        got = format_floats(values).split(", ")
        assert len(got) == len(values)
        want = [float.__repr__(v) for v in values.tolist()]
        wrong = [(w, g) for w, g in zip(want, got) if w != g]
        assert not wrong, wrong[:5]

    def test_powers_and_layout_switches(self):
        """Every power of two and of ten a double holds, each with both
        neighbours, and the values where the layout changes form."""
        powers = np.concatenate([
            np.ldexp(1.0, np.arange(-1074, 1024)),
            np.array([float(f"1e{e}") for e in range(-323, 309)]),
            [np.finfo(float).tiny, np.finfo(float).max],
        ])
        with np.errstate(over="ignore"):
            near = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)])
        switches = [9999999999999998.0, 1e16, 0.0001, 9.999999999999999e-05, 0.0, 5e-324]
        values = np.concatenate([near[np.isfinite(near)], switches])
        self.assert_is_repr(np.concatenate([values, -values]))
        assert format_floats(np.array([0.0, -0.0, 1e16, 1e-05, 0.0001, 1e300])) == (
            "0.0, -0.0, 1e+16, 1e-05, 0.0001, 1e+300"
        )

    def test_random_bit_patterns(self):
        """2 * 10^5 finite doubles, every bit pattern equally likely."""
        bits = np.random.default_rng(SEED).integers(0, 2**64, size=201_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][:200_000]
        assert len(values) == 200_000
        self.assert_is_repr(values)

    def test_nothing_to_write(self):
        assert format_floats(np.zeros(0)) == ""
