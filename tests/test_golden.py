"""Seeded golden runs: exact solver counts and bit-exact results.

Each cell pins phase 1's query count, the solver's FISTA iterations and
outer continuation rounds, and ``subspace_err`` and total regret as
``float.hex()``, so any change to the numbers a seeded run produces shows
here, not only a change beyond some tolerance.  Bit-exact pins hold for
one numpy/BLAS build; they were recorded with numpy's bundled OpenBLAS.
They hold on one BLAS thread as on two: the solver's step starts at L = 1,
not at an eigenvalue of a float Gram matrix, whose rounding followed the
thread count, and all five cells were checked at both.  The quickstart
cell, the one that used to move, is run again on one thread in a fresh
process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subspace_bandit
from subspace_bandit import pipeline
from subspace_bandit.envs import make_environment
from subspace_bandit.pipeline import PracticalParams, TheoryConstants, plan_parameters, run_cablp

CELLS = {
    # the README quickstart: a wide sketch, m_Phi = 100 < d * m_X = 300
    "quickstart-wide": (
        dict(d=10, k=1, family="norm-squared", sigma=0.01, nu=0.1, seed=11),
        dict(n=100_000, m_X=30, m_Phi=100, epsilon=0.2, N=10, lambda_override=0.5, ucb_scale=0.75),
    ),
    # a tall sketch, m_Phi = 40 > d * m_X = 16, solved in Gram form
    "small-tall": (
        dict(d=4, k=1, family="linear", sigma=0.0, nu=0.1, seed=5),
        dict(n=5000, m_X=4, m_Phi=40, epsilon=0.1, lambda_override=1e-3),
    ),
    # phase 1 skipped: phase 2 runs on the true subspace
    "known-subspace": (
        dict(d=6, k=2, family="centered-quadratic", sigma=0.05, nu=0.1, seed=9),
        dict(n=3000, m_X=8, m_Phi=40, epsilon=0.05, ucb_scale=0.5),
    ),
    # the sweep-k3 benchmark cell at n = 12000: a tall sketch (m_Phi = 200 >
    # d * m_X = 144), then 9588 rounds on 365 arms, where the UCB winner
    # changes almost every round
    "k3-round-robin": (
        dict(d=12, k=3, family="centered-quadratic", sigma=0.001, nu=0.1, seed=3),
        dict(n=12000, m_X=12, m_Phi=200, epsilon=0.1, lambda_override=0.08, ucb_scale=0.75),
    ),
    # a feasible theory plan (m_X = 1, m_Phi = 160675, tall): pins how a plan
    # runs, its planned lam as the constraint level and C0 as the solver's c0
    "theory-tall": (
        dict(d=6, k=1, family="linear", sigma=0.0, nu=0.1, seed=3),
        dict(n=300_000, alpha=1.0, constants=dict(delta=0.4, rho=0.9, p=0.9)),
    ),
}

# name: (phase1_rounds, FISTA iterations, outer rounds, subspace_err, total regret)
GOLDEN = {
    "quickstart-wide": (30300, 144, 3, "0x1.74c549f4f0cbap-2", "0x1.640c0df92df93p+15"),
    "small-tall": (164, 185, 9, "0x1.010c772e05485p-11", "0x1.b5d3ca7544e18p+10"),
    "known-subspace": (0, None, None, "0x0.0p+0", "0x1.a110000000000p+8"),
    "k3-round-robin": (2412, 121, 4, "0x1.a1b07f57052edp-3", "0x1.0eef88abd527bp+12"),
    "theory-tall": (160676, 50, 8, "0x1.799f06392d219p-18", "0x1.c0d79ff8c2a12p+17"),
}


def _run_params(name, env):
    """What run_cablp gets for a cell: a theory plan or practical settings."""
    params = CELLS[name][1]
    if name == "theory-tall":
        plan = plan_parameters(
            params["n"], env.d, env.k, env.sigma, env.mean.c2, params["alpha"],
            env.nu, TheoryConstants(**params["constants"]),
        )
        assert (plan.m_X, plan.m_Phi, plan.n1) == (1, 160675, 160676)
        return plan
    if name == "known-subspace":
        params = dict(params, known_subspace=env.A)
    return PracticalParams(**params)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_seeded_run_matches_golden(name, monkeypatch):
    env = make_environment(**CELLS[name][0])
    params = _run_params(name, env)
    solves = []
    recover = pipeline.recover_subspace

    def capture(*args, **kwargs):
        result = recover(*args, **kwargs)
        solves.append(result.info)
        return result

    monkeypatch.setattr(pipeline, "recover_subspace", capture)
    record = run_cablp(env, params)

    iterations = solves[0].iterations if solves else None
    outer = solves[0].outer_rounds if solves else None
    got = (
        record.phase1_rounds,
        iterations,
        outer,
        float(record.subspace_err).hex(),
        float(record.total_regret).hex(),
    )
    assert got == GOLDEN[name]
    assert len(solves) == (0 if name == "known-subspace" else 1)
    assert record.phase1_rounds + record.phase2_rounds == params.n


ONE_THREAD_RUN = """
import json, sys
from subspace_bandit.envs import make_environment
from subspace_bandit.pipeline import PracticalParams, run_cablp
env_args, params = json.loads(sys.argv[1]), json.loads(sys.argv[2])
record = run_cablp(make_environment(**env_args), PracticalParams(**params))
print(record.phase1_rounds, record.recovery_diagnostics["iterations"],
      float(record.subspace_err).hex(), float(record.total_regret).hex())
"""


def test_quickstart_pin_holds_on_one_blas_thread():
    env_args, params = CELLS["quickstart-wide"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = str(Path(subspace_bandit.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", ONE_THREAD_RUN, json.dumps(env_args), json.dumps(params)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    rounds, iterations, _, err, regret = GOLDEN["quickstart-wide"]
    assert out == [str(rounds), str(iterations), err, regret]
