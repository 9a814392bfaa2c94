"""Seeded golden runs: exact solver counts and bit-exact results.

Each cell pins phase 1's query count, the solver's FISTA iterations and
outer continuation rounds, and ``subspace_err`` and total regret as
``float.hex()``, so any change to the numbers a seeded run produces shows
here, not only a change beyond some tolerance.  Bit-exact pins hold for
one numpy/BLAS build; they were recorded with numpy's bundled OpenBLAS.
All six cells are run again in fresh processes on one BLAS thread and on
two.  The solve's rounds are one compiled call each (``fista_round``),
which sums in a fixed order and calls no BLAS or LAPACK, so even the
900-unknown ``recover-tall`` cell gives the same bits at either thread
count.
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
    # the recover-tall benchmark cell at workload seed 1: 900 unknowns, the
    # width where OpenBLAS would thread a float Gram product
    "recover-tall": (
        dict(d=30, k=2, family="centered-quadratic", sigma=0.0, nu=0.1, seed=1001),
        dict(n=30 * (6000 + 1) + 5000, m_X=30, m_Phi=6000, epsilon=0.1, lambda_override=0.02),
    ),
}

# name: (phase1_rounds, FISTA iterations, outer rounds, subspace_err, total regret)
GOLDEN = {
    "quickstart-wide": (30300, 109, 3, "0x1.74c54bdfc0907p-2", "0x1.640a11522c8a8p+15"),
    "small-tall": (164, 69, 8, "0x1.01073aa639853p-11", "0x1.b5d3ca751ddb0p+10"),
    "known-subspace": (0, None, None, "0x0.0p+0", "0x1.a110000000000p+8"),
    "k3-round-robin": (2412, 82, 4, "0x1.a1b0a220688efp-3", "0x1.0ef6740c19652p+12"),
    "theory-tall": (160676, 23, 8, "0x1.799d6c43f4276p-18", "0x1.c0d79ff8c2a11p+17"),
    "recover-tall": (180030, 30, 5, "0x1.612504cb5c52bp-8", "0x1.8a1c18519f17cp+13"),
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


def golden_row(name):
    """(phase1_rounds, FISTA iterations, outer rounds, subspace_err hex,
    total regret hex) of a seeded run of one cell."""
    env = make_environment(**CELLS[name][0])
    params = _run_params(name, env)
    solves = []
    recover = pipeline.recover_subspace

    def capture(*args, **kwargs):
        result = recover(*args, **kwargs)
        solves.append(result.info)
        return result

    pipeline.recover_subspace = capture
    try:
        record = run_cablp(env, params)
    finally:
        pipeline.recover_subspace = recover
    assert len(solves) == (0 if name == "known-subspace" else 1)
    assert record.phase1_rounds + record.phase2_rounds == params.n
    return (
        record.phase1_rounds,
        solves[0].iterations if solves else None,
        solves[0].outer_rounds if solves else None,
        float(record.subspace_err).hex(),
        float(record.total_regret).hex(),
    )


@pytest.mark.parametrize("name", sorted(CELLS))
def test_seeded_run_matches_golden(name):
    assert golden_row(name) == GOLDEN[name]


FRESH_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_golden
print(json.dumps({name: test_golden.golden_row(name) for name in sorted(test_golden.CELLS)}))
"""


def _fresh_process_rows(threads):
    """Every cell's golden row, from one fresh process on `threads` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = str(Path(subspace_bandit.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, str(Path(__file__).resolve().parent)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()[-1]
    return {name: tuple(row) for name, row in json.loads(out).items()}


def test_pins_hold_on_one_blas_thread():
    """All six cells, run again in one fresh process on one BLAS thread."""
    assert _fresh_process_rows("1") == GOLDEN


def test_pins_hold_on_two_blas_threads():
    """All six cells, run again in one fresh process on two BLAS threads:
    the results do not follow the thread count, at 900 unknowns neither."""
    assert _fresh_process_rows("2") == GOLDEN
