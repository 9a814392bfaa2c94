"""Seeded golden runs: exact solver counts and bit-exact results.

Each cell pins phase 1's query count, the solver's FISTA iterations and
outer continuation rounds, and ``subspace_err`` and total regret as
``float.hex()``, so any change to the numbers a seeded run produces shows
here, not only a change beyond some tolerance.  Bit-exact pins hold for
one numpy/BLAS build and thread count; they were recorded with numpy's
bundled OpenBLAS on two threads.  On one thread the wide path's ``F @ F.T``
rounds differently, and the quickstart's subspace_err moves by about 20 ulp.
"""

import pytest

from subspace_bandit import pipeline
from subspace_bandit.envs import make_environment
from subspace_bandit.pipeline import PracticalParams, run_cablp

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
}

# name: (phase1_rounds, FISTA iterations, outer rounds, subspace_err, total regret)
GOLDEN = {
    "quickstart-wide": (30300, 192, 3, "0x1.0f056bcc4f4bdp-2", "0x1.50f231fcf4b4cp+15"),
    "small-tall": (164, 145, 9, "0x1.c4ee10b0a45efp-13", "0x1.b5d28fe3ac756p+10"),
    "known-subspace": (0, None, None, "0x0.0p+0", "0x1.a110000000000p+8"),
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_seeded_run_matches_golden(name, monkeypatch):
    env_args, params = CELLS[name]
    env = make_environment(**env_args)
    if name == "known-subspace":
        params = dict(params, known_subspace=env.A)
    solves = []
    recover = pipeline.recover_subspace

    def capture(*args, **kwargs):
        result = recover(*args, **kwargs)
        solves.append(result.info)
        return result

    monkeypatch.setattr(pipeline, "recover_subspace", capture)
    record = run_cablp(env, PracticalParams(**params))

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
    assert record.phase1_rounds + record.phase2_rounds == params["n"]
