"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.  Criteria
that execute full pipeline runs register their records in RECORDS so the
final decomposition check covers every run performed here.
"""

import functools
import math
import time

import numpy as np
import pytest

from subspace_bandit.envs import make_environment, estimate_conditioning
from subspace_bandit.harness import fit_regret_exponent
from subspace_bandit.pipeline import (
    PracticalParams,
    StepSizeError,
    TheoryConstants,
    plan_parameters,
    run_cablp,
)
from subspace_bandit.recovery import (
    DantzigProblem,
    compute_lambda,
    recover_subspace,
    solve_dantzig,
    truncate_rank_k,
)
from subspace_bandit.sampling import (
    SamplingPlan,
    apply_adjoint,
    collect_measurements,
    draw_sampling_sets,
)
from sketch_oracles import apply_operator

RECORDS = []  # every full-pipeline run registered for criterion 10


def criterion(num, blurb):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} FAIL: {blurb}")
                raise
            print(f"\nACCEPTANCE {num} PASS: {blurb}")

        return wrapper

    return deco


@criterion(1, "planning formulas match an independent evaluator at 1e-12")
def test_criterion_1_formula_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202408)
    evaluated = 0
    for trial in range(50):
        n = int(rng.integers(10**3, 10**8))
        d = int(rng.integers(2, 31))
        k = int(rng.integers(1, min(4, d) + 1))
        sigma = 0.0 if trial % 3 == 0 else float(rng.uniform(0.01, 1.0))
        c2 = float(rng.uniform(0.5, 3.0))
        alpha = float(rng.uniform(0.1, 1.0))
        nu = float(rng.uniform(0.05, 0.5))
        constants = TheoryConstants(
            delta=float(rng.uniform(0.05, 0.4)),
            rho=float(rng.uniform(0.2, 0.8)),
            p=float(rng.uniform(0.05, 0.3)),
            c1=float(rng.uniform(1.01, 2.0)),
            gamma=float(rng.uniform(3.2, 4.0)),
        )
        try:
            params = plan_parameters(n, d, k, sigma, c2, alpha, nu, constants)
        except StepSizeError:
            continue
        evaluated += 1

        # every formula below is re-stated from scratch
        f = (math.log(n) / n) ** (1.0 / (k + 2)) / math.sqrt(k)
        q = constants.delta**2 / 144 - constants.delta**3 / 1296
        u = math.log(36 * math.sqrt(2) / constants.delta)
        m_x = math.ceil(2 * k * c2 * c2 * math.log(k / constants.p) / (alpha * constants.rho**2))
        m_phi = math.ceil(4 * k * (d + m_x + 1) * u * constants.c1 / q)
        m = max(d, m_x)
        a1 = c2 * d * k * k
        b1 = math.sqrt((1 - constants.rho) * alpha) / (
            math.sqrt(constants.C0) * math.sqrt(1 + constants.delta) * (math.sqrt(k) + math.sqrt(2))
        )
        if sigma == 0.0:
            big_n = 1
        else:
            prop = constants.C_prime * k**6 * d**2 * sigma**2 * m_x * m / (f**4 * alpha**2)
            gate = (32 * constants.gamma * sigma * a1 * math.sqrt(m_x * m) / (f**2 * b1**2)) ** 2
            big_n = math.floor(max(prop, gate)) + 1

        assert params.f == pytest.approx(f, rel=1e-12)
        assert params.q_delta == pytest.approx(q, rel=1e-12)
        assert params.u_delta == pytest.approx(u, rel=1e-12)
        assert params.m_X == m_x
        assert params.m_Phi == m_phi
        assert abs(params.N - big_n) <= max(1, math.ceil(1e-12 * big_n))

        # interval endpoints, from the implemented N so the double-root
        # regularization is exercised identically
        sig_eff = sigma / math.sqrt(params.N)
        a_coef = a1 * math.sqrt(m_x / m_phi)
        c_coef = 8.0 * constants.gamma * sig_eff * math.sqrt(m_phi * m)
        b_coef = f * b1
        disc = b_coef * b_coef - 4.0 * a_coef * c_coef
        if abs(disc) <= 64.0 * np.finfo(float).eps * b_coef * b_coef:
            disc = 0.0
        assert disc >= 0
        if disc == 0.0:
            lo = hi = b_coef / (2.0 * a_coef)
        else:
            hi = (b_coef + math.sqrt(disc)) / (2.0 * a_coef)
            lo = 2.0 * c_coef / (b_coef + math.sqrt(disc))
        assert params.epsilon_hi == pytest.approx(hi, rel=1e-12)
        assert params.epsilon_lo == pytest.approx(lo, rel=1e-12, abs=1e-300)

        assert params.lam == pytest.approx(
            math.sqrt(1 + constants.delta)
            * (
                c2 * params.epsilon * d * m_x * k * k / (2 * math.sqrt(m_phi))
                + 4 * constants.gamma * sig_eff * math.sqrt(m_x * m_phi * m) / params.epsilon
            ),
            rel=1e-12,
        )
    assert evaluated >= 40, f"only {evaluated} of 50 tuples were evaluable"
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "the solver's adjoint matches the measurement map at 1e-10, wide and tall")
def test_criterion_2_adjoint_identity():
    """<Phi(X), v> = <X, Phi*(v)>, with Phi(X)_i = sum_j phi_ij^T X[:, j] as
    an einsum over the probe directions and Phi* as apply_adjoint, the
    solver's adjoint: flat-operator products on a wide sketch, sign chunks
    on a tall one."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    for d, m_x, m_phi, tall in ((20, 30, 200, False), (8, 6, 600, True)):
        sets = draw_sampling_sets(SamplingPlan(m_X=m_x, m_Phi=m_phi, epsilon=0.05), d, rng)
        assert sets.tall == tall
        directions = sets.directions
        for _ in range(50):
            X = rng.standard_normal((d, m_x))
            v = rng.standard_normal(m_phi)
            lhs = float(np.einsum("ijk,kj->i", directions, X) @ v)
            rhs = float(np.sum(X * apply_adjoint(sets, v)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    assert time.perf_counter() - t0 < 1.0


@criterion(3, "noiseless linear recovery exact on >= 9/10 seeds")
def test_criterion_3_noiseless_recovery():
    t0 = time.perf_counter()
    good = 0
    errs = []
    for seed in range(1, 11):
        env = make_environment(
            d=10, k=1, family="linear", sigma=0.0, nu=0.05, seed=7_000 + seed
        )
        plan = SamplingPlan(m_X=20, m_Phi=300, epsilon=0.05)
        sets = draw_sampling_sets(plan, 10, np.random.default_rng(800 + seed))
        bundle = collect_measurements(env, sets, plan)
        lam = 1e-5 * np.linalg.norm(apply_adjoint(sets, bundle.y), 2)
        res = recover_subspace(
            DantzigProblem(y=bundle.y, sets=sets, lam=lam, k=1), true_basis=env.A
        )
        errs.append(res.subspace_err)
        good += res.subspace_err <= 1e-2
    assert good >= 9, f"only {good}/10 seeds under 1e-2: {errs}"
    assert time.perf_counter() - t0 < 30.0


@criterion(4, "recovery error grows with effective noise (slack 0.02)")
def test_criterion_4_noisy_degradation():
    t0 = time.perf_counter()
    means = []
    for sig in (0.0, 0.01, 0.05):
        errs = []
        for seed in range(1, 11):
            env = make_environment(
                d=10, k=1, family="centered-quadratic", sigma=sig, nu=0.1,
                seed=3_000 + seed,
            )
            plan = SamplingPlan(m_X=30, m_Phi=150, epsilon=0.2)
            sets = draw_sampling_sets(plan, 10, np.random.default_rng(500 + seed))
            bundle = collect_measurements(env, sets, plan)
            lam = 2e-3 * compute_lambda(
                env.mean.c2, 0.2, 10, 30, 150, 1, sig, 0.25, 3.2528
            )
            res = recover_subspace(
                DantzigProblem(y=bundle.y, sets=sets, lam=lam, k=1), true_basis=env.A
            )
            errs.append(res.subspace_err)
        means.append(float(np.mean(errs)))
    assert means[1] >= means[0] - 0.02, f"means {means}"
    assert means[2] >= means[1] - 0.02, f"means {means}"
    assert time.perf_counter() - t0 < 120.0


@criterion(5, "measured subspace-offset regret under its bound in 20/20 runs")
def test_criterion_5_offset_bound():
    t0 = time.perf_counter()
    checked = 0
    for err_target in (0.05, 0.1, 0.2):
        for trial in range(7 if err_target != 0.2 else 6):
            env = make_environment(
                d=8, k=1, family="norm-squared", sigma=0.0, nu=0.05,
                seed=88_000 + 100 * trial + int(1000 * err_target),
            )
            theta = math.asin(err_target / math.sqrt(2.0))
            rng = np.random.default_rng(4_400 + trial)
            v = rng.standard_normal(8)
            v -= env.A.T @ (env.A @ v)
            v /= np.linalg.norm(v)
            tilted = (math.cos(theta) * env.A[0] + math.sin(theta) * v)[None, :]
            record = run_cablp(
                env,
                PracticalParams(
                    n=1500, m_X=1, m_Phi=1, epsilon=0.01, known_subspace=tilted
                ),
            )
            RECORDS.append(record)
            assert record.subspace_err == pytest.approx(err_target, rel=1e-9)
            assert record.R3 > 0
            assert record.R3 <= record.r3_bound_value, (
                f"err {err_target} trial {trial}: R3 {record.R3:.3f} "
                f"exceeds bound {record.r3_bound_value:.3f}"
            )
            checked += 1
    assert checked == 20
    assert time.perf_counter() - t0 < 60.0


@criterion(6, "gradient-moment conditioning matches closed form and 1/d scaling")
def test_criterion_6_conditioning():
    t0 = time.perf_counter()
    alpha_by_d = {}
    for d in (10, 20, 40):
        env = make_environment(
            d=d, k=2, family="norm-squared", sigma=0.0, nu=0.0, seed=60_000 + d
        )
        alpha_by_d[d] = estimate_conditioning(env, 50_000).alpha_hat
    products = [alpha_by_d[d] * d for d in (10, 20, 40)]
    assert max(products) / min(products) <= 1.3, f"alpha*d products {products}"
    assert abs(alpha_by_d[20] - 0.2) <= 0.15 * 0.2, f"alpha_hat(20) {alpha_by_d[20]}"
    assert time.perf_counter() - t0 < 60.0


@criterion(7, "phase-2 regret rate with known subspace in [0.55, 0.85]")
def test_criterion_7_phase2_rate():
    t0 = time.perf_counter()
    points = []
    for n in (10**4, 3 * 10**4, 10**5):
        r2s = []
        for s in range(1, 11):
            env = make_environment(
                d=10, k=1, family="centered-quadratic", sigma=0.05, nu=0.05,
                seed=10_000 + 97 * s + n % 97,
            )
            record = run_cablp(
                env,
                PracticalParams(
                    n=n, m_X=1, m_Phi=1, epsilon=0.01,
                    known_subspace=env.A, ucb_scale=1.0,
                ),
            )
            RECORDS.append(record)
            r2s.append(record.R2)
        points.append((n, float(np.mean(r2s))))
    slope, _, r2fit = fit_regret_exponent(points)
    assert 0.55 <= slope <= 0.85, f"fitted exponent {slope:.4f} (points {points})"
    assert r2fit > 0.99
    assert time.perf_counter() - t0 < 300.0


@criterion(8, "end-to-end total regret sublinear with decaying phase-2 regret")
def test_criterion_8_end_to_end_sublinearity():
    t0 = time.perf_counter()
    points = []
    decile_drop = []
    for n in (5 * 10**4, 10**5, 2 * 10**5):
        totals = []
        first_dec, last_dec = [], []
        for s in range(1, 11):
            env = make_environment(
                d=20, k=2, family="centered-quadratic", sigma=0.1, nu=0.05,
                seed=40_000 + 13 * s + n % 101,
            )
            record = run_cablp(
                env,
                PracticalParams(
                    n=n, m_X=20, m_Phi=120, epsilon=0.12,
                    lambda_override=4.0, ucb_scale=0.75,
                ),
            )
            RECORDS.append(record)
            totals.append(record.total_regret)
            phase2 = record.regret_trace[record.phase1_rounds :]
            dec = len(phase2) // 10
            first_dec.append(float(phase2[:dec].mean()))
            last_dec.append(float(phase2[-dec:].mean()))
        points.append((n, float(np.mean(totals))))
        decile_drop.append((float(np.mean(first_dec)), float(np.mean(last_dec))))
    slope, _, _ = fit_regret_exponent(points)
    assert 0.6 <= slope <= 0.95, f"fitted exponent {slope:.4f} (points {points})"
    assert slope < 1.0
    for first, last in decile_drop:
        assert last < first, f"phase-2 regret did not decay: first {first}, last {last}"
    assert time.perf_counter() - t0 < 900.0


@criterion(9, "solver feasibility on convergence; planted recovery to 1e-3")
def test_criterion_9_solver_quality():
    t0 = time.perf_counter()
    for seed in range(1, 11):
        rng = np.random.default_rng(9_000 + seed)
        plan = SamplingPlan(m_X=20, m_Phi=200, epsilon=0.05)
        sets = draw_sampling_sets(plan, 10, rng)
        direction = rng.standard_normal(10)
        direction /= np.linalg.norm(direction)
        planted = np.outer(direction, rng.standard_normal(20))
        y = apply_operator(sets, planted)
        lam = 1e-6 * np.linalg.norm(apply_adjoint(sets, y), 2)
        est, info = solve_dantzig(DantzigProblem(y=y, sets=sets, lam=lam, k=1))
        resid = np.linalg.norm(apply_adjoint(sets, y - apply_operator(sets, est)), 2)
        if info.converged:
            assert resid <= lam * (1.0 + 1e-6), (
                f"seed {seed}: converged but residual {resid:.6e} > lam {lam:.6e}"
            )
        assert info.converged, f"seed {seed} did not converge"
        rel_err = np.linalg.norm(truncate_rank_k(est, 1) - planted) / np.linalg.norm(planted)
        assert rel_err <= 1e-3, f"seed {seed}: relative error {rel_err:.2e}"
    assert time.perf_counter() - t0 < 120.0


@criterion(10, "regret split sums back to the trace on every recorded run")
def test_criterion_10_decomposition_identity():
    assert len(RECORDS) >= 80, f"expected the suite's runs registered, got {len(RECORDS)}"
    for record in RECORDS:
        total = float(record.regret_trace.sum())
        parts = record.R1 + record.R2 + record.R3
        assert abs(parts - total) <= 1e-8 * max(1.0, abs(total)), (
            f"run n={record.n} seed={record.seed}: parts {parts!r} vs trace {total!r}"
        )
