"""Tests for parameter planning, end-to-end runs, and regret decomposition."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from subspace_bandit.bandit import BudgetError
from subspace_bandit.envs import best_on_subspace, make_environment, optimal_value
from subspace_bandit.pipeline import (
    GAMMA_DEFAULT,
    PracticalParams,
    RunAborted,
    StepSizeError,
    TheoryConstants,
    TheoryParams,
    choose_epsilon,
    decompose_regret,
    exploration_fraction,
    params_to_dict,
    plan_parameters,
    q_of_delta,
    r3_bound,
    record_to_dict,
    run_cablp,
    u_of_delta,
    write_regret_csv,
)

SEED = 550281


# ---------- planning formulas ----------


class TestPlanningFormulas:
    def test_q_at_reference_point(self):
        assert q_of_delta(0.3) == pytest.approx((0.09 - 0.027 / 9) / 144, rel=1e-14)
        assert q_of_delta(0.3) == pytest.approx(6.0417e-4, rel=1e-4)

    def test_u_at_reference_point(self):
        assert u_of_delta(0.3) == pytest.approx(math.log(36 * math.sqrt(2) / 0.3), rel=1e-14)
        assert u_of_delta(0.3) == pytest.approx(5.134, abs=1e-3)

    def test_point_budget_worked_example(self):
        constants = TheoryConstants(rho=0.5, p=0.1)
        params = plan_parameters(
            n=10**9, d=10, k=2, sigma=0.0, c2=1.0, alpha=0.5, nu=0.2, constants=constants
        )
        assert params.m_X == 96

    def test_noiseless_interval_and_midpoint(self):
        params = plan_parameters(
            n=10**7, d=8, k=1, sigma=0.0, c2=1.0, alpha=0.5, nu=0.3
        )
        assert params.N == 1
        assert params.epsilon_lo == 0.0
        hi = params.f * params.b1 * math.sqrt(params.m_Phi / params.m_X) / params.a1
        assert params.epsilon_hi == pytest.approx(hi, rel=1e-12)
        assert params.epsilon == pytest.approx(
            min(0.5 * hi, params.domain_cap), rel=1e-12
        )

    def test_remark_mode_halves_the_exponent(self):
        n, k = 10**6, 2
        standard = exploration_fraction(n, k, "standard")
        remark = exploration_fraction(n, k, "remark")
        ratio = math.log(n) / n
        assert standard == pytest.approx(ratio ** (1 / 4) / math.sqrt(k), rel=1e-12)
        assert remark == pytest.approx(ratio ** (0.5 / 4) / math.sqrt(k), rel=1e-12)
        params = plan_parameters(
            n=n, d=6, k=k, sigma=0.0, c2=1.0, alpha=0.5, nu=0.2,
            constants=TheoryConstants(f_exponent_mode="remark"),
        )
        assert params.f == pytest.approx(remark, rel=1e-12)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="alpha"):
            plan_parameters(n=10**6, d=5, k=1, sigma=0.0, c2=1.0, alpha=0.0, nu=0.1)

    def test_constant_ranges_are_enforced(self):
        with pytest.raises(ValueError):
            TheoryConstants(delta=0.5)
        with pytest.raises(ValueError):
            TheoryConstants(gamma=3.0)
        with pytest.raises(ValueError):
            TheoryConstants(c1=1.0)
        with pytest.raises(ValueError):
            TheoryConstants(f_exponent_mode="bogus")
        # the default gamma sits just above its floor
        assert GAMMA_DEFAULT == pytest.approx(2 * math.sqrt(math.log(12)) + 0.1, rel=1e-12)

    def test_infeasible_plan_is_flagged_with_minimal_estimate(self):
        # sigma=0 keeps n1 independent of n, so the minimal budget is exact
        probe = plan_parameters(n=10**9, d=10, k=1, sigma=0.0, c2=1.0, alpha=0.5, nu=0.1)
        assert probe.feasible
        small = plan_parameters(
            n=probe.n1, d=10, k=1, sigma=0.0, c2=1.0, alpha=0.5, nu=0.1
        )
        assert not small.feasible
        assert small.minimal_feasible_n == probe.n1 + 1
        again = plan_parameters(
            n=probe.n1 + 1, d=10, k=1, sigma=0.0, c2=1.0, alpha=0.5, nu=0.1
        )
        assert again.feasible and again.minimal_feasible_n is None

    def test_derived_fields_match_independent_evaluator(self):
        """Re-derive every planning quantity with separately written formulas."""
        rng = np.random.default_rng(SEED)
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
                C0=float(rng.uniform(1.0, 8.0)),
                C_prime=float(rng.uniform(1.0, 3.0)),
            )
            try:
                params = plan_parameters(n, d, k, sigma, c2, alpha, nu, constants)
            except StepSizeError:
                continue

            # independent evaluation, written straight from the formulas
            f = (math.log(n) / n) ** (1.0 / (k + 2)) / math.sqrt(k)
            m_x = math.ceil(2 * k * c2 * c2 * math.log(k / constants.p) / (alpha * constants.rho**2))
            q = constants.delta**2 / 144 - constants.delta**3 / 1296
            u = math.log(36 * math.sqrt(2) / constants.delta)
            m_phi = math.ceil(4 * k * (d + m_x + 1) * u * constants.c1 / q)
            m = max(d, m_x)
            a1 = c2 * d * k * k
            b1 = math.sqrt((1 - constants.rho) * alpha) / (
                math.sqrt(constants.C0 * (1 + constants.delta)) * (math.sqrt(k) + math.sqrt(2))
            )
            if sigma == 0.0:
                big_n = 1
            else:
                prop = constants.C_prime * k**6 * d**2 * sigma**2 * m_x * m / (f**4 * alpha**2)
                gate = (32 * constants.gamma * sigma * a1 * math.sqrt(m_x * m) / (f**2 * b1**2)) ** 2
                big_n = math.floor(max(prop, gate)) + 1
            sig_eff = sigma / math.sqrt(big_n)

            assert params.f == pytest.approx(f, rel=1e-12)
            assert params.m_X == m_x
            assert params.m_Phi == m_phi
            assert params.q_delta == pytest.approx(q, rel=1e-12)
            assert params.u_delta == pytest.approx(u, rel=1e-12)
            assert params.m == m
            assert params.a1 == pytest.approx(a1, rel=1e-12)
            assert params.b1 == pytest.approx(b1, rel=1e-12)
            # floor(x) + 1 can land one integer apart when x is astronomically
            # large and the two evaluations differ in the last float ulp
            assert abs(params.N - big_n) <= max(1, math.ceil(1e-12 * big_n))
            assert params.sigma_eff == pytest.approx(sig_eff, rel=1e-12, abs=0)
            assert params.n1 == params.N * m_x * (m_phi + 1)

            # step-size quadratic: roots of a e^2 - f b1 e + c.  The interval
            # the planner hands back must be usable, and the resampling factor
            # must close the discriminant gate.  Positivity can hide below one
            # float ulp when the gate term is astronomically large, so the
            # gate check runs in exact rational arithmetic (squaring removes
            # the radicals: disc >= 0 iff (f b1)^4 >= 16 a^2 (2 c)^2) with a
            # 1e-9 allowance for the planner's float rounding of the gate.
            assert params.epsilon_hi > 0
            assert 0 <= params.epsilon_lo <= params.epsilon_hi
            if sigma > 0:
                lhs = (Fraction(params.f) * Fraction(params.b1)) ** 4
                rhs = (
                    1024
                    * Fraction(params.a1) ** 2
                    * Fraction(constants.gamma) ** 2
                    * Fraction(sigma) ** 2
                    * m_x
                    * m
                    / params.N
                )
                assert lhs / rhs > 1 - Fraction(1, 10**9), (
                    "resampling must close the step-size gate"
                )

            a_coef = a1 * math.sqrt(m_x / m_phi)
            c_coef = 8 * constants.gamma * sig_eff * math.sqrt(m_phi * m)
            disc = (f * b1) ** 2 - 4 * a_coef * c_coef
            if disc > 1e-6 * (f * b1) ** 2:
                hi = (f * b1 + math.sqrt(disc)) / (2 * a_coef)
                lo = 2 * c_coef / (f * b1 + math.sqrt(disc))
                assert params.epsilon_hi == pytest.approx(hi, rel=1e-10)
                assert params.epsilon_lo == pytest.approx(lo, rel=1e-10, abs=1e-300)
                assert params.epsilon == pytest.approx(
                    min(0.5 * (lo + hi), nu * math.sqrt(m_phi / d)), rel=1e-12
                )
            assert params.lam == pytest.approx(
                math.sqrt(1 + constants.delta)
                * (
                    c2 * params.epsilon * d * m_x * k * k / (2 * math.sqrt(m_phi))
                    + 4 * constants.gamma * sig_eff * math.sqrt(m_x * m_phi * m) / params.epsilon
                ),
                rel=1e-12,
            )

    def test_params_echo_is_json_ready(self):
        params = plan_parameters(n=10**6, d=6, k=1, sigma=0.0, c2=1.0, alpha=0.4, nu=0.2)
        blob = json.loads(json.dumps(params_to_dict(params)))
        assert blob["m_X"] == params.m_X
        assert blob["constants"]["delta"] == 0.25
        assert blob["feasible"] is params.feasible


class TestChooseEpsilon:
    def test_midpoint(self):
        assert choose_epsilon((0.1, 0.3), 1.0) == pytest.approx(0.2)

    def test_cap_binds(self):
        assert choose_epsilon((0.1, 0.3), 0.15) == pytest.approx(0.15)

    def test_empty_intersection(self):
        with pytest.raises(StepSizeError, match="increase nu or m_Phi"):
            choose_epsilon((0.2, 0.3), 0.1)

    def test_cap_equal_to_floor_is_infeasible(self):
        with pytest.raises(StepSizeError):
            choose_epsilon((0.2, 0.3), 0.2)


class TestR3Bound:
    def test_zero_error_gives_zero(self):
        assert r3_bound(1000, 1.0, 4, 0.0, 0.0) == 0.0

    def test_worked_example(self):
        assert r3_bound(1000, 1.0, 4, 0.0, 0.1) == pytest.approx(141.4213562, abs=1e-4)

    def test_linearity_in_n2(self):
        one = r3_bound(500, 1.3, 2, 0.1, 0.07)
        two = r3_bound(1000, 1.3, 2, 0.1, 0.07)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            r3_bound(100, 1.0, 1, -0.1, 0.1)


# ---------- end-to-end runs ----------


def linear_env(seed, sigma=0.0):
    return make_environment(
        d=10, k=1, family="linear", sigma=sigma, nu=0.05, seed=seed
    )


def practical(n=20000, **kw):
    base = dict(n=n, m_X=20, m_Phi=300, epsilon=0.05, N=1)
    base.update(kw)
    return PracticalParams(**base)


class TestRunPractical:
    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0])
    def test_ucb_scale_checked_when_params_are_built(self, scale):
        with pytest.raises(ValueError, match="ucb_scale must be finite"):
            practical(ucb_scale=scale)

    def test_noiseless_linear_run_end_to_end(self):
        """Regression values for the flagship noiseless run: near-exact
        subspace, and late-run per-round regret within 5% of the reward range."""
        env = linear_env(SEED)
        params = practical(lambda_scale=1e-4, ucb_scale=1.0)
        record = run_cablp(env, params)
        assert record.phase1_rounds == 20 * 301
        assert record.phase2_rounds == 20000 - 6020
        assert env.query_count == 20000
        assert record.subspace_err <= 1e-2, f"subspace err {record.subspace_err:.2e}"
        tail = record.regret_trace[-record.n // 10 :]
        # linear mean reward is symmetric, so its range is twice the optimum
        reward_range = 2 * record.x_star_value
        assert tail.mean() <= 0.05 * reward_range, (
            f"late per-round regret {tail.mean():.4f} vs range {reward_range:.3f}"
        )

    def test_decomposition_identity(self):
        env = linear_env(SEED + 1, sigma=0.05)
        record = run_cablp(env, practical(n=9000, lambda_scale=1e-3, ucb_scale=1.0))
        assert record.R1 + record.R2 + record.R3 == pytest.approx(
            record.total_regret, abs=1e-8
        )
        r1, r2, r3 = decompose_regret(record)
        assert (r1, r2, r3) == (record.R1, record.R2, record.R3)
        # the stored optima are exactly what fresh oracle calls return
        assert optimal_value(env)[0] == record.x_star_value
        assert best_on_subspace(env, record.basis)[0] == record.x_star_star_value

    def test_r1_covers_exactly_the_measurement_rounds(self):
        env = make_environment(
            d=6, k=1, family="norm-squared", sigma=0.1, nu=0.1, seed=SEED + 2
        )
        params = PracticalParams(
            n=600, m_X=5, m_Phi=20, epsilon=0.05, N=3, lambda_override=2.0
        )
        record = run_cablp(env, params)
        assert record.phase1_rounds == 3 * 5 * 21 == 315
        assert record.phase2_rounds == 285
        assert record.regret_trace.shape == (600,)
        assert record.R1 == pytest.approx(record.regret_trace[:315].sum())
        assert env.query_count == 600

    def test_budget_infeasible_spends_nothing(self):
        env = linear_env(SEED + 3)
        with pytest.raises(BudgetError, match="budget infeasible"):
            run_cablp(env, practical(n=100))
        assert env.query_count == 0

    def test_environment_must_be_fresh(self):
        env = linear_env(SEED + 4)
        run_cablp(env, practical(n=7000, lambda_scale=1e-3))
        with pytest.raises(ValueError, match="not fresh"):
            run_cablp(env, practical(n=7000, lambda_scale=1e-3))

    def test_known_subspace_skips_phase_one(self):
        env = linear_env(SEED + 6)
        record = run_cablp(env, practical(n=4000, known_subspace=env.A))
        assert record.skipped_phase1
        assert record.phase1_rounds == 0
        assert record.R1 == 0.0
        assert record.subspace_err <= 1e-12
        # perfect recovery: no offset beyond float rounding
        assert abs(record.R3) <= record.phase2_rounds * 1e-12
        assert env.query_count == 4000

    def test_k4_run_keeps_exact_split(self):
        """A k = 4 run completes; its x** is the norm-squared closed form
        (1 + nu)^2 * sigma_max(A A_hat^T)^2 and its regret split is exact."""
        env = make_environment(
            d=12, k=4, family="norm-squared", sigma=0.001, nu=0.1, seed=SEED + 10
        )
        params = PracticalParams(
            n=6000, m_X=12, m_Phi=200, epsilon=0.1, lambda_override=0.08, ucb_scale=0.75
        )
        record = run_cablp(env, params)
        assert env.query_count == 6000
        total = record.total_regret
        assert abs(record.R1 + record.R2 + record.R3 - total) <= 1e-8 * max(1.0, abs(total))
        assert record.x_star_value == env.mean.closed_form_opt[0]
        top = np.linalg.svd(env.A @ record.basis.T, compute_uv=False)[0]
        assert record.x_star_star_value == pytest.approx(1.21 * top**2, abs=1e-12)
        assert 0.0 < record.R3 <= record.r3_bound_value

    def test_rank_collapse_aborts_with_partial_record(self):
        env = make_environment(
            d=8, k=1, family="linear", sigma=0.0, nu=0.05, seed=SEED + 7,
            params={"weight": [0.0]},
        )
        params = PracticalParams(
            n=2000, m_X=10, m_Phi=80, epsilon=0.02, lambda_override=0.1
        )
        with pytest.raises(RunAborted, match="degenerate recovery") as excinfo:
            run_cablp(env, params)
        partial = excinfo.value.record
        assert partial.aborted
        assert partial.phase1_rounds == 10 * 81
        assert partial.phase2_rounds == 0
        assert partial.regret_trace.shape == (810,)
        assert "degenerate recovery" in partial.abort_reason
        assert env.query_count == 810

    def test_theory_mode_guard_fires_before_any_query(self):
        env = make_environment(
            d=5, k=1, family="norm-squared", sigma=0.0, nu=0.1, seed=SEED + 8
        )
        params = plan_parameters(n=100, d=5, k=1, sigma=0.0, c2=env.mean.c2, alpha=0.5, nu=0.1)
        assert isinstance(params, TheoryParams) and not params.feasible
        with pytest.raises(BudgetError, match="budget infeasible"):
            run_cablp(env, params)
        assert env.query_count == 0

    def test_record_serializes_and_csv_writes(self):
        import io

        env = linear_env(SEED + 9)
        record = run_cablp(env, practical(n=7000, lambda_scale=1e-3, ucb_scale=1.0))
        blob = json.loads(json.dumps(record_to_dict(record)))
        assert blob["n"] == 7000
        assert len(blob["regret_trace"]) == 7000
        assert blob["params"]["m_X"] == 20
        slim = record_to_dict(record, include_trace=False)
        assert "regret_trace" not in slim

        buf = io.StringIO()
        write_regret_csv(record, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "round,phase,instantaneous_regret"
        assert len(lines) == 7001
        assert lines[1].startswith("1,1,")
        assert lines[6021].startswith("6021,2,")


class TestSubspaceOffsetBound:
    def test_measured_r3_under_bound_across_corruption_levels(self):
        """Inject bases at known error and verify the offset bound every time."""
        checked = 0
        for err_target in (0.05, 0.1, 0.2):
            for trial in range(7 if err_target != 0.2 else 6):
                env = make_environment(
                    d=8, k=1, family="norm-squared", sigma=0.0, nu=0.05,
                    seed=SEED + 100 * trial + int(1000 * err_target),
                )
                theta = math.asin(err_target / math.sqrt(2.0))
                rng = np.random.default_rng(SEED + trial)
                v = rng.standard_normal(8)
                v -= env.A.T @ (env.A @ v)
                v /= np.linalg.norm(v)
                tilted = math.cos(theta) * env.A[0] + math.sin(theta) * v
                record = run_cablp(
                    env, practical(n=1500, known_subspace=tilted[None, :])
                )
                assert record.subspace_err == pytest.approx(err_target, rel=1e-9)
                assert record.R3 > 0
                assert record.R3 <= record.r3_bound_value, (
                    f"err {err_target}, trial {trial}: "
                    f"R3 {record.R3:.3f} > bound {record.r3_bound_value:.3f}"
                )
                checked += 1
        assert checked == 20
