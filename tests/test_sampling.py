"""Sampling-operator tests: set construction, adjointness, measurement
consistency, noise scaling, isometry ratios, and the chunked phase 1."""

import tracemalloc

import numpy as np
import pytest

from subspace_bandit import pipeline, sampling
from subspace_bandit.envs import (
    FAMILIES,
    DomainError,
    make_environment,
    mean_value,
    optimal_value,
    sample_rewards,
)
from subspace_bandit.pipeline import PracticalParams, run_cablp, run_phase1
from subspace_bandit.sampling import (
    SamplingPlan,
    SamplingSets,
    apply_adjoint,
    apply_operator,
    collect_measurements,
    draw_sampling_sets,
    phase1_target,
    rip_ratio,
    rip_ratio_sample,
    second_order_bound,
    second_order_residual,
    shifted_points,
)
from subspace_bandit.util import uniform_sphere

SEED = 42


class TestConstruction:
    """Shapes, exact norms, and determinism of the sampling sets."""

    def test_shapes_and_norms(self):
        plan = SamplingPlan(m_X=7, m_Phi=30, epsilon=0.05)
        sets = draw_sampling_sets(plan, d=9, rng=SEED)
        assert sets.points.shape == (7, 9)
        assert sets.directions.shape == (30, 7, 9)
        np.testing.assert_allclose(np.linalg.norm(sets.points, axis=1), 1.0, atol=1e-12)
        # direction entries are exactly +/- 1/sqrt(m_Phi)
        expected = 1.0 / np.sqrt(30)
        assert np.all(np.isin(sets.directions, (expected, -expected)))
        np.testing.assert_allclose(
            np.linalg.norm(sets.directions, axis=2) ** 2, 9 / 30, rtol=1e-12
        )

    def test_sphere_mean_concentrates(self):
        plan = SamplingPlan(m_X=10_000, m_Phi=1, epsilon=0.05)
        sets = draw_sampling_sets(plan, d=5, rng=SEED)
        assert np.linalg.norm(sets.points.mean(axis=0)) < 0.05

    def test_deterministic_from_seed(self):
        plan = SamplingPlan(m_X=4, m_Phi=6, epsilon=0.1)
        s1 = draw_sampling_sets(plan, d=5, rng=123)
        s2 = draw_sampling_sets(plan, d=5, rng=123)
        np.testing.assert_array_equal(s1.points, s2.points)
        np.testing.assert_array_equal(s1.directions, s2.directions)

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError, match="m_X"):
            SamplingPlan(m_X=0, m_Phi=5, epsilon=0.1)
        with pytest.raises(ValueError, match="epsilon"):
            SamplingPlan(m_X=2, m_Phi=5, epsilon=0.0)
        with pytest.raises(ValueError, match="N"):
            SamplingPlan(m_X=2, m_Phi=5, epsilon=0.1, N=0)


class TestOperator:
    """Adjoint identity and isometry ratios."""

    def test_adjoint_identity(self):
        plan = SamplingPlan(m_X=15, m_Phi=60, epsilon=0.05)
        sets = draw_sampling_sets(plan, d=10, rng=SEED)
        rng = np.random.default_rng(SEED + 1)
        for _ in range(20):
            X = rng.standard_normal((10, 15))
            X /= np.linalg.norm(X)
            v = rng.standard_normal(60)
            v /= np.linalg.norm(v)
            lhs = float(apply_operator(sets, X) @ v)
            rhs = float(np.sum(X * apply_adjoint(sets, v)))
            assert abs(lhs - rhs) <= 1e-10, f"adjoint identity off by {abs(lhs - rhs):.2e}"

    def test_operator_matches_direct_sum(self):
        plan = SamplingPlan(m_X=3, m_Phi=4, epsilon=0.1)
        sets = draw_sampling_sets(plan, d=5, rng=SEED)
        X = np.random.default_rng(0).standard_normal((5, 3))
        direct = np.array([
            sum(sets.directions[i, j] @ X[:, j] for j in range(3)) for i in range(4)
        ])
        np.testing.assert_allclose(apply_operator(sets, X), direct, rtol=1e-12)

    def test_rip_ratio_sample_well_sized(self):
        plan = SamplingPlan(m_X=20, m_Phi=400, epsilon=0.05)
        sets = draw_sampling_sets(plan, d=10, rng=SEED)
        lo, hi = rip_ratio_sample(sets, k=1, trials=200, rng=SEED + 2)
        assert 0.5 <= lo <= hi <= 1.5, f"isometry ratios out of range: [{lo:.3f}, {hi:.3f}]"

    def test_rip_ratio_sample_undersized(self):
        plan = SamplingPlan(m_X=20, m_Phi=2, epsilon=0.05)
        sets = draw_sampling_sets(plan, d=10, rng=SEED)
        lo, _ = rip_ratio_sample(sets, k=1, trials=200, rng=SEED + 3)
        assert lo < 0.5, f"expected a collapsed ratio with 2 measurements, got min {lo:.3f}"

    def test_rip_ratio_scale_invariant(self):
        plan = SamplingPlan(m_X=6, m_Phi=40, epsilon=0.05)
        sets = draw_sampling_sets(plan, d=8, rng=SEED)
        X = np.random.default_rng(1).standard_normal((8, 6))
        r1 = rip_ratio(sets, X)
        r2 = rip_ratio(sets, 37.5 * X)
        assert r1 == pytest.approx(r2, rel=1e-12)


class TestCollection:
    """Measurement collection: budget, ordering, and noise-free consistency."""

    def make_env(self, family, k=1, sigma=0.0, seed=SEED, d=8, **params):
        return make_environment(d=d, k=k, family=family, sigma=sigma, nu=0.1, seed=seed,
                                params=params or None)

    def test_budget_exact(self):
        env = self.make_env("norm-squared", sigma=0.1)
        plan = SamplingPlan(m_X=6, m_Phi=10, epsilon=0.05, N=3)
        sets = draw_sampling_sets(plan, env.d, rng=SEED)
        bundle = collect_measurements(env, sets, plan)
        assert bundle.budget_used == 3 * 6 * 11
        assert env.query_count == bundle.budget_used

    def test_shifted_layout(self):
        plan = SamplingPlan(m_X=3, m_Phi=2, epsilon=0.2)
        sets = draw_sampling_sets(plan, d=4, rng=SEED)
        pts = shifted_points(sets, 0.2)
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(
                    pts[i * 3 + j], sets.points[j] + 0.2 * sets.directions[i, j], rtol=1e-15
                )

    def test_zero_noise_linear_measurements_exact(self):
        """For a linear mean reward the finite difference is exact, so
        y = Phi(X) with X the gradient matrix."""
        env = self.make_env("linear", sigma=0.0)
        plan = SamplingPlan(m_X=10, m_Phi=50, epsilon=0.05)
        sets = draw_sampling_sets(plan, env.d, rng=SEED + 4)
        bundle = collect_measurements(env, sets, plan)
        X = phase1_target(env, sets)
        np.testing.assert_allclose(bundle.y, apply_operator(sets, X), atol=1e-10)

    @pytest.mark.parametrize("family", ["norm-squared", "centered-quadratic"])
    def test_zero_noise_quadratic_curvature_term(self, family):
        """For quadratic means the deviation y - Phi(X) is exactly the
        closed-form second-order term, and respects the stated bound."""
        env = self.make_env(family, k=2, sigma=0.0)
        plan = SamplingPlan(m_X=8, m_Phi=40, epsilon=0.08)
        sets = draw_sampling_sets(plan, env.d, rng=SEED + 5)
        bundle = collect_measurements(env, sets, plan)
        X = phase1_target(env, sets)
        resid = bundle.y - apply_operator(sets, X)
        closed = second_order_residual(env, sets, plan.epsilon)
        np.testing.assert_allclose(resid, closed, atol=1e-8)
        bound = second_order_bound(plan, env.d, env.mean.c2, env.k)
        assert np.max(np.abs(resid)) <= bound + 1e-12

    def test_zero_noise_collection_deterministic(self):
        env1 = self.make_env("norm-squared")
        env2 = self.make_env("norm-squared")
        plan = SamplingPlan(m_X=5, m_Phi=8, epsilon=0.05, N=2)
        sets = draw_sampling_sets(plan, env1.d, rng=SEED)
        b1 = collect_measurements(env1, sets, plan)
        b2 = collect_measurements(env2, sets, plan)
        np.testing.assert_array_equal(b1.y, b2.y)

    def test_resampling_halves_noise_spread(self):
        """Std of y entries under N=4 is half the N=1 std (within 20%)."""
        sigma = 0.2
        env = self.make_env("linear", sigma=sigma, d=6)
        plan1 = SamplingPlan(m_X=5, m_Phi=20, epsilon=0.1, N=1)
        plan4 = SamplingPlan(m_X=5, m_Phi=20, epsilon=0.1, N=4)
        sets = draw_sampling_sets(plan1, env.d, rng=SEED)
        signal = apply_operator(sets, phase1_target(env, sets))
        reps = 200
        dev1 = np.concatenate([collect_measurements(env, sets, plan1).y - signal for _ in range(reps)])
        dev4 = np.concatenate([collect_measurements(env, sets, plan4).y - signal for _ in range(reps)])
        s1, s4 = np.std(dev1), np.std(dev4)
        assert abs(s4 - s1 / 2) < 0.2 * (s1 / 2), f"std ratio {s1 / s4:.3f}, expected about 2"

    def test_domain_error_before_any_query(self):
        env = self.make_env("norm-squared")
        plan = SamplingPlan(m_X=4, m_Phi=5, epsilon=5.0)  # reach far beyond nu
        sets = draw_sampling_sets(plan, env.d, rng=SEED)
        with pytest.raises(DomainError, match="step size infeasible"):
            collect_measurements(env, sets, plan)
        assert env.query_count == 0

    def test_mismatched_dimension_rejected(self):
        env = self.make_env("norm-squared")
        plan = SamplingPlan(m_X=4, m_Phi=5, epsilon=0.05)
        sets = draw_sampling_sets(plan, d=env.d + 1, rng=SEED)
        with pytest.raises(ValueError, match="environment has d"):
            collect_measurements(env, sets, plan)
        other = draw_sampling_sets(SamplingPlan(m_X=4, m_Phi=6, epsilon=0.05), env.d, rng=SEED)
        with pytest.raises(ValueError, match="the plan has"):
            collect_measurements(env, other, plan)
        assert env.query_count == 0


# ---------- chunked phase 1 ----------

CHUNK = 4
# below, at, above and at a multiple of the chunk
CHUNK_M_PHI = [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK]


@pytest.fixture
def small_chunk(monkeypatch):
    monkeypatch.setattr(sampling, "SKETCH_CHUNK", CHUNK)


def _reference_draw(plan, d, seed):
    """The one-shot draw: every direction as one float array."""
    rng = np.random.default_rng(seed)
    points = uniform_sphere(rng, plan.m_X, d)
    bits = rng.integers(0, 2, (plan.m_Phi, plan.m_X, d))
    return points, (bits * 2.0 - 1.0) / np.sqrt(plan.m_Phi), rng


def _reference_collection(env, sets, plan):
    """Every shifted point at once, queried in one sample_rewards call."""
    shifted = (sets.points[None, :, :] + plan.epsilon * sets.directions).reshape(-1, env.d)
    base = sample_rewards(env, sets.points, repeats=plan.N)
    flat = sample_rewards(env, shifted, repeats=plan.N).reshape(plan.m_Phi, plan.m_X)
    y = (flat - base[None, :]).sum(axis=1) / plan.epsilon
    return y, shifted


def _integer_gram(sets):
    flat_signs = sets.signs.transpose(0, 2, 1).reshape(sets.m_Phi, -1).astype(np.int64)
    return (flat_signs.T @ flat_signs) / sets.m_Phi


@pytest.mark.usefixtures("small_chunk")
class TestChunkedPhaseOne:
    """Chunked draw and collection against one-shot references kept here."""

    # m_X * d = 15 is odd, so chunks do not split the draw on word boundaries
    M_X, D = 3, 5

    @pytest.mark.parametrize("m_phi", CHUNK_M_PHI)
    def test_draw_matches_one_shot(self, m_phi):
        plan = SamplingPlan(m_X=self.M_X, m_Phi=m_phi, epsilon=0.1)
        sets = draw_sampling_sets(plan, self.D, np.random.default_rng(SEED))
        points, directions, rng = _reference_draw(plan, self.D, SEED)
        assert sets.signs.dtype == np.int8
        np.testing.assert_array_equal(sets.points, points)
        assert np.array_equal(sets.directions, directions)
        assert not sets.directions.flags.writeable
        assert np.array_equal(sets.flat_operator(), directions.transpose(0, 2, 1).reshape(m_phi, -1))

    @pytest.mark.parametrize("m_phi", CHUNK_M_PHI)
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    @pytest.mark.parametrize("big_n", [1, 3])
    def test_collection_matches_unchunked_reference(self, m_phi, family, sigma, big_n):
        plan = SamplingPlan(m_X=self.M_X, m_Phi=m_phi, epsilon=0.1, N=big_n)

        def env():
            return make_environment(d=self.D, k=2, family=family, sigma=sigma, nu=0.5, seed=SEED)

        env_chunked, env_ref = env(), env()
        sets = draw_sampling_sets(plan, self.D, rng=SEED)
        bundle = collect_measurements(env_chunked, sets, plan)
        y, shifted = _reference_collection(env_ref, sets, plan)
        assert np.array_equal(bundle.y, y)
        assert env_chunked.query_count == env_ref.query_count == plan.budget()
        assert env_chunked.rng.standard_normal() == env_ref.rng.standard_normal()

        # the phase-1 trace from the collection's means equals recomputing them
        opt, _ = optimal_value(env_ref)
        means = np.concatenate(
            [mean_value(env_ref.mean, sets.points @ env_ref.A.T),
             mean_value(env_ref.mean, shifted @ env_ref.A.T)]
        )
        assert np.array_equal(pipeline._phase1_trace(bundle, opt), np.repeat(opt - means, big_n))

    def test_point_outside_ball_in_last_chunk_queries_nothing(self):
        """Pass 1 checks every chunk before pass 2 queries the first one."""
        m_phi, nu, eps = 3 * CHUNK - 1, 0.5, 0.5
        env = make_environment(d=self.D, k=2, family="norm-squared", sigma=0.2, nu=nu, seed=SEED)
        plan = SamplingPlan(m_X=self.M_X, m_Phi=m_phi, epsilon=eps)
        drawn = draw_sampling_sets(plan, self.D, rng=SEED)
        points, signs = drawn.points.copy(), drawn.signs.copy()
        # base point 0 sits at 1.35 e_1 inside the ball; stepping back along
        # e_1 keeps it inside, stepping forward (only the last direction) leaves
        points[0] = 0.0
        points[0, 0] = 1.35
        signs[:, 0, 0] = -1
        signs[-1, 0, 0] = 1
        sets = SamplingSets(points=points, signs=signs)
        norms = np.linalg.norm(shifted_points(sets, eps), axis=1)
        outside = np.flatnonzero(norms > 1.0 + nu)
        assert list(outside) == [(m_phi - 1) * self.M_X]
        state = env.rng.bit_generator.state
        with pytest.raises(DomainError, match="shifted point outside the action ball"):
            collect_measurements(env, sets, plan)
        assert env.query_count == 0
        assert env.rng.bit_generator.state == state


class TestGram:
    """The tall solve's exact Gram matrix and phase 1's memory."""

    @pytest.mark.parametrize("m_phi", [41, 300])
    def test_gram_is_the_exact_integer_gram(self, m_phi, monkeypatch):
        plan = SamplingPlan(m_X=4, m_Phi=m_phi, epsilon=0.1)
        grams = []
        for chunk in (7, 256):
            monkeypatch.setattr(sampling, "SKETCH_CHUNK", chunk)
            sets = draw_sampling_sets(plan, 9, rng=SEED)
            grams.append(sets.gram())
            assert np.array_equal(grams[-1], _integer_gram(sets))
        assert np.array_equal(grams[0], grams[1])

    def test_float64_sums_beyond_the_float32_limit(self, monkeypatch):
        monkeypatch.setattr(sampling, "EXACT_FLOAT32_TERMS", 16)
        sets = draw_sampling_sets(SamplingPlan(m_X=3, m_Phi=40, epsilon=0.1), 5, rng=SEED)
        assert np.array_equal(sets.gram(), _integer_gram(sets))

    def test_tall_run_never_builds_float_directions(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("float directions built")

        monkeypatch.setattr(SamplingSets, "directions", property(forbidden))
        monkeypatch.setattr(SamplingSets, "flat_operator", forbidden)
        env = make_environment(d=10, k=2, family="centered-quadratic", nu=0.1, seed=SEED)
        params = PracticalParams(n=6000, m_X=6, m_Phi=300, epsilon=0.1, lambda_override=0.02)
        record = run_cablp(env, params)
        assert record.recovery_diagnostics["feasible"]
        assert env.query_count == params.n

    def test_phase1_memory_stays_below_a_third_of_the_directions(self):
        """Draw, collection and tall solve never hold the float directions."""
        d, m_x, m_phi = 50, 2, 15_000
        direction_bytes = m_phi * m_x * d * 8  # 12 MB as float64
        env = make_environment(d=d, k=2, family="centered-quadratic", nu=0.1, seed=SEED)
        params = PracticalParams(n=1, m_X=m_x, m_Phi=m_phi, epsilon=0.1, lambda_override=0.02)
        tracemalloc.start()
        try:
            phase1 = run_phase1(env, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert phase1.recovery.info.feasible
        assert m_phi > d * m_x  # the tall (Gram) path
        assert peak < direction_bytes / 3, f"peak {peak / 1e6:.1f} MB"
