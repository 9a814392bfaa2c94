"""Sampling-operator tests: set construction, adjointness, measurement
consistency, noise scaling, isometry ratios, and the chunked phase 1."""

import ctypes
import platform
import tracemalloc

import numpy as np
import pytest

from subspace_bandit import _kernels, envs, pipeline, sampling
from subspace_bandit.envs import (
    FAMILIES,
    DomainError,
    make_environment,
    mean_value,
    optimal_value,
)
from subspace_bandit.pipeline import PracticalParams, run_cablp, run_phase1
from subspace_bandit.sampling import (
    SamplingPlan,
    SamplingSets,
    apply_adjoint,
    collect_measurements,
    draw_sampling_sets,
)
from subspace_bandit.util import uniform_sphere
from sketch_oracles import (
    apply_operator,
    phase1_target,
    rip_ratio_sample,
    second_order_bound,
    second_order_residual,
    sets_with_signs,
    shifted_points,
    signs_of,
)

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

    def test_base_point_off_the_sphere_refused_before_any_query(self):
        """No shifted point lies further out than max_j ||x_j|| + reach, and
        that bound is what is checked: 1.05 + 0.08 leaves the ball of radius
        1.1, 1.01 + 0.08 stays inside it."""
        plan = SamplingPlan(m_X=4, m_Phi=50, epsilon=0.2)  # reach 0.2 * sqrt(8 / 50)
        drawn = draw_sampling_sets(plan, 8, rng=SEED)
        for scale, refused in [(1.05, True), (1.01, False)]:
            env = self.make_env("norm-squared", sigma=0.1)
            points = drawn.points.copy()
            points[2] *= scale
            sets = SamplingSets(points=points, bits=drawn.bits, m_Phi=drawn.m_Phi)
            if refused:
                state = env.rng.bit_generator.state
                with pytest.raises(DomainError, match="shifted point outside the action ball"):
                    collect_measurements(env, sets, plan)
                assert env.query_count == 0
                assert env.rng.bit_generator.state == state
            else:
                collect_measurements(env, sets, plan)
                assert env.query_count == plan.budget()

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
    """The points, then every sign as 2 * bit - 1 from one draw of bytes,
    and the generator where that draw leaves it."""
    rng = np.random.default_rng(seed)
    points = uniform_sphere(rng, plan.m_X, d)
    count = plan.m_Phi * plan.m_X * d
    packed = rng.integers(0, 256, (count + 7) // 8, dtype=np.uint8)
    bits = np.unpackbits(packed)[:count].astype(np.int64)
    return points, (2 * bits - 1).reshape(plan.m_Phi, plan.m_X, d), rng


def _reference_collection(env, sets, plan):
    """Every shifted point's projection ``A x_j + (epsilon / sqrt(m_Phi)) A s_ij``
    at once, queried in one call after the base points; returns y and the
    (m_Phi * m_X, k) shifted projections."""
    base = envs._project(env, sets.points)
    steps = envs._project(env, signs_of(sets).astype(float).reshape(-1, env.d))
    shifted = (base + plan.epsilon * sets.scale * steps.reshape(plan.m_Phi, plan.m_X, -1)).reshape(-1, env.k)
    averaged_base = envs._query_projections(env, base, plan.N)[1]
    flat = envs._query_projections(env, shifted, plan.N)[1].reshape(plan.m_Phi, plan.m_X)
    y = (flat - averaged_base).sum(axis=1) / plan.epsilon
    return y, shifted


def _integer_counts(sets):
    """S^T S in int64, with S's columns in G's (d, m_X) order."""
    flat_signs = signs_of(sets).transpose(0, 2, 1).reshape(sets.m_Phi, -1).astype(np.int64)
    return flat_signs.T @ flat_signs


# (m_X, d) of widths 1, 3, 4, 5, 8, 9, 63, 64, 65, 129 and 900
WIDTHS = [(1, 1), (1, 3), (2, 2), (5, 1), (2, 4), (3, 3), (7, 9), (8, 8), (5, 13), (3, 43), (30, 30)]


# (m_Phi, m_X, d): a count of signs that is not a multiple of 8, with and
# without the small chunk, and six of the library's SKETCH_CHUNK directions
# with a part-filled last one
@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("shape", [(7, 3, 5), (5 * 256 + 11, 4, 6)])
def test_signs_are_one_packed_draw(shape, chunked, request):
    """The sets keep one uint8 draw as their bits, the signs are 2 * bits - 1,
    and the generator is left where that draw leaves it."""
    if chunked:
        request.getfixturevalue("small_chunk")
    m_phi, m_x, d = shape
    plan = SamplingPlan(m_X=m_x, m_Phi=m_phi, epsilon=0.1)
    rng = np.random.default_rng(SEED)
    sets = draw_sampling_sets(plan, d, rng)
    points, signs, ref_rng = _reference_draw(plan, d, SEED)
    assert sets.bits.dtype == np.uint8 and sets.bits.shape == ((m_phi * m_x * d + 7) // 8,)
    np.testing.assert_array_equal(sets.points, points)
    np.testing.assert_array_equal(signs_of(sets), signs)
    assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)
    assert rng.random() == ref_rng.random()


# (m_Phi, m_X, d): one part chunk, three chunks of the small one with
# m_X * d = 15 (chunks start mid-byte) or of the library's with a
# part-filled last one, and whole chunks only
@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("shape", [(7, 3, 5), (2 * 256 + 11, 3, 5), (3 * 256, 2, 4)])
def test_float_chunks_are_the_unpacked_signs(shape, chunked, request):
    """Every chunk, the last part-filled one too, is 2b - 1 of numpy's
    unpacked bits, as float64, over consecutive direction ranges."""
    if chunked:
        request.getfixturevalue("small_chunk")
    m_phi, m_x, d = shape
    plan = SamplingPlan(m_X=m_x, m_Phi=m_phi, epsilon=0.1)
    sets = draw_sampling_sets(plan, d, rng=SEED)
    _, signs, _ = _reference_draw(plan, d, SEED)
    ranges = []
    for a, b, chunk in sampling._float_chunks(sets):
        assert chunk.dtype == np.float64 and chunk.shape == (b - a, m_x, d)
        assert np.array_equal(chunk, signs[a:b])
        ranges.append((a, b))
    size = sampling.SKETCH_CHUNK
    assert ranges == [(a, min(a + size, m_phi)) for a in range(0, m_phi, size)]


# (m_Phi, m_X, d): rows mid-byte, one bit per row, and rows of 129 bits
@pytest.mark.parametrize("m_phi, m_x, d", [(7, 3, 5), (64, 1, 1), (130, 3, 43)])
def test_directions_and_flat_operator_are_the_scaled_bits(m_phi, m_x, d):
    """directions (which the benchmark's tracer reads) and flat_operator()
    (the wide solve's F) are (2b - 1) / sqrt(m_Phi) of numpy's unpacked
    bits, in (m_Phi, m_X, d) and (m_Phi, d * m_X) order."""
    sets = draw_sampling_sets(SamplingPlan(m_X=m_x, m_Phi=m_phi, epsilon=0.1), d, rng=SEED)
    bits = np.unpackbits(sets.bits)[: m_phi * m_x * d].astype(np.int64).reshape(m_phi, m_x, d)
    want = (2 * bits - 1) / np.sqrt(m_phi)
    assert np.array_equal(sets.directions, want)
    flat = sets.flat_operator()
    assert flat.flags.c_contiguous
    assert np.array_equal(flat, want.transpose(0, 2, 1).reshape(m_phi, d * m_x))


@pytest.mark.usefixtures("small_chunk")
class TestChunkedPhaseOne:
    """Chunked draw and collection against one-shot references kept here."""

    # m_X * d = 15 is odd, so chunks do not split the draw on word boundaries
    M_X, D = 3, 5

    @pytest.mark.parametrize("m_phi", CHUNK_M_PHI)
    def test_draw_matches_one_shot(self, m_phi):
        plan = SamplingPlan(m_X=self.M_X, m_Phi=m_phi, epsilon=0.1)
        sets = draw_sampling_sets(plan, self.D, np.random.default_rng(SEED))
        points, signs, _ = _reference_draw(plan, self.D, SEED)
        directions = signs / np.sqrt(m_phi)
        assert sets.bits.dtype == np.uint8
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
            [mean_value(env_ref.mean, sets.points @ env_ref.A.T), mean_value(env_ref.mean, shifted)]
        )
        assert np.array_equal(pipeline._phase1_trace(bundle, opt), np.repeat(opt - means, big_n))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_projected_means_match_built_points(self, family):
        """A shifted point is queried through its projection, never built;
        its mean agrees with the mean at the built point to rounding."""
        plan = SamplingPlan(m_X=self.M_X, m_Phi=3 * CHUNK + 1, epsilon=0.3)
        env = make_environment(d=self.D, k=2, family=family, nu=0.5, seed=SEED)
        sets = draw_sampling_sets(plan, self.D, rng=SEED)
        bundle = collect_measurements(env, sets, plan)
        want = mean_value(env.mean, shifted_points(sets, plan.epsilon) @ env.A.T)
        np.testing.assert_allclose(bundle.shifted_means.ravel(), want, rtol=1e-12, atol=0)

    def test_point_outside_ball_in_last_chunk_queries_nothing(self):
        """A point that leaves the ball only in the last chunk is refused
        before the first chunk is queried."""
        m_phi, nu, eps = 3 * CHUNK - 1, 0.5, 0.5
        env = make_environment(d=self.D, k=2, family="norm-squared", sigma=0.2, nu=nu, seed=SEED)
        plan = SamplingPlan(m_X=self.M_X, m_Phi=m_phi, epsilon=eps)
        drawn = draw_sampling_sets(plan, self.D, rng=SEED)
        points, signs = drawn.points.copy(), signs_of(drawn)
        # base point 0 sits at 1.35 e_1 inside the ball; stepping back along
        # e_1 keeps it inside, stepping forward (only the last direction) leaves
        points[0] = 0.0
        points[0, 0] = 1.35
        signs[:, 0, 0] = -1
        signs[-1, 0, 0] = 1
        sets = sets_with_signs(points, signs)
        norms = np.linalg.norm(shifted_points(sets, eps), axis=1)
        outside = np.flatnonzero(norms > 1.0 + nu)
        assert list(outside) == [(m_phi - 1) * self.M_X]
        state = env.rng.bit_generator.state
        with pytest.raises(DomainError, match="shifted point outside the action ball"):
            collect_measurements(env, sets, plan)
        assert env.query_count == 0
        assert env.rng.bit_generator.state == state


# (m_Phi, m_X, d): a tall sketch over several chunks with a part-filled
# last one, and a wide one
@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("shape", [(3 * 256 + 5, 3, 4), (50, 10, 8)])
def test_collection_adjoint_is_apply_adjoint(shape, chunked, request):
    """The Phi^*(y) a collection sums chunk by chunk is apply_adjoint's bit
    for bit, and the adjoint of the float directions to rounding."""
    if chunked:
        request.getfixturevalue("small_chunk")
    m_phi, m_x, d = shape
    plan = SamplingPlan(m_X=m_x, m_Phi=m_phi, epsilon=0.05, N=2)
    env = make_environment(d=d, k=2, family="gaussian-bump", sigma=0.1, nu=0.1, seed=SEED)
    sets = draw_sampling_sets(plan, d, rng=SEED)
    assert sets.tall == (m_phi > d * m_x)
    bundle = collect_measurements(env, sets, plan)
    assert bundle.adjoint_y.shape == (d, m_x)
    assert np.array_equal(bundle.adjoint_y, apply_adjoint(sets, bundle.y))
    want = np.einsum("i,ijk->kj", bundle.y, sets.directions)
    assert np.max(np.abs(bundle.adjoint_y - want)) <= 1e-10


class TestNoiseStream:
    """A noiseless collection draws no reward noise; a noisy one draws the
    same stream as before, one normal per distinct point in query order."""

    PLAN = SamplingPlan(m_X=3, m_Phi=2 * 256 + 7, epsilon=0.1, N=3)

    def collect(self, sigma):
        env = make_environment(d=5, k=2, family="centered-quadratic", sigma=sigma, nu=0.1, seed=SEED)
        sets = draw_sampling_sets(self.PLAN, env.d, rng=SEED)
        state = env.rng.bit_generator.state
        return env, state, collect_measurements(env, sets, self.PLAN)

    def test_noiseless_collection_leaves_the_reward_stream(self):
        env, state, bundle = self.collect(0.0)
        assert env.rng.bit_generator.state == state
        averaged = bundle.shifted_means - bundle.base_means
        assert np.array_equal(bundle.y, averaged.sum(axis=1) / self.PLAN.epsilon)

    def test_noisy_collection_stream_unchanged(self):
        sigma = 0.2
        env, state, bundle = self.collect(sigma)
        replay = np.random.default_rng()
        replay.bit_generator.state = state
        m_x, m_phi = self.PLAN.m_X, self.PLAN.m_Phi
        noise = sigma / np.sqrt(self.PLAN.N) * replay.standard_normal(m_x * (m_phi + 1))
        base = bundle.base_means + noise[:m_x]
        shifted = bundle.shifted_means + noise[m_x:].reshape(m_phi, m_x)
        assert np.array_equal(bundle.y, (shifted - base).sum(axis=1) / self.PLAN.epsilon)
        assert env.rng.bit_generator.state == replay.bit_generator.state


class TestGram:
    """The tall solve's exact integer Gram counts and phase 1's memory."""

    # (m_Phi, m_X, d): one direction, word boundaries of the packed sign
    # bits, many words, and a single column; then widths m_X * d on both
    # sides of the 8-byte group, the 64-column block and the 4-row tile,
    # with 10 words (one 8-word vector and a part one) and 16 (two whole
    # vectors, m_Phi off a multiple of 64)
    @pytest.mark.parametrize(
        "m_phi, m_x, d",
        [(m, 4, 9) for m in (1, 63, 64, 65, 127, 128, 129, 6000)] + [(100, 1, 1)]
        + [(m, *shape) for shape in WIDTHS for m in (640, 1000)],
    )
    def test_gram_is_the_exact_integer_gram(self, m_phi, m_x, d):
        """The int32 counts equal the int64 S^T S.  A width m_X * d that is
        not a multiple of 8 starts rows mid-byte, and one that is not a
        multiple of 64 ends a column block part-filled."""
        sets = draw_sampling_sets(SamplingPlan(m_X=m_x, m_Phi=m_phi, epsilon=0.1), d, rng=SEED)
        counts = sets.gram()
        assert counts.dtype == np.int32 and counts.flags.c_contiguous
        assert np.array_equal(counts, _integer_counts(sets))

    @pytest.mark.parametrize("m_x, d", WIDTHS[::2])
    def test_both_pair_loops_count_exactly(self, m_x, d):
        """gram_counts picks its pair loop by the processor; each loop the
        library holds fills the upper triangle with the exact counts.  On
        x86-64 with glibc the library must hold the AVX-512 loop, which runs
        here where the processor has VPOPCNTDQ."""
        library = _kernels.load()
        loops = ["gram_pairs_scalar"]
        if platform.machine() == "x86_64" and platform.libc_ver()[0] == "glibc":
            assert hasattr(library, "gram_pairs_vpopcntdq")
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                if "avx512_vpopcntdq" in fh.read().split():
                    loops.append("gram_pairs_vpopcntdq")
        m_phi = 700
        sets = draw_sampling_sets(SamplingPlan(m_X=m_x, m_Phi=m_phi, epsilon=0.1), d, rng=SEED)
        width, words = m_x * d, -(-m_phi // 64)
        columns = np.empty((width, words), dtype=np.uint64)
        counts = np.empty((width, width), dtype=np.int32)
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        library.gram_counts(
            ptr(sets.bits.ctypes.data), i64(m_phi), i64(m_x), i64(d), ptr(columns.ctypes.data), ptr(counts.ctypes.data)
        )
        upper = np.triu_indices(width)
        expected = _integer_counts(sets)
        unset = np.iinfo(np.int32).min
        for name in loops:
            got = np.full((width, width), unset, dtype=np.int32)
            getattr(library, name)(ptr(columns.ctypes.data), i64(width), i64(words), i64(m_phi), ptr(got.ctypes.data))
            assert np.array_equal(got[upper], expected[upper]), name
            assert (got[np.tril_indices(width, -1)] == unset).all(), name

    def test_exact_beyond_the_float32_limit(self):
        """Counts past 2**24 (4 MB of bits), where float32 sums of the +/-1
        terms would round: two columns that differ in one sign have inner
        product 2**24 + 1, odd and above float32's exact integers."""
        m_phi = 2**24 + 3
        drawn = draw_sampling_sets(SamplingPlan(m_X=1, m_Phi=m_phi, epsilon=0.1), 2, rng=SEED)
        signs = signs_of(drawn)
        signs[:, 0, 1] = signs[:, 0, 0]
        signs[m_phi // 2, 0, 1] *= -1
        sets = sets_with_signs(drawn.points, signs)
        del signs
        inner = m_phi - 2
        assert np.array_equal(sets.gram(), [[m_phi, inner], [inner, m_phi]])

    def test_counts_beyond_int32_are_refused_before_any_work(self, monkeypatch):
        """2**31 directions could count past int32; the refusal comes before
        the kernels load or the bits are read."""

        def forbidden():
            raise AssertionError("kernels loaded")

        monkeypatch.setattr(_kernels, "load", forbidden)
        bits = np.broadcast_to(np.uint8(0), (2**28,))  # 2**31 bits, no memory
        sets = SamplingSets(points=np.ones((1, 1)), bits=bits, m_Phi=2**31)
        with pytest.raises(ValueError, match=r"int32 counts need m_Phi < 2\*\*31, got 2147483648"):
            sets.gram()

    # each takes the 130 x 3 x 5 sketch (1950 bits in 244 bytes) and
    # returns (points, bits, m_Phi) that disagree in one way
    @pytest.mark.parametrize(
        "spoil",
        [
            lambda s: (s.points, s.bits.astype(np.int64), 130),
            lambda s: (s.points, s.bits[:-1], 130),
            lambda s: (s.points, s.bits.reshape(4, 61), 130),
            lambda s: (s.points[:, :4], s.bits, 130),
            lambda s: (s.points, s.bits, 131),
        ],
        ids=["int64", "a-byte-short", "two-dimensional", "narrower-points", "more-directions"],
    )
    def test_bits_that_do_not_fit_the_shape_are_refused(self, spoil):
        """Bits of another type, or a length other than ceil(m_Phi * m_X *
        d / 8) bytes, never reach the compiled counts."""
        sets = draw_sampling_sets(SamplingPlan(m_X=3, m_Phi=130, epsilon=0.1), 5, rng=SEED)
        assert sets.bits.shape == (244,)
        points, bits, m_phi = spoil(sets)
        with pytest.raises(ValueError, match="bits must be uint8 of shape"):
            SamplingSets(points=points, bits=bits, m_Phi=m_phi)

    def test_a_sketch_without_directions_is_refused(self):
        points = uniform_sphere(np.random.default_rng(SEED), 3, 5)
        with pytest.raises(ValueError, match="m_Phi must be >= 1, got 0"):
            SamplingSets(points=points, bits=np.empty(0, dtype=np.uint8), m_Phi=0)

    # (m_Phi, m_X, d) whose m_Phi * m_X * d signs leave 7, 2, 7 and 7 pad
    # bits in the last byte: a mid-byte last row, a last part 64-row word
    # past a 64-column block, and one column of 65 directions
    @pytest.mark.parametrize("m_phi, m_x, d", [(7, 3, 5), (130, 3, 5), (129, 5, 13), (65, 1, 1)])
    def test_pad_bits_past_the_last_sign_are_ignored(self, m_phi, m_x, d):
        """The bytes hold ceil(m_Phi * m_X * d / 8) * 8 bits, and the ones
        past the last sign are no sign: all clear or all set, they change
        neither the counts, the float directions, the float chunks nor the
        adjoint."""
        plan = SamplingPlan(m_X=m_x, m_Phi=m_phi, epsilon=0.1)
        drawn = draw_sampling_sets(plan, d, rng=SEED)
        pad = 8 * drawn.bits.size - m_phi * m_x * d
        assert pad > 0
        mask = np.uint8((1 << pad) - 1)
        clear, full = drawn.bits.copy(), drawn.bits.copy()
        clear[-1] &= ~mask
        full[-1] |= mask
        clean = SamplingSets(points=drawn.points, bits=clear, m_Phi=m_phi)
        padded = SamplingSets(points=drawn.points, bits=full, m_Phi=m_phi)
        assert np.array_equal(padded.gram(), clean.gram())
        assert np.array_equal(padded.gram(), _integer_counts(drawn))
        assert np.array_equal(padded.directions, clean.directions)
        chunks = [(a, b, c.copy()) for a, b, c in sampling._float_chunks(padded)]
        want = [(a, b, c.copy()) for a, b, c in sampling._float_chunks(clean)]
        assert all(g[:2] == w[:2] and np.array_equal(g[2], w[2]) for g, w in zip(chunks, want, strict=True))
        v = np.random.default_rng(SEED + 1).standard_normal(m_phi)
        assert np.array_equal(apply_adjoint(padded, v), apply_adjoint(clean, v))

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
