"""Reward environment tests: families, orthonormalization, budget accounting,
optimum oracles, and conditioning estimates."""

import math

import numpy as np
import pytest

from subspace_bandit.bandit import build_arm_grid
from subspace_bandit.envs import (
    DomainError,
    LinearParamMatrix,
    best_on_subspace,
    estimate_conditioning,
    make_environment,
    make_row_orthonormal,
    mean_grad,
    mean_spec,
    mean_value,
    optimal_value,
)
from sketch_oracles import (
    gradient_mean_reward,
    mean_hess,
    mean_reward,
    sample_reward,
    sample_rewards,
)

SEED = 42
FAMILIES = ["linear", "norm-squared", "centered-quadratic", "gaussian-bump"]
ORTHO_TOL = 1e-10

## family fixtures: (family, k, params)
FAMILY_CASES = [
    ("linear", 1, None),
    ("linear", 3, {"weight": np.array([0.5, -1.0, 0.25])}),
    ("norm-squared", 2, None),
    ("centered-quadratic", 2, {"center": np.array([0.3, -0.4])}),
    ("gaussian-bump", 2, {"center": np.array([0.2, 0.1]), "width": 0.6}),
]


class TestRowOrthonormalization:
    """make_row_orthonormal returns a row-orthonormal basis of the row space."""

    def test_scaled_unit_row(self):
        out = make_row_orthonormal(np.array([[2.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.matrix, [[1.0, 0.0, 0.0]], atol=1e-14)

    def test_random_matrices_orthonormal_and_span_preserved(self):
        rng = np.random.default_rng(SEED)
        for trial in range(50):
            k = int(rng.integers(1, 5))
            d = int(rng.integers(k, 12))
            M = rng.standard_normal((k, d))
            # occasionally make rows badly scaled to stress conditioning
            if trial % 3 == 0:
                M *= 10.0 ** rng.integers(-6, 7, size=(k, 1))
            out = make_row_orthonormal(M)
            Q = out.matrix
            dev = np.linalg.norm(Q @ Q.T - np.eye(k))
            assert dev <= ORTHO_TOL, f"trial {trial}: gram deviation {dev:.2e}"
            # independent row-space check through projectors built from M's SVD
            _, _, Vt = np.linalg.svd(M, full_matrices=False)
            P_in = Vt[:k].T @ Vt[:k]
            P_out = Q.T @ Q
            gap = np.linalg.norm(P_in - P_out)
            assert gap <= 1e-8, f"trial {trial}: row space moved by {gap:.2e}"

    def test_rank_deficient_rejected(self):
        M = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="rank < k"):
            make_row_orthonormal(M)

    def test_validation_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            LinearParamMatrix(np.array([[1.0, 1.0, 0.0]]))


class TestFamilies:
    """Value/gradient/Hessian consistency and smoothness certificates."""

    @pytest.mark.parametrize("family,k,params", FAMILY_CASES)
    def test_gradient_matches_finite_differences(self, family, k, params):
        spec = mean_spec(family, k, 0.1, params)
        rng = np.random.default_rng(SEED)
        h = 1e-5
        for _ in range(100):
            u = rng.uniform(-0.7, 0.7, size=k)
            g = mean_grad(spec, u)
            fd = np.empty(k)
            for i in range(k):
                e = np.zeros(k)
                e[i] = h
                fd[i] = (mean_value(spec, u + e) - mean_value(spec, u - e)) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("family,k,params", FAMILY_CASES)
    def test_hessian_matches_finite_differences(self, family, k, params):
        spec = mean_spec(family, k, 0.1, params)
        rng = np.random.default_rng(SEED + 1)
        h = 1e-4
        for _ in range(20):
            u = rng.uniform(-0.6, 0.6, size=k)
            H = mean_hess(spec, u)
            for i in range(k):
                e = np.zeros(k)
                e[i] = h
                fd_row = (mean_grad(spec, u + e) - mean_grad(spec, u - e)) / (2 * h)
                np.testing.assert_allclose(H[i], fd_row, rtol=1e-3, atol=1e-6)

    @pytest.mark.parametrize("family,k,params", FAMILY_CASES)
    def test_smoothness_certificate(self, family, k, params):
        """|g|, first and second partials never exceed the declared c2 on a
        dense grid over the domain."""
        nu = 0.1
        spec = mean_spec(family, k, nu, params)
        rng = np.random.default_rng(SEED + 2)
        n = 4000
        U = rng.uniform(-(1 + nu), 1 + nu, size=(n, k))
        U = U[np.linalg.norm(U, axis=1) <= 1 + nu]
        vals = np.atleast_1d(mean_value(spec, U))
        grads = np.atleast_2d(mean_grad(spec, U))
        assert np.max(np.abs(vals)) <= spec.c2 + 1e-12, f"value exceeds c2 for {family}"
        assert np.max(np.abs(grads)) <= spec.c2 + 1e-12, f"gradient exceeds c2 for {family}"
        for u in U[:200]:
            H = mean_hess(spec, u)
            assert np.max(np.abs(H)) <= spec.c2 + 1e-12, f"hessian exceeds c2 for {family}"

    # weights whose products round, unlike the fixtures' powers of two
    @pytest.mark.parametrize(
        "family,k,params", FAMILY_CASES + [("linear", 3, {"weight": np.array([0.6, 0.3, -0.7])})]
    )
    def test_batch_equals_each_point_bit_for_bit(self, family, k, params):
        """Phase 2 evaluates its arm means in one batch and must match
        sample_reward's one-point values exactly."""
        spec = mean_spec(family, k, 0.1, params)
        U = np.random.default_rng(SEED + 3).uniform(-0.7, 0.7, size=(500, k))
        batch = mean_value(spec, U)
        assert batch.tolist() == [mean_value(spec, u) for u in U]

    def test_norm_squared_c2_value(self):
        spec = mean_spec("norm-squared", 2, 0.1)
        assert spec.c2 == pytest.approx(max(2 * 1.1, 2.0, 1.1**2))

    def test_center_outside_unit_ball_rejected(self):
        with pytest.raises(ValueError, match="unit ball"):
            mean_spec("centered-quadratic", 2, 0.1, {"center": np.array([1.2, 0.0])})

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            mean_spec("cubic", 1, 0.1)

    @pytest.mark.parametrize("family, k, params", [case for case in FAMILY_CASES if case[2]])
    @pytest.mark.parametrize("form", [list, tuple])
    def test_vector_parameters_as_lists_or_tuples_give_the_array_spec(self, family, k, params, form):
        """Valid parameters parse as np.asarray(value, dtype=float) did."""
        spec = mean_spec(family, k, 0.1, params)
        other = mean_spec(family, k, 0.1, {
            key: form(val.tolist()) if isinstance(val, np.ndarray) else val
            for key, val in params.items()
        })
        assert other.c2 == spec.c2
        for key, val in params.items():
            assert np.array_equal(other.params[key], spec.params[key])
            assert np.array_equal(spec.params[key], np.asarray(val, dtype=float))

    def test_integer_entries_are_floats(self):
        spec = mean_spec("gaussian-bump", 2, 0.1, {"center": [0, 1], "width": 1})
        assert spec.params["center"].tolist() == [0.0, 1.0] and spec.params["width"] == 1.0
        assert isinstance(spec.params["width"], float)

    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("norm-squared", {"weight": [1.0]}, "params.weight is not a parameter"),
            ("linear", {"center": [0.1]}, "params.center is not a parameter"),
            ("gaussian-bump", {"width": float("nan")}, "params.width must be finite"),
            ("centered-quadratic", {"center": [float("nan")]}, "params.center must be a list"),
            ("linear", {"weight": [[1.0]]}, "params.weight must be a list"),
            ("linear", {"weight": 1.0}, "params.weight must be a list"),
            ("linear", [1.0], "params must be an object"),
        ],
    )
    def test_bad_parameters_name_their_key(self, family, params, message):
        with pytest.raises(ValueError, match=message):
            mean_spec(family, 1, 0.1, params)

    def test_d_must_be_an_integer(self):
        """A float d once reached numpy and raised its TypeError."""
        with pytest.raises(ValueError, match="d must be an integer, got 6.9"):
            make_environment(d=6.9, k=1, family="linear", seed=1)

    def test_k_must_be_an_integer(self):
        """A bool k once raised numpy's TypeError."""
        with pytest.raises(ValueError, match="k must be an integer, got True"):
            make_environment(d=4, k=True, family="linear")

    @pytest.mark.parametrize("family", ["linear", "norm-squared"])
    @pytest.mark.parametrize("k", [0, -2, 6])
    def test_k_must_lie_between_one_and_d(self, family, k):
        """k = 0 once ended in an IndexError from the norm-squared optimum,
        k = -2 in numpy's "negative dimensions", and k > d named A's shape."""
        with pytest.raises(ValueError, match=rf"k must satisfy 1 <= k <= d = 5, got {k}$"):
            make_environment(d=5, k=k, family=family)

    @pytest.mark.parametrize("family", ["linear", "norm-squared", "centered-quadratic", "gaussian-bump"])
    @pytest.mark.parametrize(
        "k, message",
        [(0, "k must be >= 1, got 0$"), (-2, "k must be >= 1, got -2$"),
         (1.5, "k must be an integer, got 1.5$")],
    )
    def test_mean_spec_checks_k_first(self, family, k, message):
        """k = 0 once ended in an IndexError from the norm-squared optimum
        before MeanRewardSpec's own check of k ran."""
        with pytest.raises(ValueError, match=message):
            mean_spec(family, k, 0.1)

    @pytest.mark.parametrize("name", ["sigma", "nu"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.1"])
    def test_noise_and_margin_must_be_finite(self, name, value):
        """A string once raised a TypeError from math.isfinite."""
        with pytest.raises(ValueError, match=f"{name} must be (finite|a real number)"):
            make_environment(d=4, k=1, family="linear", **{name: value})


class TestEnvironmentQueries:
    """Budget accounting, noise behaviour, domain enforcement, determinism."""

    def make_env(self, sigma=0.3, seed=SEED):
        return make_environment(d=8, k=2, family="norm-squared", sigma=sigma, nu=0.1, seed=seed)

    def test_query_count_exact(self):
        env = self.make_env()
        x = np.zeros(8)
        for _ in range(5):
            sample_reward(env, x)
        assert env.query_count == 5
        sample_rewards(env, np.zeros((3, 8)), repeats=4)
        assert env.query_count == 5 + 12
        # analysis oracles are free
        mean_reward(env, x)
        gradient_mean_reward(env, x)
        optimal_value(env)
        estimate_conditioning(env, 100)
        assert env.query_count == 17

    def test_zero_noise_is_exact(self):
        env = self.make_env(sigma=0.0)
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            x = rng.uniform(-0.3, 0.3, size=8)
            assert sample_reward(env, x) == mean_reward(env, x)
        xs = rng.uniform(-0.3, 0.3, size=(6, 8))
        got = sample_rewards(env, xs, repeats=3)
        want = [mean_reward(env, x) for x in xs]
        # batched BLAS evaluation may round differently from per-point matvec
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        got2 = sample_rewards(env, xs, repeats=2)
        np.testing.assert_array_equal(got, got2)

    def test_noiseless_queries_draw_no_noise(self):
        env = self.make_env(sigma=0.0)
        state = env.rng.bit_generator.state
        xs = np.random.default_rng(SEED).uniform(-0.3, 0.3, size=(6, 8))
        sample_reward(env, xs[0])
        sample_rewards(env, xs, repeats=3)
        assert env.query_count == 1 + 18
        assert env.rng.bit_generator.state == state

    def test_noisy_streams_unchanged(self):
        """One normal per point in order, scaled by sigma / sqrt(repeats)."""
        sigma = 0.3
        env = self.make_env(sigma=sigma)
        replay = np.random.default_rng()
        replay.bit_generator.state = env.rng.bit_generator.state
        xs = np.random.default_rng(SEED).uniform(-0.3, 0.3, size=(6, 8))
        for x in xs[:3]:
            assert sample_reward(env, x) == mean_reward(env, x) + sigma * replay.standard_normal()
        means = mean_value(env.mean, xs @ env.A.T)
        for repeats in (1, 4):
            want = means + sigma / math.sqrt(repeats) * replay.standard_normal(6)
            assert np.array_equal(sample_rewards(env, xs, repeats=repeats), want)
        assert env.rng.bit_generator.state == replay.bit_generator.state

    def test_identical_seeds_identical_streams(self):
        env1 = self.make_env(seed=7)
        env2 = self.make_env(seed=7)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-0.3, 0.3, size=(10, 8))
        r1 = [sample_reward(env1, x) for x in xs]
        r2 = [sample_reward(env2, x) for x in xs]
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(env1.A, env2.A)
        b1 = sample_rewards(env1, xs, repeats=2)
        b2 = sample_rewards(env2, xs, repeats=2)
        np.testing.assert_array_equal(b1, b2)

    def test_domain_violation_raises_and_never_clamps(self):
        env = self.make_env()
        x = np.zeros(8)
        x[0] = 1.2  # outside radius 1.1
        for fn in (mean_reward, sample_reward, gradient_mean_reward):
            with pytest.raises(DomainError, match="outside the action ball"):
                fn(env, x)
        before = env.query_count
        xs = np.zeros((4, 8))
        xs[2, 0] = 1.2
        with pytest.raises(DomainError, match="point 2"):
            sample_rewards(env, xs)
        assert env.query_count == before, "failed batch must not charge budget"

    def test_boundary_point_accepted(self):
        env = self.make_env()
        x = np.zeros(8)
        x[0] = 1.1
        mean_reward(env, x)

    def test_batch_average_matches_noise_scaling(self):
        """Averaging repeats shrinks the observed spread like 1/sqrt(N)."""
        env = self.make_env(sigma=0.5, seed=11)
        x = np.zeros((200, 8))
        one = sample_rewards(env, x, repeats=1)
        four = sample_rewards(env, x, repeats=4)
        s1, s4 = np.std(one), np.std(four)
        assert s4 < s1, f"averaging did not reduce spread: {s4:.3f} vs {s1:.3f}"
        assert abs(s4 - s1 / 2) < 0.2 * s1, f"expected roughly half the spread, got {s4 / s1:.3f}"


    def test_repeats_draw_one_normal_per_point(self):
        """The mean of N noisy rewards is drawn as one normal per point,
        scaled by 1/sqrt(N): one draw whatever N is, and N = 1 is the plain
        reward stream.  The count still charges every repeat."""
        env = self.make_env(sigma=0.5, seed=11)
        xs = np.random.default_rng(SEED).uniform(-0.3, 0.3, size=(5, 8))
        means = mean_value(env.mean, xs @ env.A.T)
        for repeats in (1, 4, 10**12):
            stream = np.random.default_rng()
            stream.bit_generator.state = env.rng.bit_generator.state
            before = env.query_count
            got = sample_rewards(env, xs, repeats=repeats)
            want = means + 0.5 / math.sqrt(repeats) * stream.standard_normal(5)
            np.testing.assert_array_equal(got, want)
            assert env.rng.bit_generator.state == stream.bit_generator.state
            assert env.query_count - before == 5 * repeats


class TestGradientOracle:
    """gradient_mean_reward is analytic, matches finite differences on the
    full-dimensional mean reward, and lies in the row space of A."""

    @pytest.mark.parametrize("family,k,params", FAMILY_CASES)
    def test_fd_and_rowspace(self, family, k, params):
        env = make_environment(d=9, k=k, family=family, sigma=0.0, nu=0.1, seed=SEED, params=params)
        rng = np.random.default_rng(SEED + 3)
        h = 1e-5
        P = env.A.T @ env.A
        for _ in range(25):
            x = rng.standard_normal(9)
            x *= rng.uniform(0.1, 0.9) / np.linalg.norm(x)
            g = gradient_mean_reward(env, x)
            fd = np.empty(9)
            for i in range(9):
                e = np.zeros(9)
                e[i] = h
                fd[i] = (mean_reward(env, x + e) - mean_reward(env, x - e)) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-8)
            off = np.linalg.norm(g - P @ g)
            assert off <= 1e-10, f"gradient leaves the row space by {off:.2e}"


class TestOptimumOracles:
    """The exact maximizers agree with closed forms and beat any sampled point."""

    def test_norm_squared_k1(self):
        env = make_environment(d=6, k=1, family="norm-squared", nu=0.1, seed=SEED)
        val, x_star = optimal_value(env)
        assert val == pytest.approx(1.21, abs=1e-12)
        # argmax is +/- 1.1 times the single row of A
        a1 = env.A[0]
        assert min(np.linalg.norm(x_star - 1.1 * a1), np.linalg.norm(x_star + 1.1 * a1)) < 1e-12

    @pytest.mark.parametrize("family,k,params", FAMILY_CASES)
    def test_matches_closed_form(self, family, k, params):
        env = make_environment(d=7, k=k, family=family, nu=0.1, seed=SEED, params=params)
        val, x_star = optimal_value(env)
        want, _ = env.mean.closed_form_opt
        assert abs(val - want) <= 1e-12, f"{family}: oracle {val!r} vs closed form {want!r}"
        assert np.linalg.norm(x_star) <= 1.1 + 1e-12
        assert mean_reward(env, x_star) == pytest.approx(val, abs=1e-12)

    def test_best_on_subspace_equals_optimum_when_exact(self):
        env = make_environment(d=7, k=2, family="centered-quadratic", nu=0.1, seed=SEED,
                               params={"center": np.array([0.3, -0.2])})
        val, y = best_on_subspace(env, env.A)
        want, _ = env.mean.closed_form_opt
        assert val == pytest.approx(want, abs=1e-12)
        np.testing.assert_allclose(y, [0.3, -0.2], atol=1e-12)

    def test_best_on_subspace_beats_ball_sample_and_lattice(self):
        """On tilted and rank-deficient bases, no sampled point of the ball
        and no lattice arm scores above the reported subspace optimum."""
        rng = np.random.default_rng(SEED)
        nu, d = 0.1, 7
        radius = 1.0 + nu
        checked = 0
        for k in (1, 2, 3):
            # uniform in the ball, plus the sphere where boundary optima live
            sphere = rng.standard_normal((4000, k))
            sphere *= radius / np.linalg.norm(sphere, axis=1, keepdims=True)
            inside = sphere * rng.uniform(size=(4000, 1)) ** (1.0 / k)
            sample = np.vstack([inside, sphere])
            for family in FAMILIES:
                for trial in range(5):
                    center = rng.standard_normal(k)
                    center *= rng.uniform(0.2, 1.0) / np.linalg.norm(center)
                    params = {
                        "linear": {"weight": rng.standard_normal(k)},
                        "norm-squared": None,
                        "centered-quadratic": {"center": center},
                        "gaussian-bump": {"center": center, "width": 0.4},
                    }[family]
                    env = make_environment(d=d, k=k, family=family, nu=nu,
                                           seed=SEED + trial, params=params)
                    tilt = env.A + rng.uniform(0.2, 1.5) * rng.standard_normal((k, d))
                    if trial == 4:
                        # one basis row orthogonal to A: A A_hat^T is singular
                        off = rng.standard_normal(d)
                        off -= env.A.T @ (env.A @ off)
                        tilt[0] = off
                    a_hat = make_row_orthonormal(tilt).matrix
                    T = env.A @ a_hat.T
                    val, y = best_on_subspace(env, a_hat)
                    assert np.linalg.norm(y) <= radius + 1e-12
                    assert mean_value(env.mean, T @ y) == val
                    sampled = mean_value(env.mean, sample @ T.T).max()
                    assert sampled <= val + 1e-12, f"{family} k={k}: {sampled!r} > {val!r}"
                    grid = build_arm_grid(a_hat, 6, nu)
                    arms = mean_value(env.mean, grid.arms @ env.A.T).max()
                    assert arms <= val + 1e-12, f"{family} k={k}: arm {arms!r} > {val!r}"
                    checked += 1
        assert checked == 60


class TestConditioning:
    """Spectral estimates of the gradient outer-product moment."""

    def test_norm_squared_alpha_scaling(self):
        # E[x x^T] = I/d on the unit sphere, so the moment matrix is 4/d * A^T A
        env = make_environment(d=20, k=2, family="norm-squared", seed=SEED)
        rep = estimate_conditioning(env, 50_000)
        assert rep.n_samples == 50_000
        assert rep.singular_values.shape == (2,)
        assert rep.alpha_hat == pytest.approx(4.0 / 20, rel=0.15)

    def test_linear_family_unit_weight(self):
        # gradient is constant a_1, so the moment matrix is a_1 a_1^T: spectrum {1}
        env = make_environment(d=12, k=1, family="linear", seed=SEED)
        rep = estimate_conditioning(env, 2000)
        assert rep.alpha_hat == pytest.approx(1.0, rel=1e-10)

    def test_alpha_times_d_roughly_constant(self):
        vals = []
        for d in (10, 40):
            env = make_environment(d=d, k=2, family="norm-squared", seed=SEED + d)
            vals.append(estimate_conditioning(env, 50_000).alpha_hat * d)
        ratio = max(vals) / min(vals)
        assert ratio < 1.3, f"alpha_hat * d varied by {ratio:.3f}"

    def test_idempotent_per_environment(self):
        env = make_environment(d=10, k=2, family="norm-squared", seed=3)
        r1 = estimate_conditioning(env, 500)
        r2 = estimate_conditioning(env, 500)
        np.testing.assert_array_equal(r1.singular_values, r2.singular_values)
