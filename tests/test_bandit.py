"""Tests for arm-grid construction and the UCB-1 phase-2 loop."""

import math

import numpy as np
import pytest

from subspace_bandit import bandit
from subspace_bandit.bandit import (
    ArmGrid,
    build_arm_grid,
    choose_M,
    default_ucb_scale,
    fresh_ucb_state,
    run_phase2,
    ucb1_select,
    ucb1_update,
)
from subspace_bandit.envs import (
    DomainError,
    best_on_subspace,
    make_environment,
    mean_value,
    optimal_value,
    sample_reward,
)

SEED = 91600


def rotated_basis(env, angle):
    """Tilt the first row of the true basis inside its own 2-plane."""
    rng = np.random.default_rng(env.seed + 777)
    a = env.A[0]
    v = rng.standard_normal(env.d)
    v -= env.A.T @ (env.A @ v)
    v /= np.linalg.norm(v)
    row = math.cos(angle) * a + math.sin(angle) * v
    basis = env.A.copy()
    basis[0] = row
    return basis


# ---------- discretization level ----------


class TestChooseM:
    def test_small_budget_example(self):
        assert choose_M(round(math.e**2), 1) == 2

    def test_large_budget_example(self):
        assert choose_M(10**5, 2) == 10

    def test_high_dimension_saturates_at_one(self):
        assert choose_M(10**5, 50) == 1

    def test_tiny_budgets(self):
        assert choose_M(2, 1) >= 1
        with pytest.raises(ValueError):
            choose_M(1, 1)
        with pytest.raises(ValueError):
            choose_M(100, 0)


# ---------- arm grid ----------


class TestArmGrid:
    def test_line_grid(self):
        grid = build_arm_grid(np.eye(1, 4), M=2, nu=0.0)
        np.testing.assert_array_equal(
            grid.lattice_points.ravel(), np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        )
        assert grid.n_arms == 5

    def test_plane_grid_drops_corners(self):
        grid = build_arm_grid(np.eye(2, 5), M=1, nu=0.0)
        expected = np.array(
            [[-1.0, 0.0], [0.0, -1.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        )
        np.testing.assert_array_equal(grid.lattice_points, expected)

    def test_lattice_values_are_integer_multiples_of_step(self):
        grid = build_arm_grid(np.eye(1, 3), M=3, nu=0.2)
        j = np.round(grid.lattice_points.ravel() * 3)
        np.testing.assert_array_equal(grid.lattice_points.ravel(), j / 3)
        # range per the rounding rule: |j/M| <= 1 + nu
        assert j.min() == -3 and j.max() == 3

    def test_candidate_count_at_integer_extent(self):
        # (1 + nu) * M integer: the unfiltered box has (2M(1+nu) + 1)^k points
        grid = build_arm_grid(np.eye(2, 6), M=2, nu=0.5)
        box = (2 * 2 * 1.5 + 1) ** 2
        assert grid.n_arms <= box
        j = grid.lattice_points * 2
        assert j.max() == 3.0

    def test_embedding_preserves_norms(self):
        rng = np.random.default_rng(SEED)
        mat = rng.standard_normal((2, 7))
        q, _ = np.linalg.qr(mat.T)
        basis = q[:, :2].T
        grid = build_arm_grid(basis, M=3, nu=0.1)
        for y, x in zip(grid.lattice_points, grid.arms):
            assert abs(np.linalg.norm(x) - np.linalg.norm(y)) < 1e-10
            assert np.linalg.norm(x) <= 1.1 + 1e-9

    def test_origin_always_survives(self):
        grid = build_arm_grid(np.eye(3, 8), M=1, nu=0.0)
        assert any(np.all(y == 0.0) for y in grid.lattice_points)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="orthonormal"):
            build_arm_grid(np.ones((2, 4)), M=1, nu=0.0)
        with pytest.raises(ValueError):
            build_arm_grid(np.eye(1, 4), M=0, nu=0.0)


# ---------- index policy ----------


class TestUcb1:
    def test_initial_sweep_order(self):
        state = fresh_ucb_state(5, 1.0)
        assert ucb1_select(state) == 0
        ucb1_update(state, 0, 0.3)
        assert ucb1_select(state) == 1

    def test_equal_bonus_prefers_higher_mean(self):
        state = fresh_ucb_state(2, 1.0)
        state.counts[:] = (3, 3)
        state.means[:] = (0.9, 0.1)
        state.t = 6
        assert ucb1_select(state) == 0

    def test_worked_index_example(self):
        """Counts (100, 1) at t=101: the rarely pulled arm wins on its bonus."""
        state = fresh_ucb_state(2, 1.0)
        state.counts[:] = (100, 1)
        state.means[:] = (0.5, 0.4)
        state.t = 101
        bonus0 = math.sqrt(2 * math.log(101) / 100)
        bonus1 = math.sqrt(2 * math.log(101))
        assert 0.5 + bonus0 == pytest.approx(0.80381, abs=1e-4)
        assert 0.4 + bonus1 == pytest.approx(3.43810, abs=1e-4)
        assert ucb1_select(state) == 1

    def test_tie_breaks_to_lowest_index(self):
        state = fresh_ucb_state(3, 0.5)
        state.counts[:] = (4, 4, 4)
        state.means[:] = (0.2, 0.2, 0.2)
        state.t = 12
        assert ucb1_select(state) == 0

    def test_first_update_sets_mean(self):
        state = fresh_ucb_state(2, 1.0)
        ucb1_update(state, 0, 0.7)
        assert state.means[0] == pytest.approx(0.7)
        assert state.counts[0] == 1 and state.t == 1

    def test_two_updates_average(self):
        state = fresh_ucb_state(1, 1.0)
        ucb1_update(state, 0, 0.0)
        ucb1_update(state, 0, 1.0)
        assert state.means[0] == pytest.approx(0.5)

    def test_incremental_mean_matches_batch(self):
        rng = np.random.default_rng(SEED + 1)
        rewards = rng.standard_normal(1000) * 3 + 0.4
        state = fresh_ucb_state(1, 1.0)
        for r in rewards:
            ucb1_update(state, 0, r)
        assert state.means[0] == pytest.approx(rewards.mean(), abs=1e-12)
        assert state.counts.sum() == state.t == 1000

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0])
    def test_scale_must_be_finite_and_nonnegative(self, scale):
        with pytest.raises(ValueError, match="scale must be finite"):
            fresh_ucb_state(3, scale)

    def test_update_rejects_bad_arm(self):
        state = fresh_ucb_state(2, 1.0)
        with pytest.raises(ValueError):
            ucb1_update(state, 2, 0.0)

    def test_shift_invariance_of_pull_sequence(self):
        """A constant added to every reward never changes the chosen arms."""

        def replay(shift):
            values = np.array([0.1, 0.5, 0.3, 0.9, 0.2, 0.4]) + shift
            state = fresh_ucb_state(6, 1.0)
            seq = []
            for _ in range(200):
                arm = ucb1_select(state)
                seq.append(arm)
                ucb1_update(state, arm, values[arm])
            return seq

        assert replay(0.0) == replay(7.5) == replay(-3.25)


# ---------- phase-2 execution ----------


def quad_env(seed, sigma=0.0, d=6, nu=0.0, center=0.5):
    return make_environment(
        d=d,
        k=1,
        family="centered-quadratic",
        sigma=sigma,
        nu=nu,
        seed=seed,
        params={"center": [center]},
    )


class TestRunPhase2:
    def test_sweep_covers_every_arm_once(self):
        env = quad_env(SEED + 2)
        result = run_phase2(env, env.A, n2=5, M=2)
        np.testing.assert_array_equal(result.arm_ids, np.arange(5))
        assert np.all(result.state.counts == 1)
        assert env.query_count == 5

    def test_single_round_uses_the_coarsest_grid(self):
        # choose_M needs n2 >= 2; one round plays the first arm of the M = 1 grid
        env = quad_env(SEED + 8)
        result = run_phase2(env, env.A, n2=1)
        assert result.grid.M == 1
        np.testing.assert_array_equal(result.arm_ids, [0])
        assert env.query_count == 1

    def test_budget_is_exact(self):
        env = quad_env(SEED + 3, sigma=0.1)
        run_phase2(env, env.A, n2=137, M=3)
        assert env.query_count == 137

    def test_identical_seeds_identical_runs(self):
        first = run_phase2(quad_env(SEED + 4, sigma=0.2), quad_env(SEED + 4).A, 400)
        second = run_phase2(quad_env(SEED + 4, sigma=0.2), quad_env(SEED + 4).A, 400)
        np.testing.assert_array_equal(first.arm_ids, second.arm_ids)
        np.testing.assert_array_equal(first.state.means, second.state.means)

    def test_noiseless_greedy_locks_onto_optimal_arm(self):
        """sigma=0 and zero exploration scale: after the sweep, only the
        best arm is played (the optimum sits on the grid, so it separates)."""
        env = quad_env(SEED + 5, sigma=0.0, center=0.5)
        result = run_phase2(env, env.A, n2=50, M=2, ucb_scale=0.0)
        n_arms = result.grid.n_arms
        best = int(np.argmax(result.grid.lattice_points.ravel() == 0.5))
        assert np.all(result.arm_ids[n_arms:] == best)
        assert result.state.means[best] == pytest.approx(1.0)
        # per-round regret of those pulls is exactly the residual R3 gap: 0
        assert result.regrets[n_arms:].max() == pytest.approx(0.0, abs=1e-9)

    def test_played_strategies_stay_on_grid_and_in_ball(self):
        env = quad_env(SEED + 6, sigma=0.3, nu=0.1)
        basis = rotated_basis(env, 0.07)
        result = run_phase2(env, basis, n2=300)
        xs = result.grid.lattice_points[result.arm_ids] @ basis
        np.testing.assert_array_equal(xs, result.grid.arms[result.arm_ids])
        norms = np.linalg.norm(xs, axis=1)
        assert norms.max() <= 1.1 + 1e-9

    def test_nan_scale_raises_before_any_query(self):
        env = quad_env(SEED + 9, sigma=0.1)
        with pytest.raises(ValueError, match="scale must be finite"):
            run_phase2(env, env.A, n2=100, ucb_scale=float("nan"))
        assert env.query_count == 0
        assert env.rng.standard_normal() == quad_env(SEED + 9, sigma=0.1).rng.standard_normal()

    def test_default_scale_combines_noise_and_range(self):
        env = quad_env(SEED + 8, sigma=0.25)
        assert default_ucb_scale(env) == pytest.approx(0.25 + 2 * env.mean.c2)

    def test_phase2_regret_vs_subspace_optimum_is_nonnegative(self):
        """Against the best point on the recovered subspace, regret cannot
        go negative beyond float rounding."""
        n2 = 2000
        totals = []
        for trial in range(10):
            env = quad_env(SEED + 10 + trial, sigma=0.05, d=8, nu=0.05, center=0.3)
            basis = rotated_basis(env, 0.1)
            opt, _ = optimal_value(env)
            sub_opt, _ = best_on_subspace(env, basis)
            result = run_phase2(env, basis, n2, opt_value=opt)
            r2 = result.regrets.sum() - n2 * (opt - sub_opt)
            totals.append(r2)
            assert r2 >= -n2 * 1e-12, f"trial {trial}: R2 = {r2!r}"
        totals = np.asarray(totals)
        stderr = totals.std(ddof=1) / math.sqrt(totals.size)
        assert totals.mean() >= -2 * stderr

    def test_regret_scaling_follows_sublinear_rate(self):
        """Fit the problem constant at a small horizon, then check the large
        horizon lands within a [0.2x, 5x] band of the predicted rate."""

        def mean_regret(n2, n_seeds=10):
            total = 0.0
            for trial in range(n_seeds):
                env = quad_env(SEED + 40 + trial, sigma=0.05, center=0.3)
                result = run_phase2(env, env.A, n2)
                total += float(result.regrets.sum())
            return total / n_seeds

        def rate(n2):
            return n2 ** (2 / 3) * math.log(n2) ** (1 / 3)

        small, large = 10**4, 5 * 10**4
        constant = mean_regret(small) / rate(small)
        predicted = constant * rate(large)
        measured = mean_regret(large)
        assert 0.2 * predicted <= measured <= 5.0 * predicted, (
            f"measured {measured:.1f} vs predicted {predicted:.1f}"
        )


# ---------- batched kernel against the per-round reference ----------


FAMILY_PARAMS = {
    "linear": lambda k: {"weight": [0.6] + [0.3] * (k - 1)},
    "norm-squared": lambda k: {},
    "centered-quadratic": lambda k: {"center": [0.3] * k},
    "gaussian-bump": lambda k: {"center": [0.2] * k, "width": 0.4},
}


def family_env(family, k, sigma, seed, d=8):
    return make_environment(
        d=d, k=k, family=family, sigma=sigma, nu=0.1, seed=seed,
        params=FAMILY_PARAMS[family](k),
    )


def reference_phase2(env, a_hat, n2, ucb_scale=None, M=None):
    """run_phase2 from the public per-round pieces: one ucb1_select,
    sample_reward and ucb1_update call per round."""
    scale = default_ucb_scale(env) if ucb_scale is None else float(ucb_scale)
    opt_value = optimal_value(env)[0]
    M = choose_M(n2, a_hat.shape[0]) if M is None else M
    grid = build_arm_grid(a_hat, M, env.nu)
    state = fresh_ucb_state(grid.n_arms, scale)
    arm_ids = np.zeros(n2, dtype=np.int64)
    for i in range(n2):
        arm = ucb1_select(state)
        ucb1_update(state, arm, sample_reward(env, grid.arms[arm]))
        arm_ids[i] = arm
    regrets = opt_value - mean_value(env.mean, grid.arms @ env.A.T)[arm_ids]
    return arm_ids, regrets, state


def assert_matches_reference(family, k, sigma, n2, seed, d=8, **settings):
    env = family_env(family, k, sigma, seed, d)
    ref_env = family_env(family, k, sigma, seed, d)
    a_hat = rotated_basis(env, 0.05)
    got = run_phase2(env, a_hat, n2, **settings)
    arm_ids, regrets, state = reference_phase2(ref_env, a_hat, n2, **settings)
    np.testing.assert_array_equal(got.arm_ids, arm_ids)
    np.testing.assert_array_equal(got.regrets, regrets)
    np.testing.assert_array_equal(got.state.counts, state.counts)
    np.testing.assert_array_equal(got.state.means, state.means)
    assert got.arm_ids.dtype == arm_ids.dtype and got.state.counts.dtype == state.counts.dtype
    assert got.state.t == state.t == n2
    assert env.query_count == ref_env.query_count == n2
    assert env.rng.standard_normal() == ref_env.rng.standard_normal()
    return got


class TestPhase2MatchesReference:
    """run_phase2 is bit-identical to the per-round loop it batches."""

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    def test_small_chunks(self, family, k, sigma, monkeypatch):
        """Chunk size 64: fewer rounds than arms, exactly one chunk, and a
        horizon that ends inside its fourth chunk."""
        monkeypatch.setattr(bandit, "NOISE_CHUNK", 64)
        seed = SEED + 100 + k
        assert_matches_reference(family, k, sigma, 5, seed, M=4)
        assert_matches_reference(family, k, sigma, 64, seed)
        assert_matches_reference(family, k, sigma, 3 * 64 + 17, seed)

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_sweep_shape(self, family):
        """d = 12, k = 3, where the other cases have d = 8: the arm means
        come from one batch over the per-arm products ``A @ x`` and must
        still equal sample_reward's bit for bit."""
        assert_matches_reference(family, 3, 0.1, 800, SEED + 300, d=12, M=4)

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_library_chunk(self, family):
        """The default chunk size, on one chunk and across a chunk boundary."""
        chunk = bandit.NOISE_CHUNK
        assert_matches_reference(family, 2, 0.1, chunk, SEED + 200, ucb_scale=0.5)
        assert_matches_reference(family, 2, 0.1, chunk + 300, SEED + 200, ucb_scale=0.5)

    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    def test_long_horizon_in_blocks(self, sigma):
        """20000 rounds on 29 arms: over 600 blocks of 32 rounds.  At sigma = 0
        the mirror-image arms +y and -y have equal means, so equal counts give
        equal indices and the lowest-index rule decides inside blocks."""
        env = family_env("norm-squared", 1, sigma, SEED + 400)
        means = [float(mean_value(env.mean, env.A @ x))
                 for x in build_arm_grid(rotated_basis(env, 0.05), choose_M(20000, 1), env.nu).arms]
        if sigma == 0.0:
            assert means == means[::-1]
        assert_matches_reference("norm-squared", 1, sigma, 20000, SEED + 400, ucb_scale=0.75)

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 2, 3, 10**6])
    def test_block_lengths(self, family, k, block, monkeypatch):
        """Blocks of one round (no arm is pulled before a block's only round),
        two and three rounds, and a BLOCK above the horizon, so that one
        block runs to the last round."""
        monkeypatch.setattr(bandit, "BLOCK", block)
        for sigma, n2 in ((0.0, 700), (0.2, 1500)):
            assert_matches_reference(family, k, sigma, n2, SEED + 500 + k)

    @pytest.mark.parametrize("block", [3, 32])
    def test_mirror_ties_go_to_the_lowest_index(self, block, monkeypatch):
        """ucb_scale = 0 at sigma = 0: each index is its arm's mean, and on
        norm-squared the best arm ties exactly with its mirror image, in every
        round after the sweep.  The lower index of the pair must win them all."""
        monkeypatch.setattr(bandit, "BLOCK", block)
        got = assert_matches_reference("norm-squared", 1, 0.0, 300, SEED + 700, M=4, ucb_scale=0.0)
        means = got.state.means
        n_arms = got.grid.n_arms
        best = np.flatnonzero(means == means.max())
        assert best.size == 2 and best[0] + best[1] == n_arms - 1
        assert np.all(got.arm_ids[n_arms:] == best[0])

    def test_arm_wins_again_within_its_block(self):
        """A small scale concentrates play: the leading arm is pulled again
        inside the block that first pulled it, so its bound, recomputed at
        hi after each pull, must still let it be evaluated."""
        got = assert_matches_reference(
            "centered-quadratic", 2, 0.05, 3000, SEED + 800, ucb_scale=0.05
        )
        n_arms = got.grid.n_arms
        block = bandit.BLOCK
        ids = got.arm_ids[n_arms:].tolist()
        repeats = [
            i for i in range(0, len(ids), block)
            if len(set(ids[i:i + block])) < len(ids[i:i + block])
        ]
        assert len(repeats) > len(ids) // block // 2

    def test_theory_shape_round_robin(self):
        """The theory plan's grid: linear, d = 6, k = 1, sigma = 0, M = 204,
        449 arms and the default scale, where the winner changes almost
        every round."""
        got = assert_matches_reference("linear", 1, 0.0, 2000, SEED + 900, d=6, M=204)
        assert got.grid.n_arms == 449
        changes = np.count_nonzero(np.diff(got.arm_ids[449:]))
        assert changes > 0.9 * (2000 - 449 - 1)

    def test_wide_grid_of_1900_arms(self):
        """k = 3, M = 7: about 1900 arms, where a round's bounds rule out
        most arms without evaluating them."""
        got = assert_matches_reference("centered-quadratic", 3, 0.1, 6000, SEED + 1000, M=7)
        assert 1800 < got.grid.n_arms < 2000

    def test_grid_outside_ball_raises_before_any_query(self):
        """Rows 4e-9 too long pass the orthonormality check, but the outer
        arms (at 1 + nu = 11/M) then leave the ball by more than the slack."""
        env = family_env("norm-squared", 1, 0.2, SEED + 301)
        with pytest.raises(DomainError, match="outside the action ball"):
            run_phase2(env, env.A * (1.0 + 4e-9), 500, M=10)
        assert env.query_count == 0
        assert env.rng.standard_normal() == family_env("norm-squared", 1, 0.2, SEED + 301).rng.standard_normal()
