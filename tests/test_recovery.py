"""Tests for the Dantzig selector solve and subspace extraction."""

import math

import numpy as np
import pytest

from subspace_bandit import recovery
from subspace_bandit.envs import make_environment
from subspace_bandit.recovery import (
    DantzigProblem,
    DegenerateRecoveryError,
    compute_lambda,
    ds_error_bound,
    extract_subspace,
    recover_subspace,
    singular_values,
    solve_dantzig,
    subspace_error,
    truncate_rank_k,
)
from subspace_bandit.sampling import (
    SamplingPlan,
    SamplingSets,
    apply_adjoint,
    apply_operator,
    collect_measurements,
    draw_sampling_sets,
    phase1_target,
)

SEED = 20240817


def random_orthonormal_rows(rng, k, d):
    mat = rng.standard_normal((k, d))
    q, _ = np.linalg.qr(mat.T)
    return q[:, :k].T


# ---------- constraint level ----------


class TestLambda:
    def test_worked_example(self):
        """Reference inputs reproduce the frozen value."""
        lam = compute_lambda(
            c2=1.0,
            epsilon=0.1,
            d=10,
            m_x=20,
            m_phi=100,
            k=1,
            sigma_eff=0.01,
            delta=0.25,
            gamma=3.2,
        )
        assert lam == pytest.approx(287.334735108723, rel=1e-12)

    def test_noiseless_reduces_to_curvature_term(self):
        lam = compute_lambda(2.0, 0.05, 12, 30, 200, 3, 0.0, 0.3, 3.0)
        expect = math.sqrt(1.3) * 2.0 * 0.05 * 12 * 30 * 9 / (2 * math.sqrt(200))
        assert lam == pytest.approx(expect, rel=1e-12)

    def test_noiseless_is_linear_in_epsilon(self):
        base = compute_lambda(1.5, 0.02, 8, 16, 120, 2, 0.0, 0.25, 3.2)
        doubled = compute_lambda(1.5, 0.04, 8, 16, 120, 2, 0.0, 0.25, 3.2)
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_pure_noise_scales_inversely_in_epsilon(self):
        base = compute_lambda(0.0, 0.02, 8, 16, 120, 2, 0.5, 0.25, 3.2)
        doubled = compute_lambda(0.0, 0.04, 8, 16, 120, 2, 0.5, 0.25, 3.2)
        assert doubled == pytest.approx(0.5 * base, rel=1e-12)

    def test_ambient_dimension_enters_when_larger(self):
        # the max(d, m_x) factor sits under the square root of the noise term
        lo = compute_lambda(0.0, 0.1, 16, 16, 100, 1, 1.0, 0.0, 1.0)
        hi = compute_lambda(0.0, 0.1, 64, 16, 100, 1, 1.0, 0.0, 1.0)
        assert hi == pytest.approx(2.0 * lo, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compute_lambda(1.0, 0.0, 10, 20, 100, 1, 0.0, 0.25, 3.2)
        with pytest.raises(ValueError):
            compute_lambda(1.0, 0.1, 10, 20, 100, 1, -0.1, 0.25, 3.2)

    def test_error_bound_matches_expanded_display(self):
        """2*sqrt(C0 k)*lam equals the guarantee written without the factor 2.

        Folding the doubling into the display turns lam's 4*gamma noise
        coefficient into 8*gamma and removes the 1/2 on the curvature piece.
        """
        args = dict(
            c2=1.3, epsilon=0.07, d=14, m_x=25, m_phi=180, k=2,
            sigma_eff=0.03, delta=0.2, gamma=3.1,
        )
        lam = compute_lambda(**args)
        bound = ds_error_bound(lam, k=2, c0=4.0)
        m = max(args["d"], args["m_x"])
        display = (
            math.sqrt(4.0 * 2)
            * math.sqrt(1.2)
            * (
                1.3 * 0.07 * 14 * 25 * 4 / math.sqrt(180)
                + 8 * 3.1 * 0.03 * math.sqrt(25 * 180 * m) / 0.07
            )
        )
        assert bound == pytest.approx(display, rel=1e-12)

    def test_error_bound_simple_value(self):
        assert ds_error_bound(1.0, 1, c0=4.0) == pytest.approx(4.0)
        assert ds_error_bound(2.0, 4, c0=1.0) == pytest.approx(8.0)


# ---------- linear algebra helpers ----------


class TestTruncation:
    def test_eckart_young_beats_random_competitors(self):
        """The truncated SVD is the closest rank-k matrix in Frobenius norm."""
        rng = np.random.default_rng(SEED)
        mat = rng.standard_normal((12, 18))
        best = truncate_rank_k(mat, 3)
        best_dist = np.linalg.norm(mat - best, "fro")
        for _ in range(100):
            left = rng.standard_normal((12, 3))
            right = rng.standard_normal((3, 18))
            competitor = left @ right
            # rescale the competitor onto its own best multiple first
            scale = np.sum(mat * competitor) / max(np.sum(competitor**2), 1e-300)
            dist = np.linalg.norm(mat - scale * competitor, "fro")
            assert best_dist <= dist + 1e-12

    def test_truncation_tail_identity(self):
        rng = np.random.default_rng(SEED + 1)
        mat = rng.standard_normal((9, 14))
        for k in (1, 3, 7):
            part = truncate_rank_k(mat, k)
            total = np.linalg.norm(mat, "fro") ** 2
            kept = np.linalg.norm(part, "fro") ** 2
            tail = np.linalg.norm(mat - part, "fro") ** 2
            assert kept + tail == pytest.approx(total, rel=1e-8)
            assert np.linalg.matrix_rank(part) <= k

    def test_truncation_of_exact_low_rank_is_identity(self):
        rng = np.random.default_rng(SEED + 2)
        mat = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 16))
        np.testing.assert_allclose(truncate_rank_k(mat, 2), mat, atol=1e-10)


class TestSubspaceExtraction:
    def test_recovers_planted_direction(self):
        rng = np.random.default_rng(SEED + 4)
        direction = rng.standard_normal(10)
        direction /= np.linalg.norm(direction)
        coeffs = rng.standard_normal(20)
        basis = extract_subspace(np.outer(direction, coeffs), 1)
        assert basis.shape == (1, 10)
        assert subspace_error(direction[None, :], basis) < 1e-10

    def test_basis_rows_are_orthonormal(self):
        rng = np.random.default_rng(SEED + 5)
        mat = rng.standard_normal((15, 3)) @ rng.standard_normal((3, 25))
        basis = extract_subspace(mat, 3)
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-10)

    def test_sign_convention_is_stable(self):
        # flipping the input sign flips left singular vectors; the fixed sign
        # rule must land on the same basis either way
        rng = np.random.default_rng(SEED + 6)
        mat = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 12))
        np.testing.assert_array_equal(
            extract_subspace(mat, 2), extract_subspace(-mat, 2)
        )

    def test_zero_matrix_is_degenerate(self):
        with pytest.raises(DegenerateRecoveryError, match="degenerate recovery"):
            extract_subspace(np.zeros((5, 7)), 1)

    def test_rank_deficit_is_degenerate(self):
        rng = np.random.default_rng(SEED + 7)
        rank_one = np.outer(rng.standard_normal(6), rng.standard_normal(9))
        with pytest.raises(DegenerateRecoveryError):
            extract_subspace(rank_one, 2)


class TestSubspaceError:
    def test_orthogonal_lines(self):
        """Two perpendicular one-dimensional subspaces sit sqrt(2) apart."""
        a = np.zeros((1, 4))
        b = np.zeros((1, 4))
        a[0, 0] = 1.0
        b[0, 1] = 1.0
        assert subspace_error(a, b) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_identical_subspace_is_zero(self):
        rng = np.random.default_rng(SEED + 8)
        basis = random_orthonormal_rows(rng, 3, 11)
        assert subspace_error(basis, basis) == 0.0

    def test_invariant_under_rotation_within_subspace(self):
        rng = np.random.default_rng(SEED + 9)
        a = random_orthonormal_rows(rng, 3, 11)
        b = random_orthonormal_rows(rng, 3, 11)
        raw = subspace_error(a, b)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            assert subspace_error(a, q @ b) == pytest.approx(raw, abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subspace_error(np.eye(2, 5), np.eye(2, 6))


# ---------- the selector solve ----------


# sketch rows for the planted problems, where d * m_x = 200: the boundary case
# takes the flat path, anything taller the Gram path
SKETCH_ROWS = {"wide": 200, "tall": 300}


def planted_problem(rng, d=10, m_x=20, m_phi=200, lam_rel=1e-6):
    plan = SamplingPlan(m_X=m_x, m_Phi=m_phi, epsilon=0.05)
    sets = draw_sampling_sets(plan, d, rng)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    coeffs = rng.standard_normal(m_x)
    planted = np.outer(direction, coeffs)
    y = apply_operator(sets, planted)
    dual0 = np.linalg.norm(apply_adjoint(sets, y), 2)
    problem = DantzigProblem(y=y, sets=sets, lam=lam_rel * dual0, k=1)
    return problem, planted, direction


class TestSolver:
    def test_zero_targets_give_zero_matrix(self):
        rng = np.random.default_rng(SEED + 10)
        plan = SamplingPlan(m_X=6, m_Phi=30, epsilon=0.1)
        sets = draw_sampling_sets(plan, 5, rng)
        est, info = solve_dantzig(DantzigProblem(np.zeros(30), sets, 0.5, 1))
        assert np.array_equal(est, np.zeros((5, 6)))
        assert info.converged and info.feasible
        assert info.iterations == 0

    def test_large_lambda_gives_zero_matrix(self):
        """Once lam clears the initial dual norm, zero is the solution."""
        rng = np.random.default_rng(SEED + 11)
        plan = SamplingPlan(m_X=8, m_Phi=40, epsilon=0.1)
        sets = draw_sampling_sets(plan, 6, rng)
        y = rng.standard_normal(40)
        dual0 = np.linalg.norm(apply_adjoint(sets, y), 2)
        est, info = solve_dantzig(DantzigProblem(y, sets, dual0, 1))
        assert np.array_equal(est, np.zeros((6, 8)))
        assert info.converged
        assert info.residual_norm == pytest.approx(dual0)

    def test_recovers_planted_rank_one(self):
        """Consistent sketches with a tiny lam reproduce the planted matrix."""
        for label, m_phi in SKETCH_ROWS.items():
            rng = np.random.default_rng(SEED + 12)
            problem, planted, _ = planted_problem(rng, m_phi=m_phi)
            est, info = solve_dantzig(problem)
            rel = np.linalg.norm(est - planted, "fro") / np.linalg.norm(planted, "fro")
            assert rel <= 1e-3, f"{label}: relative recovery error {rel:.2e}"
            assert info.feasible, label
            assert info.residual_norm <= problem.lam * (1 + 1e-6), label

    def test_solver_is_deterministic(self):
        for label, m_phi in SKETCH_ROWS.items():
            rng = np.random.default_rng(SEED + 13)
            problem, _, _ = planted_problem(rng, m_phi=m_phi, lam_rel=1e-3)
            first, _ = solve_dantzig(problem)
            second, _ = solve_dantzig(problem)
            np.testing.assert_array_equal(first, second, err_msg=label)

    def test_feasibility_holds_on_noisy_targets(self):
        for label, m_phi in SKETCH_ROWS.items():
            rng = np.random.default_rng(SEED + 14)
            problem, planted, _ = planted_problem(rng, m_phi=m_phi, lam_rel=1.0)
            noisy = problem.y + 0.05 * rng.standard_normal(problem.y.size)
            dual0 = np.linalg.norm(apply_adjoint(problem.sets, noisy), 2)
            for lam_rel in (0.5, 0.1, 0.02):
                prob = DantzigProblem(noisy, problem.sets, lam_rel * dual0, 1)
                est, info = solve_dantzig(prob)
                assert info.feasible, f"{label}, lam_rel={lam_rel}: {info}"
                assert info.residual_norm <= prob.lam * (1 + 1e-6), label

    def test_smaller_lambda_fits_tighter(self):
        # shrinking the constraint level can only reduce the sketch residual
        for label, m_phi in SKETCH_ROWS.items():
            rng = np.random.default_rng(SEED + 15)
            problem, _, _ = planted_problem(rng, m_phi=m_phi, lam_rel=1.0)
            noisy = problem.y + 0.1 * rng.standard_normal(problem.y.size)
            dual0 = np.linalg.norm(apply_adjoint(problem.sets, noisy), 2)
            resids = []
            for lam_rel in (0.6, 0.2, 0.05):
                prob = DantzigProblem(noisy, problem.sets, lam_rel * dual0, 1)
                est, _ = solve_dantzig(prob)
                resids.append(np.linalg.norm(problem.sets.flat_operator() @ est.ravel() - noisy))
            assert resids[0] >= resids[1] - 1e-9, f"{label}: {resids}"
            assert resids[1] >= resids[2] - 1e-9, f"{label}: {resids}"

    def test_invalid_problem_rejected(self):
        rng = np.random.default_rng(SEED + 16)
        plan = SamplingPlan(m_X=4, m_Phi=12, epsilon=0.1)
        sets = draw_sampling_sets(plan, 3, rng)
        with pytest.raises(ValueError):
            DantzigProblem(np.zeros(12), sets, -1.0, 1)
        with pytest.raises(ValueError):
            DantzigProblem(np.zeros(12), sets, 1.0, 0)


def _forbidden_flat_operator(self):
    raise AssertionError("flat operator built for a tall sketch")


class TestGramForm:
    """A tall sketch (m_Phi > d * m_X) is solved from F^T F and F^T y."""

    # d * m_X = 40: 24 and 40 rows take the flat path, 41 and 120 the Gram path
    @pytest.mark.parametrize("m_phi", [24, 40, 41, 120])
    def test_solver_pieces_match_flat_products(self, m_phi, monkeypatch):
        d, m_x = 5, 8
        rng = np.random.default_rng(SEED + 23 + m_phi)
        sets = draw_sampling_sets(SamplingPlan(m_X=m_x, m_Phi=m_phi, epsilon=0.1), d, rng)
        y = rng.standard_normal(m_phi)
        mat = rng.standard_normal((d, m_x))
        tall = m_phi > d * m_x
        if tall:
            monkeypatch.setattr(SamplingSets, "flat_operator", _forbidden_flat_operator)
        adjoint_y = recovery._sketch_adjoint(sets, y)
        residual, lipschitz = recovery._smooth_part(sets, y, adjoint_y)
        grad = -residual(mat)
        monkeypatch.undo()

        flat = sets.flat_operator()
        pairs = (
            (adjoint_y, flat.T @ y),
            (grad, (flat.T @ (flat @ mat.ravel() - y)).reshape(d, m_x)),
        )
        for got, want in pairs:
            if tall:
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            else:
                # the flat path keeps the flat arithmetic bit for bit
                np.testing.assert_array_equal(got, want)
        norm_sq = np.linalg.norm(flat, 2) ** 2
        if tall:
            assert abs(lipschitz - norm_sq) <= 1e-12 * norm_sq
        else:
            # the flat path pads its eigvalsh estimate upward, by far less
            # than anything that would slow the solve
            assert norm_sq <= lipschitz <= norm_sq * (1.0 + 1e-10)

    # lam_rel = 2 takes the zero-is-feasible exit, 1e-3 the full solve
    @pytest.mark.parametrize("lam_rel, iterates", [(1e-3, True), (2.0, False)])
    def test_tall_solve_never_builds_flat_operator(self, lam_rel, iterates, monkeypatch):
        rng = np.random.default_rng(SEED + 24)
        problem, _, _ = planted_problem(rng, m_phi=SKETCH_ROWS["tall"], lam_rel=lam_rel)
        monkeypatch.setattr(SamplingSets, "flat_operator", _forbidden_flat_operator)
        _, info = solve_dantzig(problem)
        assert info.feasible
        assert (info.iterations > 0) == iterates


def plain_fista(residual, tau, lipschitz, start, max_iters, rel_tol):
    """FISTA without restarts (Beck & Teboulle), the reference for ``_fista``.

    The same prox step and stopping rule as the library loop; only the
    momentum schedule differs: ``t`` grows without ever being reset.
    """
    m_cur = start.copy()
    z = start.copy()
    t = 1.0
    step = 1.0 / lipschitz
    iters = 0
    converged = False
    for iters in range(1, max_iters + 1):
        m_new = recovery._svt(z + step * residual(z), tau * step)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = m_new + ((t - 1.0) / t_new) * (m_new - m_cur)
        change = np.linalg.norm(m_new - m_cur)
        scale = max(1.0, np.linalg.norm(m_new))
        m_cur = m_new
        t = t_new
        if change <= rel_tol * scale:
            converged = True
            break
    return m_cur, iters, converged


class TestRestartMatchesReference:
    """The restarted solver reaches the plain-FISTA solution in fewer steps."""

    def test_restart_fires_on_anisotropic_quadratic(self):
        """0.5 * sum(w * (M - T)^2) with w = (1, 1e-3) and tau = 0.

        With step 1 the stiff entry lands on its target at once, while the
        soft entry's momentum builds up until it overshoots; from then on
        plain FISTA oscillates about the target.  The restart drops the
        momentum at each overshoot, so the restarted loop converges where
        the plain one runs out of iterations.
        """
        weights = np.array([[1.0, 1e-3]])
        target = np.array([[1.0, -2.0]])

        def residual(mat):
            return weights * (target - mat)

        start = np.zeros((1, 2))
        est, iters, converged = recovery._fista(residual, 0.0, 1.0, start, 2000, 1e-10)
        _, ref_iters, ref_converged = plain_fista(residual, 0.0, 1.0, start, 2000, 1e-10)
        assert converged and iters < 1000, iters
        assert not ref_converged and ref_iters == 2000
        np.testing.assert_allclose(est, target, atol=1e-7)

    @pytest.mark.parametrize("label", sorted(SKETCH_ROWS))
    @pytest.mark.parametrize("lam_rel, noise", [(1e-3, 0.0), (0.1, 0.05)])
    def test_planted_solve_against_plain_fista(self, label, lam_rel, noise, monkeypatch):
        """Same continuation, inner loop swapped for the reference.

        Both solves stop on the same feasibility test, so their rank-1
        subspaces agree to solver tolerance: within 1e-5 in projector
        distance (at most 7e-7 seen), against 0.03-0.05 between either and
        the planted direction at the noisy level.
        """
        rng = np.random.default_rng(SEED + 25)
        problem, _, _ = planted_problem(rng, m_phi=SKETCH_ROWS[label], lam_rel=lam_rel)
        if noise:
            noisy = problem.y + noise * rng.standard_normal(problem.y.size)
            dual0 = np.linalg.norm(apply_adjoint(problem.sets, noisy), 2)
            problem = DantzigProblem(noisy, problem.sets, lam_rel * dual0, 1)
        est, info = solve_dantzig(problem)
        monkeypatch.setattr(recovery, "_fista", plain_fista)
        ref, ref_info = solve_dantzig(problem)
        assert info.feasible and ref_info.feasible
        assert info.iterations < ref_info.iterations, (info, ref_info)
        basis = extract_subspace(truncate_rank_k(est, 1), 1)
        ref_basis = extract_subspace(truncate_rank_k(ref, 1), 1)
        assert subspace_error(basis, ref_basis) <= 1e-5


# ---------- end to end against the environment ----------


class TestRecoveryPipeline:
    def test_noiseless_linear_end_to_end(self):
        """sigma=0 linear rewards: the whole phase-1 chain nails the subspace.

        With no noise and no curvature the sketches are exactly consistent,
        so the constraint level can sit at solver scale; anything left over
        is solver tolerance.  (The theory-mode level keeps a curvature
        allowance that a linear instance never uses, and the shrinkage it
        induces is visible: about 2e-2 subspace error at that level.)
        """
        env = make_environment(
            d=10, k=1, family="linear", sigma=0.0, nu=0.05, seed=SEED + 17
        )
        plan = SamplingPlan(m_X=20, m_Phi=300, epsilon=0.05)
        rng = np.random.default_rng(SEED + 18)
        sets = draw_sampling_sets(plan, 10, rng)
        bundle = collect_measurements(env, sets, plan)
        lam = 1e-5 * np.linalg.norm(apply_adjoint(sets, bundle.y), 2)
        problem = DantzigProblem(bundle.y, sets, lam, 1)
        result = recover_subspace(problem, true_basis=env.A)
        assert result.subspace_err <= 1e-2, f"subspace error {result.subspace_err:.2e}"
        assert result.info.feasible
        # the dense estimate should also be close to the true gradient matrix
        target = phase1_target(env, sets)
        rel = np.linalg.norm(result.estimate_rank_k - target, "fro")
        rel /= np.linalg.norm(target, "fro")
        assert rel <= 0.15, f"matrix error {rel:.2e}"

    def test_degradation_is_monotone_in_sketch_count(self):
        """More sketch rows never hurt on noiseless curved rewards (on average)."""
        errs = []
        for m_phi in (50, 150, 450):
            total = 0.0
            for trial in range(10):
                env = make_environment(
                    d=10,
                    k=1,
                    family="norm-squared",
                    sigma=0.0,
                    nu=0.1,
                    seed=SEED + 100 * trial + m_phi,
                )
                plan = SamplingPlan(m_X=15, m_Phi=m_phi, epsilon=0.002)
                rng = np.random.default_rng(SEED + 19 + 7 * trial + m_phi)
                sets = draw_sampling_sets(plan, 10, rng)
                bundle = collect_measurements(env, sets, plan)
                lam = compute_lambda(
                    env.mean.c2, plan.epsilon, 10, 15, m_phi, 1, 0.0, 0.25, 3.2
                )
                result = recover_subspace(
                    DantzigProblem(bundle.y, sets, lam, 1), true_basis=env.A
                )
                total += result.subspace_err
            errs.append(total / 10)
        assert errs[0] + 0.02 >= errs[1], f"means {errs}"
        assert errs[1] + 0.02 >= errs[2], f"means {errs}"

    def test_rank_collapse_raises_through_pipeline(self):
        # a constant reward has zero gradient everywhere, so the selector
        # returns the zero matrix and extraction must refuse it
        env = make_environment(
            d=8, k=1, family="linear", sigma=0.0, nu=0.05, seed=SEED + 20,
            params={"weight": [0.0]},
        )
        plan = SamplingPlan(m_X=10, m_Phi=80, epsilon=0.02)
        rng = np.random.default_rng(SEED + 21)
        sets = draw_sampling_sets(plan, 8, rng)
        bundle = collect_measurements(env, sets, plan)
        with pytest.raises(DegenerateRecoveryError):
            recover_subspace(DantzigProblem(bundle.y, sets, 0.1, 1))

    def test_result_dict_round_trips_to_json(self):
        import json

        rng = np.random.default_rng(SEED + 22)
        problem, _, direction = planted_problem(rng, lam_rel=1e-3)
        result = recover_subspace(problem, true_basis=direction[None, :])
        from subspace_bandit.recovery import result_to_dict

        blob = json.dumps(result_to_dict(result))
        back = json.loads(blob)
        assert back["converged"] is True
        assert back["subspace_err"] == pytest.approx(result.subspace_err)
        assert np.asarray(back["basis"]).shape == (1, 10)
