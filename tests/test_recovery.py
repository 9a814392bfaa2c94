"""Tests for the Dantzig selector solve and subspace extraction."""

import ctypes
import math

import numpy as np
import pytest

from subspace_bandit import _kernels, recovery
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
    collect_measurements,
    draw_sampling_sets,
)
import sketch_oracles
from sketch_oracles import apply_operator, phase1_target

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["y", "adjoint_y"])
    def test_non_finite_targets_rejected(self, name, bad):
        """A non-finite y, or a given Phi^*(y), is refused by name before any
        solve, so the compiled rounds never see one."""
        rng = np.random.default_rng(SEED + 16)
        sets = draw_sampling_sets(SamplingPlan(m_X=4, m_Phi=12, epsilon=0.1), 3, rng)
        y = rng.standard_normal(12)
        adjoint_y = apply_adjoint(sets, y)
        (y if name == "y" else adjoint_y)[1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            DantzigProblem(y, sets, 0.1, 1, adjoint_y=adjoint_y)

    def test_adjoint_of_the_wrong_shape_rejected(self):
        rng = np.random.default_rng(SEED + 16)
        sets = draw_sampling_sets(SamplingPlan(m_X=4, m_Phi=12, epsilon=0.1), 3, rng)
        with pytest.raises(ValueError, match=r"adjoint_y must have shape \(3, 4\)"):
            DantzigProblem(np.zeros(12), sets, 0.1, 1, adjoint_y=np.zeros((4, 3)))


def lane_sums(mat, x):
    """mat @ x summed as the kernels sum: each row in 8 lanes, lane q % 8 in
    ascending q, the lanes added as ((0+1)+(2+3))+((4+5)+(6+7)), each step
    one rounded numpy float64 operation."""
    lanes = np.zeros((mat.shape[0], 8))
    for q in range(0, x.size, 8):
        part = mat[:, q : q + 8].astype(float) * x[q : q + 8]
        lanes[:, : part.shape[1]] += part
    s = lanes.T
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))


def _forbidden_flat_operator(self):
    raise AssertionError("flat operator built for a tall sketch")


class TestGramForm:
    """A tall sketch (m_Phi > d * m_X) is solved from F^T F and F^T y."""

    # d * m_X = 40: 24 and 40 rows take the flat path, 41 and 120 the Gram path
    @pytest.mark.parametrize("m_phi", [24, 40, 41, 120])
    def test_solver_pieces_match_flat_products(self, m_phi, monkeypatch):
        """After one compiled step the round's r is Phi^*(y - Phi(m)) at its
        iterate: bit for bit in the fixed order of the C sums (tall: from
        the Gram counts, never building F; wide: F m in 8 lanes, then F^T u
        row by row), and to 1e-12 of numpy's flat products."""
        d, m_x = 5, 8
        rng = np.random.default_rng(SEED + 23 + m_phi)
        sets = draw_sampling_sets(SamplingPlan(m_X=m_x, m_Phi=m_phi, epsilon=0.1), d, rng)
        y = rng.standard_normal(m_phi)
        tall = m_phi > d * m_x
        if tall:
            monkeypatch.setattr(SamplingSets, "flat_operator", _forbidden_flat_operator)
        assert sets.tall == tall
        problem = DantzigProblem(y, sets, 0.1, 1)
        rounds = recovery._FistaRounds(problem)
        rounds.m[...] = rng.standard_normal((d, m_x))
        tau = 0.5 * np.linalg.norm(problem.adjoint_y, 2)
        assert rounds(tau, 1.0, 0.0, max_iters=1)[0] == 1
        monkeypatch.undo()

        m = rounds.m.ravel()
        flat = sets.flat_operator()
        if tall:
            ordered = problem.adjoint_y.ravel() - lane_sums(sets.gram(), m) / m_phi
        else:
            u = y - lane_sums(flat, m)
            ordered = np.zeros(d * m_x)
            for i in range(m_phi):
                ordered = ordered + flat[i] * u[i]
        assert np.array_equal(rounds.r.ravel().view(np.int64), ordered.view(np.int64))
        # Phi^*(y) is summed over sign chunks on either shape
        pairs = (
            (problem.adjoint_y, (flat.T @ y).reshape(d, m_x)),
            (rounds.r, (flat.T @ (y - flat @ m)).reshape(d, m_x)),
        )
        for got, want in pairs:
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_product_sums_in_its_fixed_lane_order(self):
        """gram_product gives the bits of its fixed order on every processor:
        each row summed in 8 lanes, lane q % 8 in ascending q, the lanes
        added as ((0+1)+(2+3))+((4+5)+(6+7)).  numpy's elementwise float64
        steps round each one exactly so, at every width (multiples of 8 or
        not); the product also agrees with numpy's matmul to 1e-14 relative."""
        library = _kernels.load()
        rng = np.random.default_rng(SEED + 40)
        all_counts = rng.integers(-6000, 6001, (900, 900), dtype=np.int32)
        all_x = rng.standard_normal(900)
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        for width in [*range(1, 70), *range(70, 900, 29), 899, 900]:
            counts = np.ascontiguousarray(all_counts[:width, :width])
            x = all_x[:width].copy()
            out = np.full(width, np.nan)
            library.gram_product(ptr(counts.ctypes.data), ptr(x.ctypes.data), i64(width), ptr(out.ctypes.data))
            assert np.array_equal(out.view(np.int64), lane_sums(counts, x).view(np.int64)), width
            want = counts.astype(float) @ x
            assert np.linalg.norm(out - want) <= 1e-14 * np.linalg.norm(want), width

    # lam_rel = 2 takes the zero-is-feasible exit, 1e-3 the full solve
    @pytest.mark.parametrize("lam_rel, iterates", [(1e-3, True), (2.0, False)])
    def test_tall_solve_never_builds_flat_operator(self, lam_rel, iterates, monkeypatch):
        rng = np.random.default_rng(SEED + 24)
        problem, _, _ = planted_problem(rng, m_phi=SKETCH_ROWS["tall"], lam_rel=lam_rel)
        monkeypatch.setattr(SamplingSets, "flat_operator", _forbidden_flat_operator)
        _, info = solve_dantzig(problem)
        assert info.feasible
        assert (info.iterations > 0) == iterates


def compiled_svt(mat, thresh, max_steps=None):
    """svt of _kernels.c on mat, and its status (0 when it converged)."""
    mat = np.ascontiguousarray(mat, dtype=float)
    out = np.full_like(mat, np.nan)
    steps = 30 * min(mat.shape) if max_steps is None else max_steps
    status = _kernels.load().svt(mat.shape[0], mat.shape[1], mat.ctypes.data, thresh, steps, out.ctypes.data)
    return out, status


def low_rank(rng, rows, cols, rank):
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


class TestSvtKernel:
    """The compiled prox of ``thresh * ||.||_*`` (Golub-Kahan
    bidiagonalization and implicit-shift QR, right vectors only) against
    numpy's SVD."""

    @pytest.mark.parametrize(
        "rows, cols", [(12, 12), (10, 30), (30, 10), (30, 30), (1, 7), (7, 1), (1, 1), (3, 5)]
    )
    @pytest.mark.parametrize("kind", ["full", "rank-deficient", "clustered"])
    def test_agrees_with_numpy(self, rows, cols, kind):
        """At thresholds across the spectrum, from none kept to all kept,
        the result is numpy's to 1e-12 relative to the input."""
        rng = np.random.default_rng(SEED + 50 + 7 * rows + cols)
        for trial in range(8):
            if kind == "full":
                mat = rng.standard_normal((rows, cols))
            elif kind == "rank-deficient":
                mat = low_rank(rng, rows, cols, max(1, min(rows, cols) // 3))
            else:  # singular values in two clusters 1e-9 apart
                u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
                v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
                s = np.ones(min(rows, cols))
                s[::2] += 1e-9
                mat = (u[:, : s.size] * s) @ v[:, : s.size].T
            mat *= 10.0 ** (trial - 4)
            spectrum = np.linalg.svd(mat, compute_uv=False)
            for thresh in (0.0, 0.5 * spectrum[0], 0.99 * spectrum[-1], float(np.median(spectrum))):
                got, status = compiled_svt(mat, thresh)
                want = sketch_oracles.svt(mat, thresh)
                assert status == 0
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(mat), (trial, thresh)

    @pytest.mark.parametrize("rows, cols", [(12, 12), (10, 30), (30, 10), (1, 7)])
    def test_threshold_extremes(self, rows, cols):
        """A threshold above the top singular value gives exactly zero,
        a zero threshold gives the input back, and a zero input gives zero."""
        rng = np.random.default_rng(SEED + 51)
        mat = rng.standard_normal((rows, cols))
        top = np.linalg.svd(mat, compute_uv=False)[0]
        for thresh in (1.01 * top, 1e300):
            got, status = compiled_svt(mat, thresh)
            assert status == 0 and np.array_equal(got, np.zeros_like(mat))
        got, status = compiled_svt(mat, 0.0)
        assert status == 0 and np.linalg.norm(got - mat) <= 1e-12 * np.linalg.norm(mat)
        got, status = compiled_svt(np.zeros((rows, cols)), 0.0)
        assert status == 0 and np.array_equal(got, np.zeros((rows, cols)))

    def test_no_convergence_is_an_error_not_a_hang(self):
        """A QR iteration cut off before convergence, and a non-finite input,
        which could never converge, each return -1 at once."""
        rng = np.random.default_rng(SEED + 52)
        mat = rng.standard_normal((6, 6))
        assert compiled_svt(mat, 0.1)[1] == 0
        assert compiled_svt(mat, 0.1, max_steps=0)[1] == -1
        for bad in (np.nan, np.inf):
            mat[2, 3] = bad
            assert compiled_svt(mat, 0.1)[1] == -1


def plain_fista(residual, tau, lipschitz, start, max_iters, rel_tol):
    """FISTA without restarts (Beck & Teboulle), against the restarted loop.

    The same prox step and stopping rule as the library loop, with the fixed
    step ``1 / lipschitz``: no backtracking, and ``t`` grows without ever
    being reset.  Returns what ``sketch_oracles.fista`` returns, with no
    backtracks.
    """
    m_cur = start.copy()
    z = start.copy()
    t = 1.0
    step = 1.0 / lipschitz
    iters = 0
    converged = False
    for iters in range(1, max_iters + 1):
        m_new = sketch_oracles.svt(z + step * residual(z), tau * step)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = m_new + ((t - 1.0) / t_new) * (m_new - m_cur)
        change = np.linalg.norm(m_new - m_cur)
        scale = max(1.0, np.linalg.norm(m_new))
        m_cur = m_new
        t = t_new
        if change <= rel_tol * scale:
            converged = True
            break
    return m_cur, iters, converged, lipschitz, 0


def noisy_planted_problem(label, seed, lam_rel=0.1, noise=0.05):
    rng = np.random.default_rng(seed)
    problem, _, _ = planted_problem(rng, m_phi=SKETCH_ROWS[label], lam_rel=lam_rel)
    if not noise:
        return problem
    noisy = problem.y + noise * rng.standard_normal(problem.y.size)
    dual0 = np.linalg.norm(apply_adjoint(problem.sets, noisy), 2)
    return DantzigProblem(noisy, problem.sets, lam_rel * dual0, 1)


class TestCompiledRounds:
    """Each continuation round is one call of fista_round in _kernels.c,
    whose reference is sketch_oracles.fista: the same steps in numpy."""

    @pytest.mark.parametrize("label", sorted(SKETCH_ROWS))
    @pytest.mark.parametrize("lipschitz", [1.0, 0.01, 100.0])
    def test_round_matches_the_reference(self, label, lipschitz):
        """From a warm start and from L = 1, 0.01 (every first step
        backtracks) or 100 (none does): the same steps, backtracks and stop,
        and iterate, residual and L within 1e-10 relative."""
        problem = noisy_planted_problem(label, SEED + 30)
        sets = problem.sets
        residual = sketch_oracles.smooth_part(sets, problem.y, problem.adjoint_y)
        rng = np.random.default_rng(SEED + 31)
        start = 0.1 * low_rank(rng, sets.d, sets.m_X, 1)
        tau = 0.3 * np.linalg.norm(problem.adjoint_y, 2)
        for max_iters, rel_tol in ((5000, recovery.WARM_TOL), (5000, 1e-9), (7, 1e-9)):
            rounds = recovery._FistaRounds(problem)
            rounds.m[...] = start
            iters, converged, lip, backtracks = rounds(tau, lipschitz, rel_tol, max_iters)
            want, *counts = sketch_oracles.fista(residual, tau, lipschitz, start, max_iters, rel_tol)
            assert [iters, converged, backtracks] == [counts[0], counts[1], counts[3]]
            assert converged == (iters < max_iters)
            assert backtracks > 0 if lipschitz < 1.0 else lipschitz == 1.0 or backtracks == 0
            assert abs(lip - counts[2]) <= 1e-10 * counts[2]
            assert np.linalg.norm(rounds.m - want) <= 1e-10 * np.linalg.norm(want)
            r_want = residual(want)
            assert np.linalg.norm(rounds.r - r_want) <= 1e-10 * np.linalg.norm(r_want)

    @pytest.mark.parametrize("label", sorted(SKETCH_ROWS))
    @pytest.mark.parametrize("lam_rel, noise", [(1e-3, 0.0), (0.1, 0.05)])
    def test_solve_matches_the_reference_continuation(self, label, lam_rel, noise):
        """solve_dantzig against sketch_oracles.continuation: the same
        rounds, steps and backtracks, and the same iterate to 1e-10."""
        problem = noisy_planted_problem(label, SEED + 25, lam_rel, noise)
        est, info = solve_dantzig(problem)
        ref, ref_info = sketch_oracles.continuation(problem)
        assert info.feasible and ref_info.feasible
        counts = ("iterations", "outer_rounds", "backtracks", "converged")
        assert [getattr(info, c) for c in counts] == [getattr(ref_info, c) for c in counts]
        assert np.linalg.norm(est - ref) <= 1e-10 * np.linalg.norm(ref)
        assert abs(info.lipschitz - ref_info.lipschitz) <= 1e-10 * ref_info.lipschitz
        assert abs(info.residual_norm - ref_info.residual_norm) <= 1e-10 * ref_info.residual_norm

    @pytest.mark.parametrize("label", sorted(SKETCH_ROWS))
    def test_one_library_call_per_round(self, label, monkeypatch):
        library = _kernels.load()
        real = library.fista_round
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(library, "fista_round", spy)
        _, info = solve_dantzig(noisy_planted_problem(label, SEED + 32))
        assert info.feasible and len(calls) == info.outer_rounds > 1

    def test_failed_round_is_a_runtime_error(self):
        """A round whose thresholding fails (here on a non-finite start, which
        no problem can produce) raises, naming the step."""
        rounds = recovery._FistaRounds(noisy_planted_problem("wide", SEED + 33))
        rounds.m[0, 0] = np.nan
        with pytest.raises(RuntimeError, match="singular value thresholding step failed"):
            rounds(1.0, 1.0, 1e-7)


class TestRestartMatchesReference:
    """The restarted solver reaches the plain-FISTA solution in fewer steps."""

    def test_restart_fires_on_anisotropic_quadratic(self):
        """0.5 * sum(w * (M - T)^2) with w = (1, 1e-3) and tau = 0, on the
        reference loop (the compiled one follows it step for step, see
        TestCompiledRounds).

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
        est, iters, converged, _, _ = sketch_oracles.fista(residual, 0.0, 1.0, start, 2000, 1e-10)
        _, ref_iters, ref_converged, _, _ = plain_fista(residual, 0.0, 1.0, start, 2000, 1e-10)
        assert converged and iters < 1000, iters
        assert not ref_converged and ref_iters == 2000
        np.testing.assert_allclose(est, target, atol=1e-7)

    @pytest.mark.parametrize("label", sorted(SKETCH_ROWS))
    @pytest.mark.parametrize("lam_rel, noise", [(1e-3, 0.0), (0.1, 0.05)])
    def test_planted_solve_against_plain_fista(self, label, lam_rel, noise):
        """The same continuation with its rounds solved by the reference,
        which steps by the exact ``1 / ||F||_2^2``.

        Both solves stop on the same feasibility test, so their rank-1
        subspaces agree to solver tolerance: within 1e-5 in projector
        distance (at most 7e-7 seen), against 0.03-0.05 between either and
        the planted direction at the noisy level.
        """
        problem = noisy_planted_problem(label, SEED + 25, lam_rel, noise)
        est, info = solve_dantzig(problem)
        norm_sq = np.linalg.norm(problem.sets.flat_operator(), 2) ** 2

        def fixed_step(residual, tau, _, *rest):
            return plain_fista(residual, tau, norm_sq, *rest)

        ref, ref_info = sketch_oracles.continuation(problem, inner=fixed_step)
        assert info.feasible and ref_info.feasible
        assert info.iterations < ref_info.iterations, (info, ref_info)
        basis = extract_subspace(truncate_rank_k(est, 1), 1)
        ref_basis = extract_subspace(truncate_rank_k(ref, 1), 1)
        assert subspace_error(basis, ref_basis) <= 1e-5


def spy_on_rounds(monkeypatch, factor=1.0):
    """Record what solve_dantzig hands each compiled round, as
    ``(tau, L, rel_tol)``, and scale the first round's L by factor."""
    call = recovery._FistaRounds.__call__
    handed = []

    def spy(self, tau, lipschitz, rel_tol, *rest):
        handed.append((tau, lipschitz, rel_tol))
        if len(handed) == 1:
            lipschitz *= factor
        return call(self, tau, lipschitz, rel_tol, *rest)

    monkeypatch.setattr(recovery._FistaRounds, "__call__", spy)
    return handed


def rank_one_basis(mat):
    return extract_subspace(truncate_rank_k(mat, 1), 1)


class TestStepRule:
    """FISTA steps by 1/L: L starts at 1, the exact curvature along every
    coordinate, and the backtracking test raises it wherever a step shows
    more curvature."""

    @pytest.mark.parametrize("label", sorted(SKETCH_ROWS))
    def test_start_at_one_and_never_fall(self, label, monkeypatch):
        problem = noisy_planted_problem(label, SEED + 26)
        sets = problem.sets
        rounds = spy_on_rounds(monkeypatch)
        _, info = solve_dantzig(problem)
        handed = [lip for _, lip, _ in rounds]
        assert info.feasible and len(handed) == info.outer_rounds > 1
        assert handed[0] == 1.0
        assert handed == sorted(handed) and info.lipschitz >= handed[-1]
        # 1 is the diagonal of G = F^T F for any +/-1/sqrt(m_Phi) sketch:
        # the counts S^T S have m_Phi there
        assert np.array_equal(np.diag(sets.gram()), np.full(sets.d * sets.m_X, sets.m_Phi))
        flat = sets.flat_operator()
        np.testing.assert_allclose(np.einsum("ij,ij->j", flat, flat), 1.0, rtol=1e-14)

    @pytest.mark.parametrize("label", sorted(SKETCH_ROWS))
    def test_too_small_start_backtracks_to_the_same_solution(self, label, monkeypatch):
        """From L = 0.01, the first steps overshoot.  The test raises L and
        the solve lands where the default one does.  On the reference
        continuation, which the compiled rounds follow step for step from
        that L, every accepted step satisfies the test on the exact
        curvature ``||F d||^2`` (within the stated rounding allowance), and L
        never falls between steps."""
        problem = noisy_planted_problem(label, SEED + 27)
        ref, ref_info = solve_dantzig(problem)
        handed = spy_on_rounds(monkeypatch, 0.01)
        est, info = solve_dantzig(problem)
        assert info.feasible and ref_info.feasible
        assert handed[0][1] == 1.0
        assert info.backtracks >= 1 and info.lipschitz > 0.01
        assert subspace_error(rank_one_basis(est), rank_one_basis(ref)) <= 1e-5

        steps = []

        def prox(residual, z, r_z, tau, lipschitz):
            out = sketch_oracles.prox_step(residual, z, r_z, tau, lipschitz)
            steps.append((z, r_z, lipschitz, out))
            return out

        def inner(*args):
            return sketch_oracles.fista(*args, prox=prox)

        oracle, oracle_info = sketch_oracles.continuation(problem, inner, lipschitz=0.01)
        assert (oracle_info.iterations, oracle_info.backtracks) == (info.iterations, info.backtracks)
        assert np.linalg.norm(est - oracle) <= 1e-10 * np.linalg.norm(oracle)
        assert info.backtracks == sum(out[4] for *_, out in steps)
        flat = problem.sets.flat_operator()
        previous = 0.01
        for z, r_z, given, (p, r_p, d, lipschitz, _) in steps:
            assert previous <= given <= lipschitz
            previous = lipschitz
            assert np.array_equal(d, (p - z).ravel())
            fd = flat @ d
            norms = np.linalg.norm(r_z) + np.linalg.norm(r_p) + lipschitz * np.linalg.norm(p)
            allowance = recovery.STEP_ROUNDING * np.linalg.norm(d) * norms
            assert fd @ fd <= lipschitz * (d @ d) * (1.0 + 1e-9) + allowance

    @pytest.mark.parametrize("label", sorted(SKETCH_ROWS))
    def test_too_large_start_stays_feasible(self, label, monkeypatch):
        """From L = 100, above ||F||_2^2, every step is short: none is redone,
        L never moves, and the solve still reaches the constraint."""
        problem = noisy_planted_problem(label, SEED + 28)
        assert np.linalg.norm(problem.sets.flat_operator(), 2) ** 2 < 100.0
        handed = spy_on_rounds(monkeypatch, 100.0)
        _, info = solve_dantzig(problem)
        assert info.feasible and handed[0][1] == 1.0
        assert info.backtracks == 0 and info.lipschitz == 100.0 * handed[0][1]


class TestWarmStartRounds:
    """Continuation rounds above the final weight only warm-start the next,
    so they stop at WARM_TOL; the final weight's rounds keep REL_TOL."""

    @pytest.mark.parametrize("label", sorted(SKETCH_ROWS))
    @pytest.mark.parametrize("lam_rel, noise", [(1e-3, 0.0), (0.1, 0.05)])
    def test_loose_warm_starts_land_on_the_tight_solution(self, label, lam_rel, noise, monkeypatch):
        problem = noisy_planted_problem(label, SEED + 29, lam_rel, noise)
        handed = spy_on_rounds(monkeypatch)
        est, info = solve_dantzig(problem)
        final_tau = handed[-1][0]
        assert handed[0][2] == recovery.WARM_TOL > recovery.REL_TOL
        for tau, _, rel_tol in handed:
            assert (rel_tol == recovery.WARM_TOL) == (tau > final_tau)
        assert any(rel_tol == recovery.REL_TOL for *_, rel_tol in handed)

        monkeypatch.setattr(recovery, "WARM_TOL", recovery.REL_TOL)
        ref, ref_info = solve_dantzig(problem)
        assert info.feasible and ref_info.feasible
        assert info.iterations < ref_info.iterations, (info, ref_info)
        assert np.linalg.norm(est - ref) <= 1e-6 * np.linalg.norm(ref)


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
        # the rank-1 selector solution should also be close to the true gradient matrix
        target = phase1_target(env, sets)
        rel = np.linalg.norm(truncate_rank_k(solve_dantzig(problem)[0], 1) - target, "fro")
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

    def test_rank_collapse_returns_no_basis(self):
        # a constant reward has zero gradient everywhere, so the selector
        # returns the zero matrix, which extraction refuses
        env = make_environment(
            d=8, k=1, family="linear", sigma=0.0, nu=0.05, seed=SEED + 20,
            params={"weight": [0.0]},
        )
        plan = SamplingPlan(m_X=10, m_Phi=80, epsilon=0.02)
        rng = np.random.default_rng(SEED + 21)
        sets = draw_sampling_sets(plan, 8, rng)
        bundle = collect_measurements(env, sets, plan)
        result = recover_subspace(DantzigProblem(bundle.y, sets, 0.1, 1), true_basis=env.A)
        assert result.basis is None and result.subspace_err is None
        assert "degenerate recovery" in result.abort_reason
        assert result.info.feasible and result.info.iterations == 0

    def test_result_dict_round_trips_to_json(self):
        import json

        rng = np.random.default_rng(SEED + 22)
        problem, _, direction = planted_problem(rng, lam_rel=1e-3)
        result = recover_subspace(problem, true_basis=direction[None, :])
        from subspace_bandit.recovery import result_to_dict

        back = json.loads(json.dumps(result_to_dict(result)))
        assert len(back) == 8 and back["converged"] is True
        assert back["spectrum"] == result.spectrum.tolist()
