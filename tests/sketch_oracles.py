"""Reference maps and oracles which only tests need: per-point mean
rewards, batched reward queries, the reward gradient and Hessian, the
sketch's signs as int8 and back to bits, phase 1's forward sketch, the
gradient matrix the measurements are linear in, the closed-form curvature
term and isometry ratios, and the Dantzig solve in numpy (the reference
for the compiled FISTA rounds)."""

import math

import numpy as np

from subspace_bandit.envs import (
    Environment,
    MeanRewardSpec,
    _check_domain,
    _project,
    _query_projections,
    check_points,
    mean_grad,
    mean_value,
)
from subspace_bandit import recovery
from subspace_bandit.recovery import SolveInfo
from subspace_bandit.sampling import SamplingSets


def mean_reward(env: Environment, x: np.ndarray) -> float:
    """Noise-free mean reward at x (no budget charge)."""
    x = _check_domain(env, x)
    return float(mean_value(env.mean, env.A @ x))


def sample_rewards(env: Environment, xs: np.ndarray, repeats: int = 1) -> np.ndarray:
    """Query each row of xs `repeats` times and return the per-point averages.

    All points are validated before any query is made.  Charges
    len(xs) * repeats to the query count.  One standard normal is drawn per
    point, in row order, and scaled by sigma/sqrt(repeats): the distribution
    of the mean of `repeats` noisy rewards, at one draw whatever `repeats`
    is (no draw when sigma = 0).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != env.d:
        raise ValueError(f"xs must have shape (n, {env.d}), got {xs.shape}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    check_points(env, xs)
    return _query_projections(env, _project(env, xs), repeats)[1]


def gradient_mean_reward(env: Environment, x: np.ndarray) -> np.ndarray:
    """Analytic gradient of the mean reward at x: A^T grad g(A x)."""
    x = _check_domain(env, x)
    return env.A.T @ mean_grad(env.mean, env.A @ x)


def mean_hess(spec: MeanRewardSpec, u: np.ndarray) -> np.ndarray:
    """Hessian of g at a single point u, shape (k, k)."""
    u = np.asarray(u, dtype=float).reshape(spec.k)
    if spec.family == "linear":
        return np.zeros((spec.k, spec.k))
    if spec.family == "norm-squared":
        return 2.0 * np.eye(spec.k)
    if spec.family == "centered-quadratic":
        return -2.0 * np.eye(spec.k)
    D = u - spec.params["center"]
    s2 = spec.params["width"] ** 2
    val = np.exp(-float(D @ D) / (2.0 * s2))
    return val * (np.outer(D, D) / s2**2 - np.eye(spec.k) / s2)


def signs_of(sets) -> np.ndarray:
    """The sets' (m_Phi, m_X, d) signs 2b - 1 as int8, unpacked by numpy."""
    count = sets.m_Phi * sets.m_X * sets.d
    signs = np.unpackbits(sets.bits, count=count).view(np.int8)
    signs *= 2
    signs -= 1
    return signs.reshape(sets.m_Phi, sets.m_X, sets.d)


def sets_with_signs(points, signs) -> SamplingSets:
    """Sampling sets whose (m_Phi, m_X, d) +/-1 signs are packed into bits."""
    bits = np.packbits(np.asarray(signs).ravel() > 0)
    return SamplingSets(points=points, bits=bits, m_Phi=signs.shape[0])


def apply_operator(sets, X):
    """Phi(X) = F @ X.ravel() for a (d, m_X) matrix X."""
    return sets.flat_operator() @ np.asarray(X, dtype=float).ravel()


def shifted_points(sets, epsilon):
    """All shifted query points, shape (m_Phi * m_X, d), grouped by direction
    index i (rows i * m_X + j hold x_j + epsilon * phi_{i,j})."""
    return (sets.points + signs_of(sets) * (epsilon * sets.scale)).reshape(-1, sets.d)


def phase1_target(env, sets):
    """The (d, m_X) matrix of mean-reward gradients at the base points."""
    return np.stack([gradient_mean_reward(env, x) for x in sets.points], axis=1)


def second_order_residual(env, sets, epsilon):
    """At sigma = 0, y - Phi(X) equals (epsilon / 2) * sum_j phi^T hess phi,
    exactly for the families with a constant Hessian."""
    assert env.mean.family in ("linear", "norm-squared", "centered-quadratic")
    Hg = mean_hess(env.mean, np.zeros(env.k))
    AD = sets.directions @ env.A.T  # (m_Phi, m_X, k)
    return 0.5 * epsilon * np.einsum("ijk,kl,ijl->i", AD, Hg, AD)


def second_order_bound(plan, d, c2, k):
    """(epsilon / 2) * C2 * k^2 * m_X * (d / m_Phi) bounds that term."""
    return 0.5 * plan.epsilon * c2 * k**2 * plan.m_X * (d / plan.m_Phi)


def rip_ratio_sample(sets, k, trials, rng):
    """(min, max) of ||Phi(X)||^2 / ||X||_F^2 over random rank-k matrices
    X = L @ R with Gaussian factors."""
    rng = np.random.default_rng(rng)
    ratios = []
    for _ in range(trials):
        X = rng.standard_normal((sets.d, k)) @ rng.standard_normal((k, sets.m_X))
        v = apply_operator(sets, X)
        ratios.append(float(v @ v) / float(np.sum(X * X)))
    return min(ratios), max(ratios)


# ---------- the Dantzig solve in numpy ----------


def svt(mat: np.ndarray, thresh: float) -> np.ndarray:
    """Singular value soft-thresholding, the prox of ``thresh * ||.||_*``,
    from numpy's SVD.  The singular values come sorted, so the ones left
    positive are a prefix."""
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    s -= thresh
    r = int(np.count_nonzero(s > 0.0))
    if r == 0:
        return np.zeros_like(mat)
    return (u[:, :r] * s[:r]) @ vt[:r]


def smooth_part(sets: SamplingSets, y: np.ndarray, adjoint_y: np.ndarray):
    """The dual residual ``M -> Phi*(y - Phi(M))`` of ``0.5*||Phi(M) - y||^2``:
    ``adjoint_y - (C @ M) / m_Phi`` for a tall sketch's counts C, else
    products with the flat operator F."""
    shape = (sets.d, sets.m_X)
    if sets.tall:
        counts = sets.gram().astype(float)
        return lambda mat: adjoint_y - (counts @ mat.ravel()).reshape(shape) / sets.m_Phi
    flat = sets.flat_operator()
    return lambda mat: (flat.T @ (y - flat @ mat.ravel())).reshape(shape)


def prox_step(residual, z, r_z, tau, lipschitz):
    """The prox step ``z -> p`` with step 1/L, where ``r_z = residual(z)``.

    Accepted when ``<d, r_z - r_p> = ||Phi(d)||^2 <= L ||d||^2`` for
    ``d = p - z`` (Beck & Teboulle 2009; exact for this quadratic), up to a
    rounding allowance; else L rises to ``max(1.05 L, curvature)`` and the
    step is redone.  Returns ``(p, r_p, d, L, backtracks)``, d flat.
    """
    backtracks = 0
    while True:
        step = 1.0 / lipschitz
        p = svt(z + step * r_z, tau * step)
        r_p = residual(p)
        d = (p - z).ravel()
        d_sq = d.dot(d)
        curvature = d.dot((r_z - r_p).ravel())
        excess = curvature - lipschitz * d_sq
        if excess <= 0.0 or excess <= recovery.STEP_ROUNDING * math.sqrt(d_sq) * (
            np.linalg.norm(r_z) + np.linalg.norm(r_p) + lipschitz * np.linalg.norm(p)
        ):
            return p, r_p, d, lipschitz, backtracks
        lipschitz = max(1.05 * lipschitz, float(curvature / d_sq))
        backtracks += 1


def fista(residual, tau, lipschitz, start, max_iters, rel_tol, prox=prox_step):
    """Accelerated proximal descent for tau*||M||_* + 0.5*||Phi(M) - y||^2.

    ``residual(M)`` is the dual residual, the negative gradient of the
    smooth part, evaluated once per accepted prox step; being affine, it is
    extrapolated to the momentum point z alongside z.  The momentum restarts
    (``t = 1``) whenever the prox step ``d = M_new - z`` points against the
    last move ``M_cur -> M_new`` (O'Donoghue & Candes 2015).  Returns
    ``(M, iterations, converged, L, backtracks)``.
    """
    m_cur = z = start.copy()
    r_cur = r_z = residual(m_cur)
    t = 1.0
    iters = backtracks = 0
    converged = False
    for iters in range(1, max_iters + 1):
        m_new, r_new, d, lipschitz, redone = prox(residual, z, r_z, tau, lipschitz)
        backtracks += redone
        move = m_new - m_cur
        flat = move.ravel()
        if d.dot(flat) < 0.0:
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        z = m_new + beta * move
        r_z = r_new + beta * (r_new - r_cur)
        change = math.sqrt(flat.dot(flat))
        flat = m_new.ravel()
        scale = max(1.0, math.sqrt(flat.dot(flat)))
        m_cur, r_cur = m_new, r_new
        t = t_new
        if change <= rel_tol * scale:
            converged = True
            break
    return m_cur, iters, converged, lipschitz, backtracks


def continuation(problem, inner=fista, lipschitz=1.0):
    """recovery.solve_dantzig's continuation in numpy, each round solved by
    ``inner(residual, tau, L, start, MAX_ITERS, rel_tol)`` (:func:`fista`
    unless given) from the first round's L.  Returns ``(M, SolveInfo)``."""
    sets = problem.sets
    residual = smooth_part(sets, problem.y, problem.adjoint_y)
    dual0_norm = float(np.linalg.norm(problem.adjoint_y, 2))
    tau = 0.9 * dual0_norm
    tau_floor = max(problem.lam * (1.0 - 10.0 * recovery.FEAS_TOL), 0.0)
    tau = max(tau, tau_floor)
    m_cur = np.zeros((sets.d, sets.m_X))
    total_iters = backtracks = outer = 0
    sub_converged = False
    floor_tol = recovery.REL_TOL
    limit = problem.lam * (1.0 + recovery.FEAS_TOL)
    while outer < recovery.MAX_OUTER:
        outer += 1
        at_floor = tau <= tau_floor * (1.0 + 1e-12)
        m_cur, iters, sub_converged, lipschitz, redone = inner(
            residual, tau, lipschitz, m_cur, recovery.MAX_ITERS,
            floor_tol if at_floor else recovery.WARM_TOL,
        )
        total_iters += iters
        backtracks += redone
        if at_floor and np.linalg.norm(residual(m_cur), 2) <= limit:
            break
        if not at_floor:
            tau = max(tau * recovery.TAU_SHRINK, tau_floor)
        else:
            floor_tol = max(floor_tol * 1e-2, 1e-15)
    residual_norm = float(np.linalg.norm(residual(m_cur), 2))
    feasible = residual_norm <= limit
    info = SolveInfo(
        iterations=total_iters, outer_rounds=outer, converged=sub_converged and feasible,
        feasible=feasible, residual_norm=residual_norm, lipschitz=lipschitz, backtracks=backtracks,
    )
    return m_cur, info
