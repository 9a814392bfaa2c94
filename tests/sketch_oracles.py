"""Phase 1's reference maps, which only tests need: the forward sketch, the
gradient matrix the measurements are linear in, the reward Hessian, the
closed-form curvature term and isometry ratios."""

import numpy as np

from subspace_bandit.envs import MeanRewardSpec, gradient_mean_reward


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


def apply_operator(sets, X):
    """Phi(X) = F @ X.ravel() for a (d, m_X) matrix X."""
    return sets.flat_operator() @ np.asarray(X, dtype=float).ravel()


def shifted_points(sets, epsilon):
    """All shifted query points, shape (m_Phi * m_X, d), grouped by direction
    index i (rows i * m_X + j hold x_j + epsilon * phi_{i,j})."""
    return (sets.points + sets.signs * (epsilon * sets.scale)).reshape(-1, sets.d)


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
