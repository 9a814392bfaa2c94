"""Reference maps and oracles which only tests need: per-point mean
rewards, batched reward queries, the reward gradient and Hessian, the
sketch's signs as int8 and back to bits, phase 1's forward sketch, the
gradient matrix the measurements are linear in, the closed-form curvature
term and isometry ratios."""

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
