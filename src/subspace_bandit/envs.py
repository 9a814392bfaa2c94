"""Reward environments.

Mean rewards depend on a d-dimensional action only through k linear
combinations of its coordinates: r(x) = g(A x) + noise, where A is a
k x d matrix with orthonormal rows and g is one of a few smooth families
on the k-dimensional ball of radius 1 + nu.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .util import check_number, uniform_sphere

ROW_ORTHO_TOL = 1e-10  # ||A A^T - I||_F allowed in a LinearParamMatrix
# Absolute slack on the domain check; guards against float dust from e.g.
# x = (1+nu) * unit_vector, never against genuine violations.
DOMAIN_SLACK = 1e-9

FAMILIES = ("linear", "norm-squared", "centered-quadratic", "gaussian-bump")
# the parameters each family takes
FAMILY_PARAMS = {
    "linear": ("weight",),
    "norm-squared": (),
    "centered-quadratic": ("center",),
    "gaussian-bump": ("center", "width"),
}


class DomainError(ValueError):
    """Raised when a query point leaves the action ball of radius 1 + nu."""


# ---------- mean reward families ----------


@dataclass(frozen=True)
class MeanRewardSpec:
    """A smooth mean-reward family on B_k(1 + nu).

    c2 is an analytic upper bound on |g|, all first partials and all second
    partials over the domain.  closed_form_opt stores (optimal value, an
    argmax in R^k), derived independently of the optimum oracles so tests
    can check them against it.
    """

    family: str
    k: int
    nu: float
    params: dict
    c2: float
    closed_form_opt: Optional[tuple] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


def _param_vector(params: dict, key: str, k: int, default: np.ndarray) -> np.ndarray:
    """params[key] as a float (k,) vector: a list of k finite real numbers."""
    if key not in params:
        return default
    value = params[key]
    entries = value.tolist() if isinstance(value, np.ndarray) else value
    if not (
        isinstance(entries, (list, tuple))
        and len(entries) == k
        and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
            for v in entries
        )
    ):
        raise ValueError(f"params.{key} must be a list of k = {k} finite real numbers, got {value!r}")
    return np.asarray(entries, dtype=float)


def _as_center(params: dict, k: int) -> np.ndarray:
    c = _param_vector(params, "center", k, np.zeros(k))
    if np.linalg.norm(c) > 1.0 + 1e-12:
        raise ValueError(f"center must lie in the unit ball, got norm {np.linalg.norm(c):.6g}")
    return c


def mean_spec(family: str, k: int, nu: float, params: Optional[dict] = None) -> MeanRewardSpec:
    """Build a MeanRewardSpec with its analytic smoothness constant.

    Parameters
    ----------
    family : one of "linear", "norm-squared", "centered-quadratic",
        "gaussian-bump".
    k : subspace dimension.
    nu : domain margin; the mean reward is defined on B_k(1 + nu).
    params : family parameters, each optional (FAMILY_PARAMS). linear:
        {"weight": (k,)}; centered-quadratic and gaussian-bump: {"center":
        (k,)} with norm <= 1; gaussian-bump additionally {"width": s > 0}.
        Any other key, or a value that is not made of real numbers, raises
        a ValueError naming the key.
    """
    if not (math.isfinite(nu) and nu >= 0):
        raise ValueError(f"nu must be finite and >= 0, got {nu}")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if params is not None and not isinstance(params, dict):
        raise ValueError(f"params must be an object, got {params!r}")
    params = dict(params or {})
    unknown = sorted(set(params) - set(FAMILY_PARAMS[family]))
    if unknown:
        raise ValueError(
            f"params.{unknown[0]} is not a parameter of family {family!r}, which takes "
            f"{list(FAMILY_PARAMS[family]) or 'none'}"
        )
    radius = 1.0 + nu

    if family == "linear":
        w = _param_vector(params, "weight", k, np.eye(1, k, 0).ravel())
        params["weight"] = w
        wnorm = float(np.linalg.norm(w))
        c2 = max(wnorm * radius, float(np.max(np.abs(w))) if k else 0.0)
        if wnorm > 0:
            opt = (wnorm * radius, radius * w / wnorm)
        else:
            opt = (0.0, np.zeros(k))
    elif family == "norm-squared":
        c2 = max(radius**2, 2.0 * radius, 2.0)
        u_star = np.zeros(k)
        u_star[0] = radius
        opt = (radius**2, u_star)
    elif family == "centered-quadratic":
        c = _as_center(params, k)
        params["center"] = c
        reach = radius + float(np.linalg.norm(c))
        c2 = max(1.0, reach**2 - 1.0, 2.0 * reach, 2.0)
        opt = (1.0, c.copy())
    elif family == "gaussian-bump":
        c = _as_center(params, k)
        width = params.get("width", 0.5)
        check_number("params.width", width, integer=False)
        width = float(width)
        if not (math.isfinite(width) and width > 0):
            raise ValueError(f"params.width must be finite and > 0, got {width}")
        params["center"] = c
        params["width"] = width
        c2 = max(1.0, np.exp(-0.5) / width, 1.0 / width**2)
        opt = (1.0, c.copy())

    return MeanRewardSpec(family=family, k=k, nu=float(nu), params=params, c2=float(c2), closed_form_opt=opt)


def mean_value(spec: MeanRewardSpec, u: np.ndarray):
    """Evaluate g at u, shape (k,) or batched (n, k).

    Each row of a batch is evaluated exactly as that row on its own, so
    batched means equal the per-point ones bit for bit.
    """
    u = np.asarray(u, dtype=float)
    single = u.ndim == 1
    U = np.atleast_2d(u)
    if spec.family == "linear":
        # one vector product per row: a matrix-vector product rounds rows
        # differently from a single row's product
        out = np.matmul(U[:, None, :], spec.params["weight"])[:, 0]
    elif spec.family == "norm-squared":
        out = np.einsum("ij,ij->i", U, U)
    elif spec.family == "centered-quadratic":
        D = U - spec.params["center"]
        out = 1.0 - np.einsum("ij,ij->i", D, D)
    else:
        D = U - spec.params["center"]
        s2 = spec.params["width"] ** 2
        out = np.exp(-np.einsum("ij,ij->i", D, D) / (2.0 * s2))
    return float(out[0]) if single else out


def mean_grad(spec: MeanRewardSpec, u: np.ndarray):
    """Gradient of g at u, shape (k,) or batched (n, k)."""
    u = np.asarray(u, dtype=float)
    single = u.ndim == 1
    U = np.atleast_2d(u)
    if spec.family == "linear":
        out = np.broadcast_to(spec.params["weight"], U.shape).copy()
    elif spec.family == "norm-squared":
        out = 2.0 * U
    elif spec.family == "centered-quadratic":
        out = -2.0 * (U - spec.params["center"])
    else:
        D = U - spec.params["center"]
        s2 = spec.params["width"] ** 2
        vals = np.exp(-np.einsum("ij,ij->i", D, D) / (2.0 * s2))
        out = -D / s2 * vals[:, None]
    return out[0] if single else out


# ---------- linear parameter matrix ----------


def check_row_orthonormal(A, tol: float) -> np.ndarray:
    """A as a float (k, d) matrix with k <= d and ||A A^T - I||_F <= tol.

    Raises ValueError otherwise (a NaN deviation fails too).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {A.shape}")
    k, d = A.shape
    if k > d:
        raise ValueError(f"need k <= d, got shape {A.shape}")
    gram_dev = np.linalg.norm(A @ A.T - np.eye(k))
    if not gram_dev <= tol:
        raise ValueError(f"rows are not orthonormal: ||A A^T - I||_F = {gram_dev:.3e} > {tol:g}")
    return A


@dataclass(frozen=True)
class LinearParamMatrix:
    """A k x d matrix with orthonormal rows (A A^T = I_k)."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", check_row_orthonormal(self.matrix, ROW_ORTHO_TOL))

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


def make_row_orthonormal(M: np.ndarray) -> LinearParamMatrix:
    """An orthonormal basis of the row space of M, as rows (via SVD).

    Each row's sign is fixed so its largest-magnitude entry is positive.
    Raises if rank(M) < number of rows.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {M.shape}")
    k, d = M.shape
    if k > d:
        raise ValueError(f"need k <= d, got shape {M.shape}")
    _, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s[-1] <= 1e-12 * max(1.0, s[0]):
        raise ValueError(f"rank < k: smallest singular value {s[-1]:.3e} (k = {k})")
    Q = Vt[:k]
    for i in range(k):
        j = int(np.argmax(np.abs(Q[i])))
        if Q[i, j] < 0:
            Q[i] = -Q[i]
    return LinearParamMatrix(Q)


# ---------- environment ----------


@dataclass
class Environment:
    """A reward oracle with query accounting.

    Every sampled reward increments query_count by exactly one.  Mean-reward
    evaluations (mean_value, optimal_value) are free: they are oracles for
    analysis, not actions.
    """

    param_matrix: LinearParamMatrix
    mean: MeanRewardSpec
    sigma: float
    nu: float
    seed: int
    rng: np.random.Generator = field(repr=False)
    query_count: int = 0

    @property
    def A(self) -> np.ndarray:
        return self.param_matrix.matrix

    @property
    def d(self) -> int:
        return self.param_matrix.d

    @property
    def k(self) -> int:
        return self.param_matrix.k


def make_environment(
    d: int,
    k: int,
    family: str,
    sigma: float = 0.0,
    nu: float = 0.1,
    seed: int = 0,
    params: Optional[dict] = None,
) -> Environment:
    """Construct an environment.  The seed sets everything random: A is the
    row-orthonormalized Gaussian draw of its first stream, and rewards draw
    their noise from the second."""
    check_number("d", d, integer=True)
    check_number("k", k, integer=True)
    check_number("sigma", sigma, integer=False)
    check_number("nu", nu, integer=False)
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    spec = mean_spec(family, k, nu, params)
    ss = np.random.SeedSequence(int(seed))
    a_seq, reward_seq, aux_seq = ss.spawn(3)
    del aux_seq  # reserved stream index; see _analysis_rng
    return Environment(
        param_matrix=make_row_orthonormal(np.random.default_rng(a_seq).standard_normal((k, d))),
        mean=spec,
        sigma=float(sigma),
        nu=float(nu),
        seed=int(seed),
        rng=np.random.default_rng(reward_seq),
    )


def _analysis_rng(env: Environment) -> np.random.Generator:
    """Seed-derived generator for analysis sampling (conditioning estimates).

    Separate from the reward stream so analysis never perturbs rewards, and
    re-derived on every call so estimates are idempotent per environment.
    """
    return np.random.default_rng(np.random.SeedSequence(env.seed).spawn(3)[2])


def _check_domain(env: Environment, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(env.d)
    nrm = float(np.linalg.norm(x))
    if nrm > 1.0 + env.nu + DOMAIN_SLACK:
        raise DomainError(
            f"query point outside the action ball: ||x|| = {nrm:.12g} > 1 + nu = {1.0 + env.nu:.12g}"
        )
    return x


def sample_reward(env: Environment, x: np.ndarray) -> float:
    """One noisy reward query at x; increments the query count by one."""
    x = _check_domain(env, x)
    val = float(mean_value(env.mean, env.A @ x))
    noise = float(_reward_noise(env, 1)[0])
    env.query_count += 1
    return val + noise


def check_points(env: Environment, xs: np.ndarray) -> None:
    """Raise DomainError, naming the farthest row, if any row of xs leaves the ball."""
    norms = np.linalg.norm(xs, axis=1)
    worst = int(np.argmax(norms))
    if norms[worst] > 1.0 + env.nu + DOMAIN_SLACK:
        raise DomainError(
            f"query point {worst} outside the action ball: ||x|| = {norms[worst]:.12g} "
            f"> 1 + nu = {1.0 + env.nu:.12g}"
        )


def _reward_noise(env: Environment, n: int, repeats: int = 1) -> np.ndarray:
    """The noise of n rewards, each averaged over `repeats` queries:
    sigma / sqrt(repeats) times n standard normals from the reward stream,
    in order.  A noiseless environment (sigma = 0) draws nothing and gets
    zeros, so its reward stream never moves.
    """
    if env.sigma == 0.0:
        return np.zeros(n)
    return env.sigma / math.sqrt(repeats) * env.rng.standard_normal(n)


def _project(env: Environment, xs: np.ndarray) -> np.ndarray:
    """A x for each row x of xs, shape (n, k).  The product takes a
    contiguous copy of A^T: with the transposed view, OpenBLAS runs the
    skinny (n, d) x (d, k) product at half the speed."""
    return xs @ np.ascontiguousarray(env.A.T)


def _query_projections(env: Environment, us: np.ndarray, repeats: int) -> tuple:
    """(means, averages) for points whose projections A x are the rows of
    us, the points already checked against the ball.

    means are the noise-free mean rewards, averages the noisy means of
    `repeats` queries each.  Charges len(us) * repeats queries.
    """
    vals = mean_value(env.mean, us)
    env.query_count += us.shape[0] * repeats
    return vals, vals + _reward_noise(env, us.shape[0], repeats)


# ---------- optimum oracles ----------


def _closest_in_ball(T: np.ndarray, c: np.ndarray, radius: float) -> np.ndarray:
    """Minimize ||T y - c|| over ||y|| <= radius (a k x k trust-region subproblem).

    The minimum-norm least-squares solution is optimal when it lies in the
    ball.  Otherwise the optimum is y(mu) = (T^T T + mu I)^{-1} T^T c on the
    sphere, for the mu > 0 where ||y(mu)|| = radius; ||y(mu)|| decreases in
    mu, so bisection in the eigenbasis of T^T T finds it.  T^T c lies in the
    range of T^T T, so the "hard case" of the general subproblem cannot occur
    (More & Sorensen 1983).
    """
    y = np.linalg.lstsq(T, c, rcond=None)[0]
    if np.linalg.norm(y) <= radius:
        return y
    lam, Q = np.linalg.eigh(T.T @ T)
    beta = Q.T @ (T.T @ c)
    # ||y(mu)|| <= ||T^T c|| / mu, so hi starts on the inside of the sphere
    lo, hi = 0.0, float(np.linalg.norm(beta)) / radius
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if np.linalg.norm(beta / (lam + mid)) > radius:
            lo = mid
        else:
            hi = mid
    return Q @ (beta / (lam + hi))


def _best_on_ball(spec: MeanRewardSpec, radius: float, T: np.ndarray):
    """Exactly maximize g(T y) over y in B_k(radius) for a k x k matrix T.

    linear: y along T^T w.  norm-squared: y along the top right singular
    vector of T.  centered-quadratic and gaussian-bump decrease in
    ||T y - center||, so their argmax is the point of the ball closest to
    the center in that metric.  Returns (value, argmax y in R^k).
    """
    if spec.family == "linear":
        v = T.T @ spec.params["weight"]
        nrm = float(np.linalg.norm(v))
        y = radius * v / nrm if nrm > 0 else np.zeros(spec.k)
    elif spec.family == "norm-squared":
        y = radius * np.linalg.svd(T)[2][0]
    else:
        y = _closest_in_ball(T, spec.params["center"], radius)
    return float(mean_value(spec, T @ y)), y


def optimal_value(env: Environment):
    """Maximize the mean reward over the action ball exactly.

    Returns (value, argmax x in R^d).  The mean reward depends on x only
    through A x and A has orthonormal rows, so the search runs over
    B_k(1 + nu) and the argmax is lifted back with A^T.
    """
    val, y = _best_on_ball(env.mean, 1.0 + env.nu, np.eye(env.k))
    return val, env.A.T @ y


def best_on_subspace(env: Environment, A_hat: np.ndarray):
    """Best mean reward reachable through a recovered subspace.

    Maximizes g(A A_hat^T y) over y in B_k(1 + nu) exactly; every arm laid
    on that subspace inside the ball therefore scores at most this value.
    Returns (value, y).
    """
    T = env.A @ np.asarray(A_hat, dtype=float).T
    return _best_on_ball(env.mean, 1.0 + env.nu, T)


# ---------- conditioning ----------


@dataclass(frozen=True)
class ConditioningReport:
    """Spectrum of the gradient outer-product moment, estimated by sampling.

    singular_values holds the k nonzero singular values of
    E[grad r(x) grad r(x)^T] over x uniform on the unit sphere, descending;
    alpha_hat is the k-th one.
    """

    singular_values: np.ndarray
    alpha_hat: float
    n_samples: int


def estimate_conditioning(env: Environment, n_samples: int) -> ConditioningReport:
    """Monte-Carlo estimate of the gradient outer-product spectrum.

    Draws n_samples points uniformly on the unit sphere S^{d-1} (from a
    seed-derived auxiliary generator; the reward stream is untouched) and
    averages grad r grad r^T.  The d x d moment matrix has rank <= k, so its
    spectrum is computed through the k x k Gram matrix of grad g values.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    xs = uniform_sphere(_analysis_rng(env), n_samples, env.d)
    G = mean_grad(env.mean, xs @ env.A.T)  # (n, k), gradients of g at A x
    S = (G.T @ G) / n_samples
    eigs = np.linalg.eigvalsh(S)[::-1]
    eigs = np.clip(eigs, 0.0, None)
    return ConditioningReport(
        singular_values=eigs,
        alpha_hat=float(eigs[-1]),
        n_samples=int(n_samples),
    )
