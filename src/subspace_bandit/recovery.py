"""Low-rank recovery of the gradient matrix from sketched measurements.

The measurement bundle from :mod:`subspace_bandit.sampling` gives a linear
sketch ``y ~ Phi(X)`` of the stacked-gradient matrix ``X`` whose column space
is spanned by the rows of the hidden mixing matrix.  This module recovers a
low-rank estimate of ``X`` by solving a matrix Dantzig selector

    minimize ||M||_*   subject to   ||Phi*(y - Phi(M))||_op <= lam

via nuclear-norm-penalized proximal descent with continuation, then reads the
subspace estimate off the top left singular vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .sampling import SamplingSets

RANK_FLOOR = 1e-12
# solve_dantzig's fixed settings: FISTA steps per subproblem and its
# relative iterate-change stop, the relative slack of the feasibility test,
# the continuation's per-round shrink of the penalty weight, and the most
# continuation rounds
MAX_ITERS = 5000
REL_TOL = 1e-7
FEAS_TOL = 1e-6
TAU_SHRINK = 0.3
MAX_OUTER = 40


class DegenerateRecoveryError(RuntimeError):
    """Raised when the recovered matrix carries no energy in the target rank."""


def compute_lambda(
    c2: float,
    epsilon: float,
    d: int,
    m_x: int,
    m_phi: int,
    k: int,
    sigma_eff: float,
    delta: float,
    gamma: float,
) -> float:
    """Constraint level for the Dantzig selector.

    Combines the second-order sketch bias (scales like ``epsilon``) with the
    averaged-noise term (scales like ``sigma_eff / epsilon``); both pick up
    the isometry slack factor ``sqrt(1 + delta)``.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if sigma_eff < 0:
        raise ValueError(f"sigma_eff must be nonnegative, got {sigma_eff}")
    m = max(d, m_x)
    curvature = c2 * epsilon * d * m_x * k**2 / (2.0 * math.sqrt(m_phi))
    noise = 4.0 * gamma * sigma_eff * math.sqrt(m_x * m_phi * m) / epsilon
    return math.sqrt(1.0 + delta) * (curvature + noise)


def ds_error_bound(lam: float, k: int, c0: float = 4.0) -> float:
    """Frobenius error guarantee for the rank-k truncated selector solution."""
    return 2.0 * math.sqrt(c0 * k) * lam


@dataclass(frozen=True)
class DantzigProblem:
    """One selector instance: sketch targets, sampling sets, level, target rank."""

    y: np.ndarray
    sets: SamplingSets
    lam: float
    k: int

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        object.__setattr__(self, "lam", float(self.lam))


@dataclass
class SolveInfo:
    iterations: int
    outer_rounds: int
    converged: bool
    feasible: bool
    residual_norm: float
    tau_final: float


def _svt(mat: np.ndarray, thresh: float) -> np.ndarray:
    """Singular value soft-thresholding, the prox of ``thresh * ||.||_*``."""
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    s = np.maximum(s - thresh, 0.0)
    keep = s > 0.0
    if not np.any(keep):
        return np.zeros_like(mat)
    return (u[:, keep] * s[keep]) @ vt[keep]


def _fista(residual, tau, lipschitz, start, max_iters, rel_tol):
    """Accelerated proximal descent for tau*||M||_* + 0.5*||Phi(M) - y||^2.

    ``residual(M)`` is the dual residual ``Phi*(y - Phi(M))``, the negative
    gradient of the smooth part.  The momentum restarts (``t = 1``) whenever
    the prox step ``z -> M_new`` points against the last move
    ``M_cur -> M_new``, the gradient restart of O'Donoghue & Candes (2015),
    which stops the oscillation that momentum otherwise causes near the
    solution.
    """
    m_cur = start.copy()
    z = start.copy()
    t = 1.0
    step = 1.0 / lipschitz
    iters = 0
    converged = False
    for iters in range(1, max_iters + 1):
        m_new = _svt(z + step * residual(z), tau * step)
        if np.vdot(z - m_new, m_new - m_cur) > 0.0:
            t = 1.0
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


def _is_tall(sets: SamplingSets) -> bool:
    """A sketch with more rows than unknowns is solved in Gram form."""
    return sets.m_Phi > sets.d * sets.m_X


def _sketch_adjoint(sets: SamplingSets, y: np.ndarray) -> np.ndarray:
    """``Phi*(y)`` as a flat vector in ``X.ravel()`` order.

    A tall sketch sums ``S^T y`` over chunks of sign rows and scales once,
    so the flat operator is never built.
    """
    if _is_tall(sets):
        adjoint = np.zeros(sets.d * sets.m_X)
        for start, stop, rows in sets.sign_rows(float):
            adjoint += rows.T @ y[start:stop]
        return adjoint * sets.scale
    return sets.flat_operator().T @ y


def _smooth_part(
    sets: SamplingSets, y: np.ndarray, adjoint_y: np.ndarray
) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """``(residual, lipschitz)`` for the smooth part ``0.5*||Phi(M) - y||^2``.

    ``residual(M) = Phi*(y - Phi(M))`` and ``lipschitz = ||F||_2^2``.  A
    tall sketch uses the normal equations: with the exact ``G = F^T F`` of
    :meth:`SamplingSets.gram`, the residual is ``F^T y - G @ M`` and the
    constant is the top eigenvalue of G, so no iteration touches an
    ``m_Phi``-long vector.  Otherwise the residual comes from products with
    F and the constant from the top eigenvalue of the small Gram ``F F^T``
    (``m_Phi <= d * m_X``), not from an SVD of F.  That eigenvalue is padded
    by ``n * eps * trace(F F^T)`` with ``n = d * m_X``: forming ``F F^T``
    errs by at most about ``n * eps / 2 * ||F||_F^2`` in norm and
    ``eigvalsh`` by a small multiple of ``m_Phi * eps * ||F||_2^2``, so the
    step ``1 / lipschitz`` stays at or below ``1 / ||F||_2^2``.
    """
    shape = (sets.d, sets.m_X)
    if _is_tall(sets):
        gram = sets.gram()

        def residual(mat):
            return (adjoint_y - gram @ mat.ravel()).reshape(shape)

        return residual, float(np.linalg.eigvalsh(gram)[-1])

    flat_op = sets.flat_operator()

    def residual(mat):
        return (flat_op.T @ (y - flat_op @ mat.ravel())).reshape(shape)

    small_gram = flat_op @ flat_op.T
    pad = flat_op.shape[1] * np.finfo(float).eps * float(np.trace(small_gram))
    return residual, float(np.linalg.eigvalsh(small_gram)[-1]) + pad


def solve_dantzig(problem: DantzigProblem) -> tuple[np.ndarray, SolveInfo]:
    """Solve the selector by continuation over the nuclear-norm penalty weight.

    Each penalized subproblem is solved by FISTA with singular value
    thresholding and warm starts; the weight is driven down geometrically
    to just under ``lam``, and the loop stops once the exact spectral norm
    of the dual residual ``Phi*(y - Phi(M))`` sits at or below ``lam``
    (within ``FEAS_TOL`` relative).  The penalized and constrained
    formulations meet at the constraint boundary, so the final iterate is the
    selector solution up to solver tolerance.

    A tall sketch (``m_Phi > d * m_X``) is solved in Gram form from the sign
    chunks and never builds the flat operator or the float directions; its
    iterates agree with the flat form to rounding, not bit for bit.
    """
    sets = problem.sets
    y = np.asarray(problem.y, dtype=float)
    if y.shape != (sets.m_Phi,):
        raise ValueError(f"y must have shape {(sets.m_Phi,)}, got {y.shape}")
    shape = (sets.d, sets.m_X)

    adjoint_y = _sketch_adjoint(sets, y)
    dual0 = adjoint_y.reshape(shape)
    dual0_norm = float(np.linalg.norm(dual0, 2))
    if problem.lam >= dual0_norm:
        # zero is already feasible, and it has minimal nuclear norm
        info = SolveInfo(
            iterations=0,
            outer_rounds=0,
            converged=True,
            feasible=True,
            residual_norm=dual0_norm,
            tau_final=problem.lam,
        )
        return np.zeros(shape), info

    residual, lipschitz = _smooth_part(sets, y, adjoint_y)

    # continuation: start just under the level where zero is optimal, and
    # aim slightly inside the constraint so inexact subproblem solves still
    # land feasible
    tau = 0.9 * dual0_norm
    tau_floor = max(problem.lam * (1.0 - 10.0 * FEAS_TOL), 0.0)
    if tau <= tau_floor:
        tau = tau_floor

    m_cur = np.zeros(shape)
    total_iters = 0
    outer = 0
    sub_converged = False
    cur_tol = REL_TOL
    while outer < MAX_OUTER:
        outer += 1
        m_cur, iters, sub_converged = _fista(
            residual, tau, lipschitz, m_cur, MAX_ITERS, cur_tol
        )
        total_iters += iters
        at_floor = tau <= tau_floor * (1.0 + 1e-12)
        if at_floor and np.linalg.norm(residual(m_cur), 2) <= problem.lam * (1.0 + FEAS_TOL):
            break
        if not at_floor:
            tau = max(tau * TAU_SHRINK, tau_floor)
        else:
            # stalled at the target weight with the dual residual still above
            # the constraint: the iterate-change stop fired too early, so
            # tighten it and let the next round grind further down
            cur_tol = max(cur_tol * 1e-2, 1e-15)

    residual_norm = float(np.linalg.norm(residual(m_cur), 2))
    feasible = bool(residual_norm <= problem.lam * (1.0 + FEAS_TOL))
    info = SolveInfo(
        iterations=total_iters,
        outer_rounds=outer,
        converged=bool(sub_converged and feasible),
        feasible=feasible,
        residual_norm=residual_norm,
        tau_final=tau,
    )
    return m_cur, info


def truncate_rank_k(mat: np.ndarray, k: int) -> np.ndarray:
    """Best rank-k approximation in Frobenius norm (truncated SVD)."""
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    r = min(k, s.size)
    return (u[:, :r] * s[:r]) @ vt[:r]


def singular_values(mat: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mat, compute_uv=False)


def extract_subspace(mat_k: np.ndarray, k: int) -> np.ndarray:
    """Row-orthonormal (k, d) basis from the top-k left singular vectors.

    Raises :class:`DegenerateRecoveryError` when the k-th singular value is
    numerically zero, meaning the solve produced no usable rank-k signal.
    """
    u, s, _ = np.linalg.svd(mat_k, full_matrices=False)
    if s.size < k or s[k - 1] <= RANK_FLOOR:
        raise DegenerateRecoveryError(
            "degenerate recovery: singular value "
            f"{0.0 if s.size < k else float(s[k - 1]):.3e} at rank {k} is below "
            f"{RANK_FLOOR:.0e} (spectrum: {np.array2string(s[: k + 3], precision=3)})"
        )
    basis = u[:, :k].T.copy()
    # fix signs so repeated runs give bit-identical bases
    for i in range(k):
        j = int(np.argmax(np.abs(basis[i])))
        if basis[i, j] < 0:
            basis[i] = -basis[i]
    return basis


def subspace_error(a: np.ndarray, a_hat: np.ndarray) -> float:
    """Frobenius distance between the orthogonal projectors of two row spaces."""
    a = np.asarray(a, dtype=float)
    a_hat = np.asarray(a_hat, dtype=float)
    if a.shape[1] != a_hat.shape[1]:
        raise ValueError(
            f"ambient dimensions differ: {a.shape[1]} vs {a_hat.shape[1]}"
        )
    return float(np.linalg.norm(a.T @ a - a_hat.T @ a_hat, "fro"))


@dataclass
class RecoveryResult:
    """Everything phase 2 needs, plus solver diagnostics for the record."""

    estimate: np.ndarray
    estimate_rank_k: np.ndarray
    basis: np.ndarray
    lam: float
    spectrum: np.ndarray
    info: SolveInfo
    subspace_err: Optional[float] = None
    error_bound: Optional[float] = None


def recover_subspace(
    problem: DantzigProblem,
    true_basis: Optional[np.ndarray] = None,
    c0: float = 4.0,
) -> RecoveryResult:
    """Solve, truncate to rank k, and extract the subspace estimate."""
    estimate, info = solve_dantzig(problem)
    est_k = truncate_rank_k(estimate, problem.k)
    spectrum = singular_values(estimate)
    basis = extract_subspace(est_k, problem.k)
    err = None if true_basis is None else subspace_error(true_basis, basis)
    return RecoveryResult(
        estimate=estimate,
        estimate_rank_k=est_k,
        basis=basis,
        lam=problem.lam,
        spectrum=spectrum,
        info=info,
        subspace_err=err,
        error_bound=ds_error_bound(problem.lam, problem.k, c0),
    )


def result_to_dict(result: RecoveryResult) -> dict:
    """JSON-ready summary (drops the dense matrices, keeps the basis)."""
    out = {
        "basis": result.basis.tolist(),
        "lambda": result.lam,
        "spectrum": result.spectrum.tolist(),
        "error_bound": result.error_bound,
        "iterations": result.info.iterations,
        "outer_rounds": result.info.outer_rounds,
        "converged": result.info.converged,
        "feasible": result.info.feasible,
        "residual_norm": result.info.residual_norm,
    }
    if result.subspace_err is not None:
        out["subspace_err"] = result.subspace_err
    return out
