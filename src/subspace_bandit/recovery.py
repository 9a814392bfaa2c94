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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .sampling import SamplingSets, apply_adjoint

RANK_FLOOR = 1e-12
# solve_dantzig's fixed settings: FISTA steps per subproblem and its
# relative iterate-change stop, the looser stop of the continuation rounds
# that only warm-start the next one, the relative slack of the feasibility
# test, the continuation's per-round shrink of the penalty weight, the most
# continuation rounds, and the step test's rounding allowance (_prox_step)
MAX_ITERS = 5000
REL_TOL = 1e-7
WARM_TOL = 1e-3
FEAS_TOL = 1e-6
TAU_SHRINK = 0.3
MAX_OUTER = 40
STEP_ROUNDING = 1e-12


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
    """One selector instance: sketch targets, sampling sets, level, target rank.

    adjoint_y is ``Phi^*(y)``: a collection's own (``bundle.adjoint_y``),
    or, when not given, :func:`apply_adjoint` of y, which is the same bits.
    """

    y: np.ndarray
    sets: SamplingSets
    lam: float
    k: int
    adjoint_y: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        y = np.asarray(self.y, dtype=float)
        if y.shape != (self.sets.m_Phi,):
            raise ValueError(f"y must have shape {(self.sets.m_Phi,)}, got {y.shape}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "lam", float(self.lam))
        if self.adjoint_y is None:
            object.__setattr__(self, "adjoint_y", apply_adjoint(self.sets, y))


@dataclass
class SolveInfo:
    iterations: int
    outer_rounds: int
    converged: bool
    feasible: bool
    residual_norm: float
    lipschitz: float  # the final FISTA curvature bound L; the step is 1/L
    backtracks: int  # prox steps redone because L was too small


def _svt(mat: np.ndarray, thresh: float) -> np.ndarray:
    """Singular value soft-thresholding, the prox of ``thresh * ||.||_*``.

    The singular values come sorted, so the ones left positive are a prefix.
    """
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    s -= thresh
    r = int(np.count_nonzero(s > 0.0))
    if r == 0:
        return np.zeros_like(mat)
    return (u[:, :r] * s[:r]) @ vt[:r]


def _prox_step(residual, z, r_z, tau, lipschitz):
    """The prox step ``z -> p`` with step 1/L, where ``r_z = residual(z)``.

    Accepted when ``<d, r_z - r_p> = ||Phi(d)||^2 <= L ||d||^2`` for
    ``d = p - z`` (Beck & Teboulle 2009; exact for this quadratic), up to a
    rounding allowance; else L rises to ``max(1.05 L, curvature)`` and the
    step is redone.  Returns ``(p, r_p, d, L, backtracks)``, d flat.
    """
    backtracks = 0
    while True:
        step = 1.0 / lipschitz
        p = _svt(z + step * r_z, tau * step)
        r_p = residual(p)
        d = (p - z).ravel()
        d_sq = d.dot(d)
        curvature = d.dot((r_z - r_p).ravel())
        excess = curvature - lipschitz * d_sq
        if excess <= 0.0 or excess <= STEP_ROUNDING * math.sqrt(d_sq) * (
            np.linalg.norm(r_z) + np.linalg.norm(r_p) + lipschitz * np.linalg.norm(p)
        ):
            return p, r_p, d, lipschitz, backtracks
        lipschitz = max(1.05 * lipschitz, float(curvature / d_sq))
        backtracks += 1


def _fista(residual, tau, lipschitz, start, max_iters, rel_tol):
    """Accelerated proximal descent for tau*||M||_* + 0.5*||Phi(M) - y||^2.

    ``residual(M)`` is the dual residual ``Phi*(y - Phi(M))``, the negative
    gradient of the smooth part, evaluated once per accepted
    :func:`_prox_step`; being affine, it is extrapolated to the momentum
    point z alongside z.  The momentum restarts (``t = 1``) whenever
    the prox step ``d = M_new - z`` points against the last move
    ``M_cur -> M_new``, the gradient restart of O'Donoghue & Candes (2015),
    which stops the oscillation that momentum otherwise causes near the
    solution.  Returns ``(M, iterations, converged, L, backtracks)``.
    """
    m_cur = z = start.copy()
    r_cur = r_z = residual(m_cur)
    t = 1.0
    iters = backtracks = 0
    converged = False
    for iters in range(1, max_iters + 1):
        m_new, r_new, d, lipschitz, redone = _prox_step(residual, z, r_z, tau, lipschitz)
        backtracks += redone
        move = m_new - m_cur
        flat = move.ravel()
        if d.dot(flat) < 0.0:
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        z = m_new + beta * move
        r_z = r_new + beta * (r_new - r_cur)
        # the Frobenius norms exactly as np.linalg.norm computes them
        change = math.sqrt(flat.dot(flat))
        flat = m_new.ravel()
        scale = max(1.0, math.sqrt(flat.dot(flat)))
        m_cur, r_cur = m_new, r_new
        t = t_new
        if change <= rel_tol * scale:
            converged = True
            break
    return m_cur, iters, converged, lipschitz, backtracks


class _GramResidual:
    """The tall residual ``M -> F^T y - (C @ M) / m_Phi`` for the exact
    integer counts ``C = S^T S = m_Phi F^T F`` of :meth:`SamplingSets.gram`.

    ``C @ M`` is gram_product in _kernels.c, which sums in a fixed order, so
    the residual's bits depend neither on the processor nor on the BLAS
    thread count.  The product reads C and a copy of M and writes its
    result by address, so this object owns all three buffers.
    """

    def __init__(self, sets: SamplingSets, adjoint_y: np.ndarray):
        self.counts = sets.gram()
        width = self.counts.shape[0]
        self.x, self.out = np.empty(width), np.empty(width)
        self.m_phi, self.adjoint_y = sets.m_Phi, adjoint_y
        self.product = functools.partial(
            _kernels.load().gram_product,
            self.counts.ctypes.data, self.x.ctypes.data, width, self.out.ctypes.data,
        )

    def __call__(self, mat: np.ndarray) -> np.ndarray:
        np.copyto(self.x, mat.reshape(self.x.shape))
        self.product()
        self.out /= self.m_phi
        return self.adjoint_y - self.out.reshape(self.adjoint_y.shape)


def _smooth_part(
    sets: SamplingSets, y: np.ndarray, adjoint_y: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """The dual residual ``M -> Phi*(y - Phi(M))`` of ``0.5*||Phi(M) - y||^2``.

    A tall sketch uses the normal equations (:class:`_GramResidual`), so no
    iteration touches an ``m_Phi``-long vector.  Otherwise it comes from
    products with F.
    """
    if sets.tall:
        return _GramResidual(sets, adjoint_y)

    shape = (sets.d, sets.m_X)
    flat_op = sets.flat_operator()

    def residual(mat):
        return (flat_op.T @ (y - flat_op @ mat.ravel())).reshape(shape)

    return residual


def solve_dantzig(problem: DantzigProblem) -> tuple[np.ndarray, SolveInfo]:
    """Solve the selector by continuation over the nuclear-norm penalty weight.

    Each penalized subproblem is solved by FISTA with singular value
    thresholding and warm starts; the weight is driven down geometrically
    to just under ``lam``, and the loop stops once the exact spectral norm
    of the dual residual ``Phi*(y - Phi(M))`` sits at or below ``lam``
    (within ``FEAS_TOL`` relative).  The penalized and constrained
    formulations meet at the constraint boundary, so the final iterate is the
    selector solution up to solver tolerance.  A round above the final
    weight only warm-starts the next, so it stops at the looser relative
    change ``WARM_TOL`` (continuation leaves these rounds inexact: Hale, Yin
    & Zhang 2008; Toh & Yun 2010); the rounds at the final weight stop at
    ``REL_TOL``, tightened a hundredfold each time one ends infeasible.

    No eigenvalue is computed: FISTA's L starts at 1, the diagonal of
    ``G = F^T F`` for any +/-1/sqrt(m_Phi) sketch, rises where a step needs
    more, never falls, and carries over between continuation rounds.

    ``Phi^*(y)`` comes with the problem.  A tall sketch
    (``m_Phi > d * m_X``) is then solved in Gram form and never builds the
    flat operator or the float directions; its iterates agree with the flat
    form to rounding, not bit for bit.
    """
    sets = problem.sets
    shape = (sets.d, sets.m_X)

    dual0 = problem.adjoint_y
    dual0_norm = float(np.linalg.norm(dual0, 2))
    lipschitz = 1.0
    if problem.lam >= dual0_norm:
        # zero is already feasible, and it has minimal nuclear norm
        info = SolveInfo(
            iterations=0, outer_rounds=0, converged=True, feasible=True,
            residual_norm=dual0_norm, lipschitz=lipschitz, backtracks=0,
        )
        return np.zeros(shape), info

    residual = _smooth_part(sets, problem.y, dual0)

    # continuation: start just under the level where zero is optimal, and
    # aim slightly inside the constraint so inexact subproblem solves still
    # land feasible
    tau = 0.9 * dual0_norm
    tau_floor = max(problem.lam * (1.0 - 10.0 * FEAS_TOL), 0.0)
    if tau <= tau_floor:
        tau = tau_floor

    m_cur = np.zeros(shape)
    total_iters = backtracks = outer = 0
    sub_converged = False
    floor_tol = REL_TOL
    while outer < MAX_OUTER:
        outer += 1
        at_floor = tau <= tau_floor * (1.0 + 1e-12)
        m_cur, iters, sub_converged, lipschitz, redone = _fista(
            residual, tau, lipschitz, m_cur, MAX_ITERS, floor_tol if at_floor else WARM_TOL
        )
        total_iters += iters
        backtracks += redone
        if at_floor and np.linalg.norm(residual(m_cur), 2) <= problem.lam * (1.0 + FEAS_TOL):
            break
        if not at_floor:
            tau = max(tau * TAU_SHRINK, tau_floor)
        else:
            # stalled at the target weight with the dual residual still above
            # the constraint: the iterate-change stop fired too early, so
            # tighten it and let the next round grind further down
            floor_tol = max(floor_tol * 1e-2, 1e-15)

    residual_norm = float(np.linalg.norm(residual(m_cur), 2))
    feasible = bool(residual_norm <= problem.lam * (1.0 + FEAS_TOL))
    info = SolveInfo(
        iterations=total_iters, outer_rounds=outer, converged=bool(sub_converged and feasible),
        feasible=feasible, residual_norm=residual_norm, lipschitz=lipschitz, backtracks=backtracks,
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
    """The basis phase 2 runs on, and the solve's diagnostics (not its solution).

    A solve with no rank-k signal leaves basis None and says why in
    abort_reason; its diagnostics stay.
    """

    basis: Optional[np.ndarray]
    lam: float
    spectrum: np.ndarray
    info: SolveInfo
    subspace_err: Optional[float] = None
    error_bound: Optional[float] = None
    abort_reason: Optional[str] = None


def recover_subspace(
    problem: DantzigProblem,
    true_basis: Optional[np.ndarray] = None,
    c0: float = 4.0,
) -> RecoveryResult:
    """Solve, truncate to rank k, and extract the subspace estimate.

    A collapsed solve (see :func:`extract_subspace`) is returned, not
    raised: the result has no basis and carries the reason.
    """
    estimate, info = solve_dantzig(problem)
    result = RecoveryResult(
        basis=None, lam=problem.lam, spectrum=singular_values(estimate), info=info,
        error_bound=ds_error_bound(problem.lam, problem.k, c0),
    )
    try:
        result.basis = extract_subspace(truncate_rank_k(estimate, problem.k), problem.k)
    except DegenerateRecoveryError as exc:
        result.abort_reason = str(exc)
        return result
    if true_basis is not None:
        result.subspace_err = subspace_error(true_basis, result.basis)
    return result


def result_to_dict(result: RecoveryResult) -> dict:
    """The solve's diagnostics as a run record's JSON-ready recovery block."""
    return {
        "iterations": result.info.iterations,
        "converged": result.info.converged,
        "feasible": result.info.feasible,
        "residual_norm": result.info.residual_norm,
        "lipschitz": result.info.lipschitz,
        "backtracks": result.info.backtracks,
        "spectrum": result.spectrum.tolist(),
        "error_bound": result.error_bound,
    }
