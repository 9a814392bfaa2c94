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
from typing import Optional

import numpy as np

from . import _kernels
from .sampling import SamplingSets, apply_adjoint

RANK_FLOOR = 1e-12
# solve_dantzig's fixed settings: FISTA steps per subproblem and its
# relative iterate-change stop, the looser stop of the continuation rounds
# that only warm-start the next one, the relative slack of the feasibility
# test, the continuation's per-round shrink of the penalty weight, the most
# continuation rounds, and the step test's rounding allowance (fista_round
# in _kernels.c)
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
        y = np.ascontiguousarray(self.y, dtype=float)
        if y.shape != (self.sets.m_Phi,):
            raise ValueError(f"y must have shape {(self.sets.m_Phi,)}, got {y.shape}")
        if not np.isfinite(y).all():
            raise ValueError("y must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "lam", float(self.lam))
        if self.adjoint_y is None:
            object.__setattr__(self, "adjoint_y", apply_adjoint(self.sets, y))
            return
        adjoint_y = np.ascontiguousarray(self.adjoint_y, dtype=float)
        shape = (self.sets.d, self.sets.m_X)
        if adjoint_y.shape != shape:
            raise ValueError(f"adjoint_y must have shape {shape}, got {adjoint_y.shape}")
        if not np.isfinite(adjoint_y).all():
            raise ValueError("adjoint_y must be finite")
        object.__setattr__(self, "adjoint_y", adjoint_y)


@dataclass
class SolveInfo:
    iterations: int
    outer_rounds: int
    converged: bool
    feasible: bool
    residual_norm: float
    lipschitz: float  # the final FISTA curvature bound L; the step is 1/L
    backtracks: int  # prox steps redone because L was too small


_ROUND_FAILURES = {
    -1: "a singular value thresholding step failed (a non-finite iterate, or no QR convergence)",
    -2: "no memory for its scratch",
    -3: "the curvature bound L overflowed",
}


class _FistaRounds:
    """The continuation rounds of one problem, each one call of fista_round
    in _kernels.c (built at first use, see _kernels.load).

    A round runs FISTA with singular value thresholding from ``m`` in place
    and leaves ``r`` holding ``Phi*(y - Phi(m))``.  A tall sketch's rounds
    read its exact int32 Gram counts (:meth:`SamplingSets.gram`), a wide
    one's the flat operator F and y.  The object owns every buffer the
    library reads or writes.
    """

    def __init__(self, problem: "DantzigProblem"):
        sets = problem.sets
        self.m, self.r = np.zeros((sets.d, sets.m_X)), np.zeros((sets.d, sets.m_X))
        self.lipschitz, self.stats = np.ones(1), np.zeros(3, dtype=np.int64)
        self.problem = problem
        self.operator = sets.gram() if sets.tall else np.ascontiguousarray(sets.flat_operator())
        address = self.operator.ctypes.data
        self.call = functools.partial(
            _kernels.load().fista_round, sets.d, sets.m_X,
            address if sets.tall else None, None if sets.tall else address,
            sets.m_Phi, problem.y.ctypes.data, problem.adjoint_y.ctypes.data,
        )

    def __call__(self, tau: float, lipschitz: float, rel_tol: float, max_iters: int = MAX_ITERS):
        """One round at weight tau from step 1/lipschitz, stopping at a
        relative iterate change of rel_tol.  Returns ``(iterations,
        converged, L, backtracks)``; raises RuntimeError if the round fails."""
        self.lipschitz[0] = lipschitz
        status = self.call(
            tau, max_iters, rel_tol, STEP_ROUNDING, self.m.ctypes.data, self.r.ctypes.data,
            self.lipschitz.ctypes.data, self.stats.ctypes.data,
        )
        if status:
            raise RuntimeError(f"FISTA round failed: {_ROUND_FAILURES[status]}")
        iterations, backtracks, converged = self.stats.tolist()
        return iterations, bool(converged), float(self.lipschitz[0]), backtracks


def solve_dantzig(problem: DantzigProblem) -> tuple[np.ndarray, SolveInfo]:
    """Solve the selector by continuation over the nuclear-norm penalty weight.

    Each penalized subproblem is solved by FISTA with singular value
    thresholding and warm starts, one compiled call per continuation round
    (:class:`_FistaRounds`); the weight is driven down geometrically
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
    form to rounding, not bit for bit.  Inside a round no BLAS or LAPACK
    runs, so the solve gives the same bits at any BLAS thread count.
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

    rounds = _FistaRounds(problem)

    # continuation: start just under the level where zero is optimal, and
    # aim slightly inside the constraint so inexact subproblem solves still
    # land feasible
    tau = 0.9 * dual0_norm
    tau_floor = max(problem.lam * (1.0 - 10.0 * FEAS_TOL), 0.0)
    if tau <= tau_floor:
        tau = tau_floor

    total_iters = backtracks = outer = 0
    sub_converged = False
    floor_tol = REL_TOL
    while outer < MAX_OUTER:
        outer += 1
        at_floor = tau <= tau_floor * (1.0 + 1e-12)
        iters, sub_converged, lipschitz, redone = rounds(
            tau, lipschitz, floor_tol if at_floor else WARM_TOL
        )
        total_iters += iters
        backtracks += redone
        if at_floor and np.linalg.norm(rounds.r, 2) <= problem.lam * (1.0 + FEAS_TOL):
            break
        if not at_floor:
            tau = max(tau * TAU_SHRINK, tau_floor)
        else:
            # stalled at the target weight with the dual residual still above
            # the constraint: the iterate-change stop fired too early, so
            # tighten it and let the next round grind further down
            floor_tol = max(floor_tol * 1e-2, 1e-15)

    residual_norm = float(np.linalg.norm(rounds.r, 2))
    feasible = bool(residual_norm <= problem.lam * (1.0 + FEAS_TOL))
    info = SolveInfo(
        iterations=total_iters, outer_rounds=outer, converged=bool(sub_converged and feasible),
        feasible=feasible, residual_norm=residual_norm, lipschitz=lipschitz, backtracks=backtracks,
    )
    return rounds.m, info


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
