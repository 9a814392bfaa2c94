"""Whole-scheme orchestration: parameter planning, both phases, regret split.

Theory mode evaluates every planning formula (exploration fraction, sampling
sizes, resampling factor, step-size interval) from the declared problem
inputs; practical mode takes explicit sampling sizes instead.  Both modes
share one execution path: collect sketches, recover the subspace, run the
grid bandit on it, and decompose the regret trace into the three
contributions (phase-1 exploration, on-subspace bandit, subspace offset).
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bandit import BudgetError, Phase2Config, run_phase2
from .envs import (
    Environment,
    best_on_subspace,
    optimal_value,
)
from .recovery import (
    DantzigProblem,
    DegenerateRecoveryError,
    RecoveryResult,
    compute_lambda,
    recover_subspace,
    subspace_error,
)
from .sampling import (
    MeasurementBundle,
    SamplingPlan,
    collect_measurements,
    draw_sampling_sets,
)
from .util import derive_seed

GAMMA_FLOOR = 2.0 * math.sqrt(math.log(12.0))
GAMMA_DEFAULT = GAMMA_FLOOR + 0.1
DELTA_MAX = math.sqrt(2.0) - 1.0
MAX_PLANNABLE_N = 2**60


class StepSizeError(ValueError):
    """The admissible step-size interval misses the domain cap."""


class Phase1Aborted(DegenerateRecoveryError):
    """Recovery collapsed after phase 1 spent its queries.

    Carries the measurements and the constraint level, so a caller can
    still account for the queries they cost.
    """

    def __init__(self, message: str, bundle: MeasurementBundle, lam: float):
        super().__init__(message)
        self.bundle = bundle
        self.lam = lam


class RunAborted(RuntimeError):
    """Recovery collapsed mid-run; carries the partial record."""

    def __init__(self, message: str, record: "RunRecord"):
        super().__init__(message)
        self.record = record


@dataclass(frozen=True)
class TheoryConstants:
    """Free constants of the guarantees, with documented defaults."""

    delta: float = 0.25
    rho: float = 0.5
    p: float = 0.1
    c1: float = 1.1
    gamma: float = GAMMA_DEFAULT
    C0: float = 4.0
    C_prime: float = 1.0
    f_exponent_mode: str = "standard"

    def __post_init__(self):
        if not 0.0 < self.delta < DELTA_MAX:
            raise ValueError(f"delta must lie in (0, sqrt(2)-1), got {self.delta}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if self.c1 <= 1.0:
            raise ValueError(f"c1 must exceed 1, got {self.c1}")
        if self.gamma <= GAMMA_FLOOR:
            raise ValueError(
                f"gamma must exceed 2*sqrt(log 12) = {GAMMA_FLOOR:.4f}, got {self.gamma}"
            )
        if self.C0 <= 0 or self.C_prime <= 0:
            raise ValueError("C0 and C_prime must be positive")
        if self.f_exponent_mode not in ("standard", "remark"):
            raise ValueError(
                f'f_exponent_mode must be "standard" or "remark", got {self.f_exponent_mode!r}'
            )


@dataclass(frozen=True)
class TheoryParams:
    """Inputs plus every derived planning quantity, for audit and execution."""

    n: int
    d: int
    k: int
    sigma: float
    c2: float
    alpha: float
    nu: float
    constants: TheoryConstants
    f: float
    m_X: int
    m_Phi: int
    N: int
    sigma_eff: float
    a1: float
    b1: float
    q_delta: float
    u_delta: float
    m: int
    epsilon_lo: float
    epsilon_hi: float
    epsilon: float
    domain_cap: float
    lam: float
    n1: int
    feasible: bool
    minimal_feasible_n: Optional[int] = None


def q_of_delta(delta: float) -> float:
    return delta**2 / 144.0 - delta**3 / 1296.0


def u_of_delta(delta: float) -> float:
    return math.log(36.0 * math.sqrt(2.0) / delta)


def exploration_fraction(n: int, k: int, mode: str = "standard") -> float:
    """Target subspace accuracy f driving the budget split."""
    exponent = 1.0 / (k + 2) if mode == "standard" else 0.5 / (k + 2)
    return (1.0 / math.sqrt(k)) * (math.log(n) / n) ** exponent


def epsilon_interval(
    f: float,
    a1: float,
    b1: float,
    m_x: int,
    m_phi: int,
    m: int,
    sigma_eff: float,
    gamma: float,
) -> tuple:
    """Open interval of admissible probe steps (quadratic in epsilon).

    The bias grows with epsilon and the averaged noise shrinks with it; both
    must stay under the target accuracy, giving a*eps^2 - f*b1*eps + c < 0.
    Returns (lo, hi); lo = 0 exactly when sigma_eff = 0.
    """
    a = a1 * math.sqrt(m_x / m_phi)
    c = 8.0 * gamma * sigma_eff * math.sqrt(m_phi * m)
    b = f * b1
    disc = b * b - 4.0 * a * c
    # The resampling factor is picked to close this discriminant, often only
    # barely, so a float sign flip within a few ulps of zero means a double
    # root, not an empty interval.
    if abs(disc) <= 64.0 * np.finfo(float).eps * b * b:
        disc = 0.0
    if disc < 0:
        raise StepSizeError(
            f"step-size interval is empty: discriminant {disc:.3e} < 0 "
            "(resampling factor too small for this noise level)"
        )
    if disc == 0.0:
        vertex = b / (2.0 * a)
        return vertex, vertex
    root = math.sqrt(disc)
    hi = (b + root) / (2.0 * a)
    lo = 2.0 * c / (b + root)  # stable form of (b - root) / (2a)
    return lo, hi


def choose_epsilon(interval: tuple, domain_cap: float) -> float:
    """Pick the interval's midpoint as the step, capped by the domain margin.

    The cap is where probe shifts start leaving the action ball; when it cuts
    the interval down to nothing, no step size works and we refuse.
    """
    lo, hi = interval
    # lo == hi is the double-root case (resampling closed the gate exactly);
    # the shared value is the vertex of the quadratic and still admissible.
    if lo > hi or not (math.isfinite(lo) and math.isfinite(hi)) or hi <= 0:
        raise StepSizeError(f"ill-posed interval ({lo}, {hi})")
    if domain_cap <= lo:
        raise StepSizeError(
            "step-size infeasible: increase nu or m_Phi "
            f"(domain cap {domain_cap:.6g} <= interval floor {lo:.6g})"
        )
    return min(0.5 * (lo + hi), domain_cap)


def resampling_factor(
    sigma: float,
    d: int,
    k: int,
    m_x: int,
    m: int,
    f: float,
    alpha: float,
    a1: float,
    b1: float,
    constants: TheoryConstants,
) -> int:
    """Per-point repeat count N: averaging brings the noise under control.

    Takes the larger of the variance-driven count and the exact threshold
    that keeps the step-size interval nonempty, so the plan is always
    well-posed after resampling.
    """
    if sigma == 0.0:
        return 1
    prop = constants.C_prime * k**6 * d**2 * sigma**2 * m_x * m / (f**4 * alpha**2)
    gate = (32.0 * constants.gamma * sigma * a1 * math.sqrt(m_x * m) / (f**2 * b1**2)) ** 2
    return math.floor(max(prop, gate)) + 1


def _plan_core(n, d, k, sigma, c2, alpha, nu, constants) -> TheoryParams:
    f = exploration_fraction(n, k, constants.f_exponent_mode)
    m_x = math.ceil(2.0 * k * c2**2 * math.log(k / constants.p) / (alpha * constants.rho**2))
    qd = q_of_delta(constants.delta)
    ud = u_of_delta(constants.delta)
    m_phi = math.ceil(4.0 * k * (d + m_x + 1) * ud * constants.c1 / qd)
    m = max(d, m_x)
    a1 = c2 * d * k**2
    b1 = math.sqrt((1.0 - constants.rho) * alpha) / (
        math.sqrt(constants.C0) * math.sqrt(1.0 + constants.delta) * (math.sqrt(k) + math.sqrt(2.0))
    )
    big_n = resampling_factor(sigma, d, k, m_x, m, f, alpha, a1, b1, constants)
    sigma_eff = sigma / math.sqrt(big_n)
    lo, hi = epsilon_interval(f, a1, b1, m_x, m_phi, m, sigma_eff, constants.gamma)
    cap = nu * math.sqrt(m_phi / d)
    eps = choose_epsilon((lo, hi), cap)
    lam = compute_lambda(
        c2, eps, d, m_x, m_phi, k, sigma_eff, constants.delta, constants.gamma
    )
    n1 = SamplingPlan(m_X=m_x, m_Phi=m_phi, epsilon=eps, N=big_n).budget()
    return TheoryParams(
        n=int(n),
        d=int(d),
        k=int(k),
        sigma=float(sigma),
        c2=float(c2),
        alpha=float(alpha),
        nu=float(nu),
        constants=constants,
        f=f,
        m_X=m_x,
        m_Phi=m_phi,
        N=big_n,
        sigma_eff=sigma_eff,
        a1=a1,
        b1=b1,
        q_delta=qd,
        u_delta=ud,
        m=m,
        epsilon_lo=lo,
        epsilon_hi=hi,
        epsilon=eps,
        domain_cap=cap,
        lam=lam,
        n1=n1,
        feasible=n1 < n,
    )


def plan_parameters(
    n: int,
    d: int,
    k: int,
    sigma: float,
    c2: float,
    alpha: float,
    nu: float,
    constants: Optional[TheoryConstants] = None,
) -> TheoryParams:
    """Evaluate all theory-mode planning formulas for the given problem.

    An over-budget plan (n1 >= n) is returned flagged infeasible together
    with a minimal-n estimate; nothing is silently repaired.
    """
    constants = constants or TheoryConstants()
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if d < 1 or not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if c2 <= 0:
        raise ValueError(f"c2 must be positive, got {c2}")
    if nu < 0:
        raise ValueError(f"nu must be >= 0, got {nu}")
    params = _plan_core(n, d, k, sigma, c2, alpha, nu, constants)
    if params.feasible:
        return params
    minimal = _minimal_feasible_n(d, k, sigma, c2, alpha, nu, constants)
    return dataclasses.replace(params, minimal_feasible_n=minimal)


def _minimal_feasible_n(d, k, sigma, c2, alpha, nu, constants) -> Optional[int]:
    """Doubling-then-bisection estimate of the smallest workable budget."""

    def ok(n):
        try:
            return _plan_core(n, d, k, sigma, c2, alpha, nu, constants).feasible
        except StepSizeError:
            return False

    hi = 4
    while hi <= MAX_PLANNABLE_N:
        if ok(hi):
            break
        hi *= 2
    else:
        return None
    lo = max(hi // 2, 2)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def params_to_dict(params: TheoryParams) -> dict:
    """Flat JSON echo of inputs, constants, and every derived value."""
    out = dataclasses.asdict(params)
    out["constants"] = dataclasses.asdict(params.constants)
    return out


@dataclass
class PracticalParams:
    """Desk-scale run settings: explicit sampling sizes, optional overrides."""

    n: int
    m_X: int
    m_Phi: int
    epsilon: float
    N: int = 1
    delta: float = 0.25
    gamma: float = GAMMA_DEFAULT
    c0: float = 4.0
    lambda_scale: float = 1.0
    lambda_override: Optional[float] = None
    ucb_scale: Optional[float] = None
    M: Optional[int] = None
    known_subspace: Optional[np.ndarray] = None

    def __post_init__(self):
        scale = self.ucb_scale
        if scale is not None and not (math.isfinite(scale) and scale >= 0):
            raise ValueError(f"ucb_scale must be finite and >= 0, got {scale}")

    def to_dict(self) -> dict:
        out = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name != "known_subspace"
        }
        if self.known_subspace is not None:
            out["known_subspace"] = np.asarray(self.known_subspace).tolist()
        return out


@dataclass
class RunRecord:
    """Everything one end-to-end run produced."""

    mode: str
    seed: int
    n: int
    phase1_rounds: int
    phase2_rounds: int
    params: dict
    regret_trace: np.ndarray
    R1: Optional[float]
    R2: Optional[float]
    R3: Optional[float]
    subspace_err: Optional[float]
    r3_bound_value: Optional[float]
    x_star_value: float
    x_star_star_value: Optional[float]
    basis: Optional[np.ndarray]
    lam: Optional[float]
    recovery_diagnostics: Optional[dict]
    skipped_phase1: bool = False
    aborted: bool = False
    abort_reason: Optional[str] = None

    @property
    def total_regret(self) -> float:
        return float(self.regret_trace.sum())


def r3_bound(n2: int, c2: float, k: int, nu: float, subspace_err: float) -> float:
    """Linear-in-error bound on the subspace-offset regret contribution."""
    if min(n2, c2, k) < 0 or nu < 0 or subspace_err < 0:
        raise ValueError("r3_bound inputs must be nonnegative")
    return n2 * c2 * math.sqrt(k) * (1.0 + nu) * subspace_err / math.sqrt(2.0)


def decompose_regret(record: RunRecord) -> tuple:
    """Split the trace into (R1, R2, R3) against the record's stored optima.

    R1 is the phase-1 regret, R3 = n2 * (x* value - x** value) the cost of
    the recovered subspace, and R2 the rest of the phase-2 regret, so
    R1 + R2 + R3 = total regret holds exactly by construction.
    """
    n1 = record.phase1_rounds
    n2 = record.phase2_rounds
    trace = record.regret_trace
    r1 = float(trace[:n1].sum())
    if record.basis is None:
        raise ValueError("record has no recovered basis; cannot split phase-2 regret")
    r3 = n2 * (record.x_star_value - record.x_star_star_value)
    r2 = float(trace[n1:].sum()) - r3
    return r1, r2, r3


def _phase1_trace(bundle: MeasurementBundle, opt_value: float) -> np.ndarray:
    """Per-query regret of the measurement stage, in query order, from the
    mean rewards the collection computed."""
    per_point = np.concatenate([bundle.base_means, bundle.shifted_means.ravel()])
    return np.repeat(opt_value - per_point, bundle.plan.N)


def sampling_plan(params) -> SamplingPlan:
    """Phase 1's sizes and step from a TheoryParams or PracticalParams."""
    return SamplingPlan(m_X=params.m_X, m_Phi=params.m_Phi, epsilon=params.epsilon, N=params.N)


def _constraint_level(env: Environment, plan: SamplingPlan, params) -> float:
    """The selector's lam: planned (theory), overridden, or scaled from
    compute_lambda at the plan's effective noise level."""
    if isinstance(params, TheoryParams):
        return params.lam
    if params.lambda_override is not None:
        return float(params.lambda_override)
    sigma_eff = env.sigma / math.sqrt(plan.N)
    return params.lambda_scale * compute_lambda(
        env.mean.c2,
        plan.epsilon,
        env.d,
        plan.m_X,
        plan.m_Phi,
        env.k,
        sigma_eff,
        params.delta,
        params.gamma,
    )


@dataclass
class Phase1Result:
    """Phase 1's measurements, its constraint level and the recovery."""

    bundle: MeasurementBundle
    lam: float
    recovery: RecoveryResult


def run_phase1(env: Environment, params) -> Phase1Result:
    """Phase 1 on its own: draw the sampling sets, collect the measurements,
    resolve the constraint level and recover the subspace.

    params is a TheoryParams or PracticalParams.  The draw is seeded from
    the environment seed.  Raises DomainError before any query when a probe
    point leaves the action ball, and Phase1Aborted when the recovery
    collapses.
    """
    c0 = params.constants.C0 if isinstance(params, TheoryParams) else params.c0
    plan = sampling_plan(params)
    sets = draw_sampling_sets(plan, env.d, np.random.default_rng(derive_seed(env.seed, 1)))
    bundle = collect_measurements(env, sets, plan)
    lam = _constraint_level(env, plan, params)
    problem = DantzigProblem(y=bundle.y, sets=sets, lam=lam, k=env.k)
    try:
        recovery = recover_subspace(problem, true_basis=env.A, c0=c0)
    except DegenerateRecoveryError as exc:
        raise Phase1Aborted(str(exc), bundle, lam) from exc
    return Phase1Result(bundle=bundle, lam=lam, recovery=recovery)


def run_cablp(env: Environment, params) -> RunRecord:
    """Run the two-phase scheme end to end and account for every query.

    params is a TheoryParams (theory mode) or PracticalParams (practical
    mode).  Raises BudgetError before spending anything when the plan
    cannot fit, and RunAborted (with the partial record attached) when
    recovery collapses after phase 1.
    """
    mode = "theory" if isinstance(params, TheoryParams) else "practical"
    if env.query_count != 0:
        raise ValueError(
            f"environment is not fresh: {env.query_count} queries already spent"
        )

    n = params.n
    plan = sampling_plan(params)
    if mode == "theory":
        if not params.feasible:
            raise BudgetError(
                f"budget infeasible: plan needs n1 = {params.n1} exploration queries "
                f"but n = {params.n}; minimal feasible n is about {params.minimal_feasible_n}"
            )
        params_echo = params_to_dict(params)
        ucb_scale = None
        m_override = None
        known = None
    else:
        known = params.known_subspace
        if known is None and plan.budget() >= n:
            raise BudgetError(
                f"budget infeasible: phase 1 needs {plan.budget()} queries but n = {n}"
            )
        params_echo = params.to_dict()
        ucb_scale = params.ucb_scale
        m_override = params.M

    opt_value, _ = optimal_value(env)

    if known is not None:
        basis = np.asarray(known, dtype=float)
        n1 = 0
        trace1 = np.zeros(0)
        recovery: Optional[RecoveryResult] = None
        lam = None
        skipped = True
    else:
        skipped = False
        n1 = plan.budget()
        try:
            phase1 = run_phase1(env, params)
        except Phase1Aborted as exc:
            trace1 = _phase1_trace(exc.bundle, opt_value)
            partial = RunRecord(
                mode=mode,
                seed=env.seed,
                n=n,
                phase1_rounds=n1,
                phase2_rounds=0,
                params=params_echo,
                regret_trace=trace1,
                R1=float(trace1.sum()),
                R2=None,
                R3=None,
                subspace_err=None,
                r3_bound_value=None,
                x_star_value=opt_value,
                x_star_star_value=None,
                basis=None,
                lam=exc.lam,
                recovery_diagnostics=None,
                aborted=True,
                abort_reason=str(exc),
            )
            raise RunAborted(str(exc), partial) from exc
        trace1 = _phase1_trace(phase1.bundle, opt_value)
        recovery = phase1.recovery
        lam = phase1.lam
        basis = recovery.basis

    n2 = n - n1
    cfg2 = Phase2Config(ucb_scale=ucb_scale, M=m_override, opt_value=opt_value, budget_cap=n)
    phase2 = run_phase2(env, basis, n2, cfg2)
    if env.query_count != n:
        raise RuntimeError(
            f"query accounting is off: spent {env.query_count}, expected {n}"
        )

    sub_opt, _ = best_on_subspace(env, basis)
    err = subspace_error(env.A, basis)
    trace = np.concatenate([trace1, phase2.regrets])
    record = RunRecord(
        mode=mode,
        seed=env.seed,
        n=n,
        phase1_rounds=n1,
        phase2_rounds=n2,
        params=params_echo,
        regret_trace=trace,
        R1=None,
        R2=None,
        R3=None,
        subspace_err=err,
        r3_bound_value=r3_bound(n2, env.mean.c2, env.k, env.nu, err),
        x_star_value=opt_value,
        x_star_star_value=sub_opt,
        basis=basis,
        lam=lam,
        recovery_diagnostics=None if skipped else {
            "iterations": recovery.info.iterations,
            "converged": recovery.info.converged,
            "feasible": recovery.info.feasible,
            "residual_norm": recovery.info.residual_norm,
            "spectrum": recovery.spectrum.tolist(),
            "error_bound": recovery.error_bound,
        },
        skipped_phase1=skipped,
    )
    r1, r2, r3 = decompose_regret(record)
    record.R1, record.R2, record.R3 = r1, r2, r3
    return record


def record_to_dict(record: RunRecord, include_trace: bool = True) -> dict:
    out = {
        "mode": record.mode,
        "seed": record.seed,
        "n": record.n,
        "phase1_rounds": record.phase1_rounds,
        "phase2_rounds": record.phase2_rounds,
        "params": record.params,
        "R1": record.R1,
        "R2": record.R2,
        "R3": record.R3,
        "total_regret": record.total_regret,
        "subspace_err": record.subspace_err,
        "r3_bound_value": record.r3_bound_value,
        "x_star_value": record.x_star_value,
        "x_star_star_value": record.x_star_star_value,
        "lambda": record.lam,
        "recovery": record.recovery_diagnostics,
        "skipped_phase1": record.skipped_phase1,
        "aborted": record.aborted,
        "abort_reason": record.abort_reason,
    }
    if record.basis is not None:
        out["basis"] = np.asarray(record.basis).tolist()
    if include_trace:
        out["regret_trace"] = np.asarray(record.regret_trace).tolist()
    return out


def write_regret_csv(record: RunRecord, fileobj) -> None:
    """Regret trace rows (round, phase, instantaneous_regret), 1-based rounds."""
    writer = csv.writer(fileobj)
    writer.writerow(["round", "phase", "instantaneous_regret"])
    n1 = record.phase1_rounds
    for i, value in enumerate(record.regret_trace):
        writer.writerow([i + 1, 1 if i < n1 else 2, repr(float(value))])
