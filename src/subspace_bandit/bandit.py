"""Phase 2: grid-discretized UCB-1 on the recovered subspace.

The recovered row-orthonormal basis turns the d-dimensional action ball into
a k-dimensional one.  We lay a lattice of step 1/M over that low-dimensional
ball, embed each retained lattice point back into action space, and run a
sub-Gaussian UCB-1 index policy over the resulting finite arm set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .envs import Environment, check_points, mean_value, optimal_value

GRID_SLACK = 1e-9
NOISE_CHUNK = 1024  # noise values run_phase2 draws per rng call
# run_phase2's certified windows: theta is the CERT_RANK-th largest index
# among the arms not just pulled; a window lasts while 2 log t is at most its
# value CERT_WINDOW rounds after it opened; a window that certifies fewer
# than CERT_MIN_ROUNDS rounds doubles the wait before the next one, from
# CERT_MIN_ROUNDS up to CERT_MAX_WAIT full rounds
CERT_RANK = 4
CERT_WINDOW = 64
CERT_MIN_ROUNDS = 16
CERT_MAX_WAIT = 256


class BudgetError(RuntimeError):
    """Raised when a phase would exceed the remaining query budget."""


def choose_M(n2: int, k: int) -> int:
    """Discretization level balancing approximation and per-arm exploration.

    Rounds (n2 / log n2)^(1/(k+2)) half-up, floored at 1.
    """
    if n2 < 2:
        raise ValueError(f"need n2 >= 2 to size the grid, got {n2}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    level = (n2 / math.log(n2)) ** (1.0 / (k + 2))
    return max(1, math.floor(level + 0.5))


@dataclass(frozen=True)
class ArmGrid:
    """Lattice arms on the recovered subspace, embedded in action space."""

    M: int
    k: int
    nu: float
    lattice_points: np.ndarray  # (n_arms, k) low-dimensional strategies y_a
    arms: np.ndarray  # (n_arms, d) embedded strategies x_a

    @property
    def n_arms(self) -> int:
        return self.arms.shape[0]


def build_arm_grid(a_hat: np.ndarray, M: int, nu: float) -> ArmGrid:
    """Step-1/M lattice over [-1-nu, 1+nu]^k, kept inside the radius-(1+nu) ball.

    Points are enumerated lexicographically (first coordinate slowest), so arm
    indices are reproducible.  The embedding through the orthonormal basis
    preserves norms, hence every arm stays inside the action ball.
    """
    a_hat = np.asarray(a_hat, dtype=float)
    if a_hat.ndim != 2:
        raise ValueError(f"basis must be a matrix, got shape {a_hat.shape}")
    k, d = a_hat.shape
    if k > d:
        raise ValueError(f"need k <= d, got shape {a_hat.shape}")
    gram_dev = np.linalg.norm(a_hat @ a_hat.T - np.eye(k))
    if gram_dev > 1e-8:
        raise ValueError(f"rows are not orthonormal: ||AA^T - I||_F = {gram_dev:.3e}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    radius = 1.0 + nu
    j_max = math.floor(radius * M + GRID_SLACK)
    axis = np.arange(-j_max, j_max + 1, dtype=float) / M
    mesh = np.meshgrid(*([axis] * k), indexing="ij")
    lattice = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.linalg.norm(lattice, axis=1) <= radius + GRID_SLACK
    lattice = lattice[keep]
    arms = lattice @ a_hat
    return ArmGrid(M=M, k=k, nu=float(nu), lattice_points=lattice, arms=arms)


@dataclass
class Ucb1State:
    counts: np.ndarray
    means: np.ndarray
    t: int
    scale: float

    @property
    def n_arms(self) -> int:
        return self.counts.size


def fresh_ucb_state(n_arms: int, scale: float) -> Ucb1State:
    if n_arms < 1:
        raise ValueError(f"need at least one arm, got {n_arms}")
    if not (math.isfinite(scale) and scale >= 0):
        raise ValueError(f"scale must be finite and >= 0, got {scale}")
    return Ucb1State(
        counts=np.zeros(n_arms, dtype=np.int64),
        means=np.zeros(n_arms, dtype=float),
        t=0,
        scale=float(scale),
    )


def ucb1_select(state: Ucb1State) -> int:
    """Lowest-index unpulled arm first; afterwards the argmax of the index.

    Index of arm a is means[a] + scale * sqrt(2 log t / counts[a]); ties go
    to the lowest index (numpy argmax keeps the first maximum).  run_phase2
    computes the same index with the same operation order (divide, sqrt,
    times scale, plus mean): over the whole grid with numpy, or over a
    certified window's candidates in Python floats, which round each step
    the same way.
    """
    unpulled = np.flatnonzero(state.counts == 0)
    if unpulled.size:
        return int(unpulled[0])
    bonus = state.scale * np.sqrt(2.0 * math.log(state.t) / state.counts)
    return int(np.argmax(state.means + bonus))


def ucb1_update(state: Ucb1State, arm: int, reward: float) -> Ucb1State:
    """Numerically stable running-mean update; mutates and returns the state.

    run_phase2 inlines this update with the same operation order, in Python
    floats, so its means equal this function's bit for bit.
    """
    if not 0 <= arm < state.n_arms:
        raise ValueError(f"arm {arm} out of range [0, {state.n_arms})")
    state.counts[arm] += 1
    state.t += 1
    state.means[arm] += (reward - state.means[arm]) / state.counts[arm]
    return state


@dataclass
class Phase2Config:
    """Execution knobs; every default tracks the known-horizon run."""

    ucb_scale: Optional[float] = None  # None: sigma + 2 * C2
    M: Optional[int] = None  # None: choose_M(n2, k)
    opt_value: Optional[float] = None  # None: optimal_value on the environment
    budget_cap: Optional[int] = None


@dataclass
class Phase2Result:
    arm_ids: np.ndarray
    rewards: np.ndarray
    regrets: np.ndarray  # per round, against the global optimum
    y_coords: np.ndarray
    grid: ArmGrid
    state: Ucb1State
    opt_value: float
    scale: float
    certified_rounds: int = 0  # rounds decided inside a certified window

    @property
    def cumulative_regret(self) -> float:
        return float(self.regrets.sum())


def default_ucb_scale(env: Environment) -> float:
    """Sub-Gaussian exploration scale: noise level plus the mean-reward range."""
    return env.sigma + 2.0 * env.mean.c2


def run_phase2(
    env: Environment,
    a_hat: np.ndarray,
    n2: int,
    cfg: Optional[Phase2Config] = None,
) -> Phase2Result:
    """Play exactly n2 rounds of UCB-1 on the embedded arm grid.

    The horizon is known, so one grid sized by choose_M(n2, k) suffices.
    The result is bit-identical to n2 rounds of ucb1_select, sample_reward
    and ucb1_update, without a call per round: the grid is checked against
    the action ball once, the n2 queries are charged at once, each arm's
    mean is computed once, and the noise comes NOISE_CHUNK values per rng
    call, the same stream as one standard_normal() per round.

    Most rounds need not evaluate the whole index vector.  After a round t
    that did and pulled arm w, theta is the CERT_RANK-th largest index among
    the other arms.  Until an arm is pulled its counts and mean are frozen,
    and its index can only grow with 2 log t (each rounded step is monotone),
    so CERT_RANK arms keep an index >= theta until CERT_RANK of them are
    pulled.  A window then opens: with L = 2 log(t + CERT_WINDOW), its
    candidates are the arms whose index at L, with the stats after round t,
    is >= theta.  Each round whose own 2 log t is <= L evaluates only the
    candidates, in ascending order, keeping the first maximum.  If that
    maximum is >= theta, every other arm is frozen and strictly below theta,
    so the candidate is numpy's first argmax over the grid: the round is
    certified.  Otherwise (or once 2 log t > L) the window closes and the
    round evaluates the full vector.  No step assumes libm's log is
    monotone; an out-of-order log only closes a window early.  The indices
    are finite because sigma, nu and the scale are finite.
    """
    cfg = cfg or Phase2Config()
    a_hat = np.asarray(a_hat, dtype=float)
    if n2 < 1:
        raise ValueError(f"n2 must be >= 1, got {n2}")
    if a_hat.ndim != 2 or a_hat.shape[1] != env.d:
        raise ValueError(
            f"basis shape {a_hat.shape} does not match ambient dimension {env.d}"
        )
    if cfg.budget_cap is not None and env.query_count + n2 > cfg.budget_cap:
        raise BudgetError(
            f"insufficient budget: need {n2} rounds but only "
            f"{cfg.budget_cap - env.query_count} queries remain"
        )
    scale = default_ucb_scale(env) if cfg.ucb_scale is None else float(cfg.ucb_scale)
    if cfg.opt_value is None:
        opt_value, _ = optimal_value(env)
    else:
        opt_value = float(cfg.opt_value)

    M = choose_M(n2, a_hat.shape[0]) if cfg.M is None else int(cfg.M)
    grid = build_arm_grid(a_hat, M, env.nu)
    n_arms = grid.n_arms
    state = fresh_ucb_state(n_arms, scale)
    check_points(env, grid.arms)
    # each arm's mean exactly as sample_reward computes it at that arm
    arm_means = [float(mean_value(env.mean, env.A @ x)) for x in grid.arms]
    env.query_count += n2

    counts = [0] * n_arms
    means = [0.0] * n_arms
    counts_f = np.zeros(n_arms)  # float mirror of counts for the full index
    means_a = state.means  # mirror of means for the full index
    index = np.empty(n_arms)
    upper = np.empty(n_arms)
    arm_ids = np.empty(n2, dtype=np.int64)
    rewards = np.empty(n2)
    arm_means_a = np.array(arm_means)
    rank = min(CERT_RANK, n_arms - 1)
    window = []  # candidates of the open window, ascending; empty when closed
    first = wait = backoff = certified = 0
    theta = two_log_last = 0.0
    log, sqrt = math.log, math.sqrt
    divide, root, multiply, add = np.divide, np.sqrt, np.multiply, np.add
    for start in range(0, n2, NOISE_CHUNK):
        stop = min(start + NOISE_CHUNK, n2)
        noise = env.sigma * env.rng.standard_normal(stop - start)
        chunk = []
        for t, z in zip(range(start, stop), noise.tolist()):
            if window:
                two_log_t = 2.0 * log(t)
                best, arm = -math.inf, -1
                if two_log_t <= two_log_last:
                    for a in window:
                        value = sqrt(two_log_t / counts[a]) * scale + means[a]
                        if value > best:
                            best, arm = value, a
                if best >= theta:
                    certified += 1
                else:  # close the window: refresh the mirrors, maybe back off
                    for a in window:
                        counts_f[a] = counts[a]
                        means_a[a] = means[a]
                    if t - first < CERT_MIN_ROUNDS:
                        backoff = min(2 * backoff or CERT_MIN_ROUNDS, CERT_MAX_WAIT)
                        wait = backoff
                    else:
                        backoff = 0
                    window = []
            if not window:
                if t < n_arms:
                    arm = t
                else:
                    divide(2.0 * log(t), counts_f, out=index)
                    root(index, out=index)
                    multiply(index, scale, out=index)
                    add(index, means_a, out=index)
                    arm = int(index.argmax())
            reward = arm_means[arm] + z
            count = counts[arm] + 1
            mean = means[arm]
            mean += (reward - mean) / count
            counts[arm] = count
            means[arm] = mean
            chunk.append(arm)
            if window:
                continue
            counts_f[arm] = count
            means_a[arm] = mean
            if wait:
                wait -= 1
                continue
            if not n_arms <= t < n2 - 1:
                continue
            # open a window; a grid has at least 3 arms, so rank >= 1 here.
            # theta ranks the other arms; argmax pages in no code that
            # np.partition would (about 0.25 MB of resident memory)
            index[arm] = -math.inf
            for _ in range(rank):
                top = index.argmax()
                theta = float(index[top])
                index[top] = -math.inf
            first = t + 1
            two_log_last = 2.0 * log(t + CERT_WINDOW)
            divide(two_log_last, counts_f, out=upper)
            root(upper, out=upper)
            multiply(upper, scale, out=upper)
            add(upper, means_a, out=upper)
            window = np.flatnonzero(upper >= theta).tolist()
        arm_ids[start:stop] = chunk
        rewards[start:stop] = arm_means_a[arm_ids[start:stop]] + noise
    means_a[:] = means
    state.counts[:] = counts
    state.t = n2
    arm_true_means = mean_value(env.mean, grid.arms @ env.A.T)

    return Phase2Result(
        arm_ids=arm_ids,
        rewards=rewards,
        regrets=opt_value - arm_true_means[arm_ids],
        y_coords=grid.lattice_points[arm_ids],
        grid=grid,
        state=state,
        opt_value=opt_value,
        scale=scale,
        certified_rounds=certified,
    )
