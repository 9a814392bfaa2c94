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

from .envs import Environment, mean_value, optimal_value, sample_reward

GRID_SLACK = 1e-9


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
    if scale < 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    return Ucb1State(
        counts=np.zeros(n_arms, dtype=np.int64),
        means=np.zeros(n_arms, dtype=float),
        t=0,
        scale=float(scale),
    )


def ucb1_select(state: Ucb1State) -> int:
    """Lowest-index unpulled arm first; afterwards the argmax of the index.

    Index of arm a is means[a] + scale * sqrt(2 log t / counts[a]); ties go
    to the lowest index (numpy argmax keeps the first maximum).
    """
    unpulled = np.flatnonzero(state.counts == 0)
    if unpulled.size:
        return int(unpulled[0])
    bonus = state.scale * np.sqrt(2.0 * math.log(state.t) / state.counts)
    return int(np.argmax(state.means + bonus))


def ucb1_update(state: Ucb1State, arm: int, reward: float) -> Ucb1State:
    """Numerically stable running-mean update; mutates and returns the state."""
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
    state = fresh_ucb_state(grid.n_arms, scale)
    arm_ids = np.zeros(n2, dtype=np.int64)
    rewards = np.zeros(n2, dtype=float)
    for i in range(n2):
        arm = ucb1_select(state)
        reward = sample_reward(env, grid.arms[arm])
        ucb1_update(state, arm, reward)
        arm_ids[i] = arm
        rewards[i] = reward
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
    )

