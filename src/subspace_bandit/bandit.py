"""Phase 2: grid-discretized UCB-1 on the recovered subspace.

The recovered row-orthonormal basis turns the d-dimensional action ball into
a k-dimensional one.  We lay a lattice of step 1/M over that low-dimensional
ball, embed each retained lattice point back into action space, and run a
sub-Gaussian UCB-1 index policy over the resulting finite arm set.  The
rounds run in a small C loop (phase2_rounds in _kernels.c), built with the
system's C compiler at the first call and cached beside the bytecode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .envs import (
    Environment,
    _reward_noise,
    check_points,
    check_row_orthonormal,
    mean_value,
    optimal_value,
)

GRID_SLACK = 1e-9
BASIS_TOL = 1e-8  # ||AA^T - I||_F allowed for a basis that phase 2 lays a grid on
NOISE_CHUNK = 1024  # noise values run_phase2 draws per rng call
# run_phase2's loop bounds every arm's index once per block of BLOCK rounds
BLOCK = 32


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
    a_hat = check_row_orthonormal(a_hat, BASIS_TOL)
    k = a_hat.shape[0]
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
    return ArmGrid(M=M, lattice_points=lattice, arms=arms)


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
    to the lowest index (numpy argmax keeps the first maximum).  This and
    ucb1_update specify run_phase2, whose compiled loop evaluates the same
    index with the same rounded steps (divide, sqrt, times scale, plus
    mean) and keeps the first maximum.
    """
    unpulled = np.flatnonzero(state.counts == 0)
    if unpulled.size:
        return int(unpulled[0])
    bonus = state.scale * np.sqrt(2.0 * math.log(state.t) / state.counts)
    return int(np.argmax(state.means + bonus))


def ucb1_update(state: Ucb1State, arm: int, reward: float) -> Ucb1State:
    """Numerically stable running-mean update; mutates and returns the state.

    run_phase2's compiled loop makes the same update, m += (r - m) / count,
    so its means equal this function's bit for bit.
    """
    if not 0 <= arm < state.n_arms:
        raise ValueError(f"arm {arm} out of range [0, {state.n_arms})")
    state.counts[arm] += 1
    state.t += 1
    state.means[arm] += (reward - state.means[arm]) / state.counts[arm]
    return state


@dataclass
class Phase2Result:
    """Each round's arm and regret, the arm grid and the final UCB-1 state."""

    arm_ids: np.ndarray
    regrets: np.ndarray  # per round, against the global optimum
    grid: ArmGrid
    state: Ucb1State


def default_ucb_scale(env: Environment) -> float:
    """Sub-Gaussian exploration scale: noise level plus the mean-reward range."""
    return env.sigma + 2.0 * env.mean.c2


def run_phase2(
    env: Environment,
    a_hat: np.ndarray,
    n2: int,
    *,
    ucb_scale: Optional[float] = None,
    M: Optional[int] = None,
    opt_value: Optional[float] = None,
) -> Phase2Result:
    """Play exactly n2 rounds of UCB-1 on the embedded arm grid.

    Regrets are taken against opt_value (default: optimal_value(env)), and
    ucb_scale defaults to default_ucb_scale(env).  The horizon is known, so
    one grid of level M = choose_M(n2, k) suffices (M = 1 when n2 = 1).
    The result is bit-identical to n2 rounds of ucb1_select, sample_reward
    and ucb1_update, without a call per round: the grid is checked against
    the action ball once, the n2 queries are charged at once, each arm's
    mean is computed once, and the noise comes NOISE_CHUNK values per rng
    call, the same stream as one standard_normal() per round (none at all
    when sigma = 0, as for sample_reward).

    The rounds run in phase2_rounds of _kernels.c, NOISE_CHUNK per call
    (built at first use, see _kernels.load).  After the sweep the loop
    bounds every arm's index once per block of BLOCK rounds and evaluates
    only the arms whose bounds exceed the running best, in numpy's
    operation order, so the winner is ucb1_select's first argmax and the
    means are ucb1_update's bit for bit.  The indices are finite because
    sigma, nu and the scale are finite.  Raises RuntimeError, before any
    query or draw, when the loop cannot be built.
    """
    a_hat = np.asarray(a_hat, dtype=float)
    if n2 < 1:
        raise ValueError(f"n2 must be >= 1, got {n2}")
    if a_hat.ndim != 2 or a_hat.shape[1] != env.d:
        raise ValueError(
            f"basis shape {a_hat.shape} does not match ambient dimension {env.d}"
        )
    kernel = _kernels.load().phase2_rounds
    scale = default_ucb_scale(env) if ucb_scale is None else float(ucb_scale)
    opt_value = optimal_value(env)[0] if opt_value is None else float(opt_value)

    if M is not None:
        M = int(M)
    elif n2 == 1:
        M = 1  # one round has nothing to balance, and choose_M needs n2 >= 2
    else:
        M = choose_M(n2, a_hat.shape[0])
    grid = build_arm_grid(a_hat, M, env.nu)
    n_arms = grid.n_arms
    state = fresh_ucb_state(n_arms, scale)
    check_points(env, grid.arms)
    # each arm's mean exactly as sample_reward computes it: A @ x per arm (a
    # matrix product rounds differently), then one mean_value over the rows
    arm_means = np.ascontiguousarray(
        mean_value(env.mean, np.array([env.A @ x for x in grid.arms])), dtype=float
    )
    env.query_count += n2

    bounds = np.empty(n_arms)  # each arm's index bound in the open block
    hi = np.zeros(1)  # the open block's largest 2 log t
    end = np.array([n_arms], dtype=np.int64)  # the round that opens the next block
    arm_ids = np.empty(n2, dtype=np.int64)
    fixed = (n2, BLOCK, n_arms, scale) + tuple(
        a.ctypes.data for a in (arm_means, state.counts, state.means, bounds, hi, end, arm_ids)
    )
    for start in range(0, n2, NOISE_CHUNK):
        stop = min(start + NOISE_CHUNK, n2)
        # held in a name while the loop reads it
        noise = np.ascontiguousarray(_reward_noise(env, stop - start), dtype=float)
        kernel(start, stop, noise.ctypes.data, *fixed)
    state.t = n2
    arm_true_means = mean_value(env.mean, grid.arms @ env.A.T)

    return Phase2Result(
        arm_ids=arm_ids, regrets=opt_value - arm_true_means[arm_ids], grid=grid, state=state
    )
