"""Phase-1 sampling: base points, probe directions, and finite-difference
measurements of the gradient matrix.

The measurement operator maps a d x m_X matrix X to the m_Phi numbers
Phi(X)_i = sum_j phi_{i,j}^T X[:, j].  With X holding the mean-reward
gradients at the base points, one-sided finite differences of rewards along
the probe directions produce noisy linear measurements of X.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .envs import (
    DomainError,
    Environment,
    _query_points,
    check_points,
    gradient_mean_reward,
    mean_hess,
)
from .util import uniform_sphere

UNIT_NORM_TOL = 1e-12
PLAN_SLACK = 1e-12
SKETCH_CHUNK = 256  # probe directions drawn, shifted, queried or summed at once
# float32 sums of +/-1 terms are exact integers while fewer terms than this add up
EXACT_FLOAT32_TERMS = 2**24


def _chunks(m_phi: int):
    """(start, stop) ranges of at most SKETCH_CHUNK direction indices."""
    return ((a, min(a + SKETCH_CHUNK, m_phi)) for a in range(0, m_phi, SKETCH_CHUNK))


@dataclass(frozen=True)
class SamplingPlan:
    """Sizes and step length for one measurement collection.

    m_X base points on the unit sphere, m_Phi probe directions per base
    point, finite-difference step epsilon, and resampling factor N (each
    distinct point is queried N times and averaged).
    """

    m_X: int
    m_Phi: int
    epsilon: float
    N: int = 1

    def __post_init__(self):
        if self.m_X < 1:
            raise ValueError(f"m_X must be >= 1, got {self.m_X}")
        if self.m_Phi < 1:
            raise ValueError(f"m_Phi must be >= 1, got {self.m_Phi}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")

    def budget(self) -> int:
        """Queries consumed by one collection: N * m_X * (m_Phi + 1)."""
        return self.N * self.m_X * (self.m_Phi + 1)

    def step_reach(self, d: int) -> float:
        """Worst-case distance a shifted point moves off the sphere:
        epsilon * ||phi|| = epsilon * sqrt(d / m_Phi)."""
        return self.epsilon * np.sqrt(d / self.m_Phi)


@dataclass
class SamplingSets:
    """Realized base points and probe directions.

    points: (m_X, d), unit rows.  signs: (m_Phi, m_X, d) int8 entries +/- 1;
    the probe directions are signs / sqrt(m_Phi), one byte per entry instead
    of eight.  Phase 1 works on the signs a chunk of SKETCH_CHUNK directions
    at a time; the float directions as one array exist only when
    ``directions`` or ``flat_operator`` (analysis, wide solves) asks for them.
    """

    points: np.ndarray
    signs: np.ndarray
    _flat: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _gram: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def m_X(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def m_Phi(self) -> int:
        return self.signs.shape[0]

    @property
    def scale(self) -> float:
        """The magnitude 1/sqrt(m_Phi) of every direction entry."""
        return 1.0 / np.sqrt(self.m_Phi)

    @property
    def directions(self) -> np.ndarray:
        """(m_Phi, m_X, d) float directions, built afresh and read-only."""
        out = self.signs * self.scale
        out.flags.writeable = False
        return out

    def flat_operator(self) -> np.ndarray:
        """The (m_Phi, d * m_X) matrix F with Phi(X) = F @ X.ravel()."""
        if self._flat is None:
            flat_signs = self.signs.transpose(0, 2, 1).reshape(self.m_Phi, self.d * self.m_X)
            self._flat = flat_signs * self.scale
        return self._flat

    def sign_rows(self, dtype):
        """Yield ``(start, stop, S)`` per chunk, with ``S * scale == F[start:stop]``.

        S holds the chunk's signs as ``dtype``, columns in F's order, so
        sums over the rows of F never need more than one chunk of floats.
        """
        width = self.d * self.m_X
        for start, stop in _chunks(self.m_Phi):
            block = self.signs[start:stop].transpose(0, 2, 1).astype(dtype, order="C")
            yield start, stop, block.reshape(stop - start, width)

    def gram(self) -> np.ndarray:
        """G = F^T F as the integer S^T S / m_Phi, correctly rounded.  Cached.

        S^T S is summed chunk by chunk in float32, which is exact while
        m_Phi < EXACT_FLOAT32_TERMS (float64 beyond), so G does not depend on
        the chunk size; the one rounding is the final division.
        """
        if self._gram is None:
            dtype = np.float32 if self.m_Phi < EXACT_FLOAT32_TERMS else np.float64
            width = self.d * self.m_X
            counts = np.zeros((width, width), dtype=dtype)
            for _, _, rows in self.sign_rows(dtype):
                counts += rows.T @ rows
            gram = counts.astype(float)
            gram /= self.m_Phi
            self._gram = gram
        return self._gram


def draw_sampling_sets(plan: SamplingPlan, d: int, rng) -> SamplingSets:
    """Draw base points (uniform on S^{d-1}) and Rademacher probe directions.

    rng may be an integer seed or a numpy Generator.  Points are drawn before
    directions, so the layout is reproducible from the seed alone.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    points = uniform_sphere(rng, plan.m_X, d)
    signs = np.empty((plan.m_Phi, plan.m_X, d), dtype=np.int8)
    for start, stop in _chunks(plan.m_Phi):
        # chunked draws continue one stream: the same bits as a single draw
        signs[start:stop] = 2 * rng.integers(0, 2, size=(stop - start, plan.m_X, d)) - 1
    return SamplingSets(points=points, signs=signs)


def apply_operator(sets: SamplingSets, X: np.ndarray) -> np.ndarray:
    """Phi(X): contract each direction block against the columns of X."""
    X = np.asarray(X, dtype=float)
    if X.shape != (sets.d, sets.m_X):
        raise ValueError(f"X must have shape {(sets.d, sets.m_X)}, got {X.shape}")
    return sets.flat_operator() @ X.ravel()


def apply_adjoint(sets: SamplingSets, v: np.ndarray) -> np.ndarray:
    """Phi^*(v) = sum_i v_i Phi_i, a d x m_X matrix."""
    v = np.asarray(v, dtype=float)
    if v.shape != (sets.m_Phi,):
        raise ValueError(f"v must have shape {(sets.m_Phi,)}, got {v.shape}")
    return (sets.flat_operator().T @ v).reshape(sets.d, sets.m_X)


@dataclass
class MeasurementBundle:
    """One collection's outputs: the measurement vector plus bookkeeping.

    *_means are the noise-free mean rewards the queries computed:
    shifted_means is (m_Phi, m_X), base_means (m_X,).
    """

    y: np.ndarray
    sets: SamplingSets
    plan: SamplingPlan
    budget_used: int
    base_means: np.ndarray
    shifted_means: np.ndarray


def _shifted_block(sets: SamplingSets, step: float, start: int, stop: int) -> np.ndarray:
    """Shifted points of directions start..stop-1, rows grouped by direction.

    step is epsilon * sets.scale, so sign * step equals epsilon * phi
    bit for bit.
    """
    return (sets.points + sets.signs[start:stop] * step).reshape(-1, sets.d)


def shifted_points(sets: SamplingSets, epsilon: float) -> np.ndarray:
    """All shifted query points, shape (m_Phi * m_X, d), grouped by direction
    index i (rows i * m_X + j hold x_j + epsilon * phi_{i,j})."""
    return _shifted_block(sets, epsilon * sets.scale, 0, sets.m_Phi)


def collect_measurements(env: Environment, sets: SamplingSets, plan: SamplingPlan) -> MeasurementBundle:
    """Query the environment at base and shifted points and form y.

    Every distinct point is queried N times and averaged; y_i sums, over
    the base points j, the averaged reward at x_j + epsilon * phi_{i,j}
    minus the one at x_j, divided by epsilon.  Base points are
    queried first, then shifted points grouped by direction index.  Shifted
    points exist SKETCH_CHUNK directions at a time, in two passes: the
    first builds every chunk and checks it against the action ball, the
    second rebuilds each chunk and queries it.  So all domain checks happen
    before the first query, and an infeasible plan costs no budget and
    draws no noise.  Each y_i is formed with its chunk, and the result
    equals one query of all points at once bit for bit.
    """
    if sets.d != env.d:
        raise ValueError(f"sets have d = {sets.d} but environment has d = {env.d}")
    if (sets.m_Phi, sets.m_X) != (plan.m_Phi, plan.m_X):
        raise ValueError(
            f"sets have (m_Phi, m_X) = {(sets.m_Phi, sets.m_X)} but the plan has "
            f"{(plan.m_Phi, plan.m_X)}"
        )
    reach = plan.step_reach(env.d)
    if reach > env.nu + PLAN_SLACK:
        raise DomainError(
            f"step size infeasible: epsilon * sqrt(d / m_Phi) = {reach:.6g} exceeds nu = {env.nu:.6g}"
        )
    step = plan.epsilon * sets.scale
    chunks = list(_chunks(plan.m_Phi))
    worst = max(
        float(np.max(np.linalg.norm(_shifted_block(sets, step, a, b), axis=1))) for a, b in chunks
    )
    if worst > 1.0 + env.nu + PLAN_SLACK:
        raise DomainError(
            f"shifted point outside the action ball: max norm {worst:.12g} > {1.0 + env.nu:.12g}"
        )
    check_points(env, sets.points)

    start = env.query_count
    base_means, averaged_base = _query_points(env, sets.points, plan.N)
    shifted_means = np.empty((plan.m_Phi, plan.m_X))
    y = np.empty(plan.m_Phi)
    for a, b in chunks:
        means, averages = _query_points(env, _shifted_block(sets, step, a, b), plan.N)
        shifted_means[a:b] = means.reshape(b - a, plan.m_X)
        y[a:b] = (averages.reshape(b - a, plan.m_X) - averaged_base).sum(axis=1) / plan.epsilon
    used = env.query_count - start
    expected = plan.budget()
    if used != expected:
        raise RuntimeError(f"budget accounting broken: used {used}, expected {expected}")
    return MeasurementBundle(
        y=y,
        sets=sets,
        plan=plan,
        budget_used=used,
        base_means=base_means,
        shifted_means=shifted_means,
    )


# ---------- analysis helpers ----------


def phase1_target(env: Environment, sets: SamplingSets) -> np.ndarray:
    """The matrix the measurements are linear in: columns are mean-reward
    gradients at the base points (rank <= k).  Free of budget."""
    cols = [gradient_mean_reward(env, x) for x in sets.points]
    return np.stack(cols, axis=1)


def second_order_residual(env: Environment, sets: SamplingSets, epsilon: float) -> np.ndarray:
    """Closed-form curvature term: at sigma = 0, y - Phi(X) equals
    (epsilon / 2) * sum_j phi^T hess phi, exact for families with constant
    Hessian (linear and the quadratics)."""
    family = env.mean.family
    if family not in ("linear", "norm-squared", "centered-quadratic"):
        raise ValueError(f"no closed-form curvature term for family {family!r}")
    Hg = mean_hess(env.mean, np.zeros(env.k))
    AD = sets.directions @ env.A.T  # (m_Phi, m_X, k)
    quad = np.einsum("ijk,kl,ijl->i", AD, Hg, AD)
    return 0.5 * epsilon * quad


def second_order_bound(plan: SamplingPlan, d: int, c2: float, k: int) -> float:
    """Magnitude bound on the curvature term:
    (epsilon / 2) * C2 * k^2 * m_X * (d / m_Phi)."""
    return 0.5 * plan.epsilon * c2 * k**2 * plan.m_X * (d / plan.m_Phi)


def rip_ratio(sets: SamplingSets, X: np.ndarray) -> float:
    """||Phi(X)||^2 / ||X||_F^2 (scale-invariant by construction)."""
    X = np.asarray(X, dtype=float)
    fro2 = float(np.sum(X * X))
    if fro2 == 0.0:
        raise ValueError("X must be nonzero")
    v = apply_operator(sets, X)
    return float(v @ v) / fro2


def rip_ratio_sample(sets: SamplingSets, k: int, trials: int, rng) -> tuple:
    """Range of the isometry ratio over random rank-k matrices.

    Each trial draws X = L @ R with Gaussian factors (rank k almost surely),
    Frobenius-normalized.  Returns (min ratio, max ratio) over the trials.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    lo, hi = np.inf, -np.inf
    for _ in range(trials):
        L = rng.standard_normal((sets.d, k))
        R = rng.standard_normal((k, sets.m_X))
        X = L @ R
        X /= np.linalg.norm(X)
        ratio = rip_ratio(sets, X)
        lo = min(lo, ratio)
        hi = max(hi, ratio)
    return lo, hi
