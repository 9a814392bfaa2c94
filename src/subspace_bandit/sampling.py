"""Phase-1 sampling: base points, probe directions, and finite-difference
measurements of the gradient matrix.

The measurement operator maps a d x m_X matrix X to the m_Phi numbers
Phi(X)_i = sum_j phi_{i,j}^T X[:, j].  With X holding the mean-reward
gradients at the base points, one-sided finite differences of rewards along
the probe directions produce noisy linear measurements of X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .envs import DomainError, Environment, _project, _query_projections
from .util import uniform_sphere

PLAN_SLACK = 1e-12
SKETCH_CHUNK = 256  # probe directions made float, queried and summed at once


def _float_chunks(sets: "SamplingSets"):
    """(start, stop, float signs[start:stop]) over chunks of at most
    SKETCH_CHUNK directions, each unpacked from the sign bits as exact
    2b - 1 and converted into one reused (c, m_X, d) buffer, so a chunk is
    valid only until the next one is drawn.  A chunk of SKETCH_CHUNK rows is
    a whole number of bytes, so it starts on a byte; any other start is
    unpacked from the byte that holds it."""
    m_phi, row = sets.m_Phi, sets.m_X * sets.d
    buffer = np.empty((min(SKETCH_CHUNK, m_phi), sets.m_X, sets.d))
    for a in range(0, m_phi, SKETCH_CHUNK):
        b = min(a + SKETCH_CHUNK, m_phi)
        chunk = buffer[: b - a]
        skip = a * row % 8
        bits = np.unpackbits(sets.bits[a * row // 8 : -(-b * row // 8)], count=skip + (b - a) * row)
        signs = bits[skip:].view(np.int8)
        signs *= 2
        signs -= 1
        np.copyto(chunk, signs.reshape(chunk.shape), casting="unsafe")
        yield a, b, chunk


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


@dataclass(frozen=True)
class SamplingSets:
    """Realized base points and probe directions.

    points: (m_X, d), unit rows.  bits: the m_Phi * m_X * d signs of the
    (m_Phi, m_X, d) sketch S, one bit each in ``np.unpackbits`` order
    (sign 2b - 1), packed into uint8; the probe directions are
    S / sqrt(m_Phi), one bit per entry instead of 64.  Phase 1 unpacks a
    chunk of SKETCH_CHUNK directions at a time; the float directions as one
    array exist only when ``directions`` or ``flat_operator`` (analysis,
    wide solves) asks for them.  The fields are checked once and frozen,
    since the compiled Gram counts read the bits by their length.
    """

    points: np.ndarray
    bits: np.ndarray
    m_Phi: int

    def __post_init__(self):
        if self.m_Phi < 1:
            raise ValueError(f"m_Phi must be >= 1, got {self.m_Phi}")
        size = -(-self.m_Phi * self.m_X * self.d // 8)
        if self.bits.dtype != np.uint8 or self.bits.shape != (size,):
            raise ValueError(
                f"bits must be uint8 of shape {(size,)}, got {self.bits.dtype} {self.bits.shape}"
            )

    @property
    def m_X(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def tall(self) -> bool:
        """A sketch with more rows than unknowns is solved in Gram form."""
        return self.m_Phi > self.d * self.m_X

    @property
    def scale(self) -> float:
        """The magnitude 1/sqrt(m_Phi) of every direction entry."""
        return 1.0 / np.sqrt(self.m_Phi)

    def _scaled(self, bits: np.ndarray) -> np.ndarray:
        """Unpacked bits b as floats (2b - 1) / sqrt(m_Phi), exactly +/- scale."""
        out = bits * (2.0 * self.scale)
        out -= self.scale
        return out

    def _unpacked_bits(self) -> np.ndarray:
        """(m_Phi, m_X, d) uint8 bits, built afresh."""
        count = self.m_Phi * self.m_X * self.d
        return np.unpackbits(self.bits, count=count).reshape(self.m_Phi, self.m_X, self.d)

    @property
    def directions(self) -> np.ndarray:
        """(m_Phi, m_X, d) float directions, built afresh and read-only."""
        out = self._scaled(self._unpacked_bits())
        out.flags.writeable = False
        return out

    def flat_operator(self) -> np.ndarray:
        """The (m_Phi, d * m_X) matrix F with Phi(X) = F @ X.ravel()."""
        bits = self._unpacked_bits().transpose(0, 2, 1).reshape(self.m_Phi, self.d * self.m_X)
        return self._scaled(bits)

    def gram(self) -> np.ndarray:
        """The exact integer Gram S^T S = m_Phi F^T F, as int32.

        gram_counts in _kernels.c (built at first use, see _kernels.load)
        gathers each column of S from the sign bits, 64 directions per word,
        by 64 x 64 bit-block transposes, and counts entry (p, q) as
        m_Phi - 2 popcount(b_p XOR b_q).  The pair loop uses AVX-512
        VPOPCNTDQ where the processor has it, else scalar popcounts; both
        give the same integers.  Every count lies in [-m_Phi, m_Phi], so a
        sketch of 2^31 or more directions is refused.
        """
        if self.m_Phi >= 2**31:
            raise ValueError(f"int32 counts need m_Phi < 2**31, got {self.m_Phi}")
        bits = np.ascontiguousarray(self.bits)
        width = self.d * self.m_X
        columns = np.empty((width, -(-self.m_Phi // 64)), dtype=np.uint64)
        counts = np.empty((width, width), dtype=np.int32)
        _kernels.load().gram_counts(
            bits.ctypes.data, self.m_Phi, self.m_X, self.d, columns.ctypes.data, counts.ctypes.data
        )
        return counts


def draw_sampling_sets(plan: SamplingPlan, d: int, rng) -> SamplingSets:
    """Draw base points (uniform on S^{d-1}) and Rademacher probe directions.

    rng may be an integer seed or a numpy Generator.  Points are drawn before
    directions, so the layout is reproducible from the seed alone.  Each
    sign is 2b - 1 for a bit b of one uint8 draw, in ``np.unpackbits`` order.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    points = uniform_sphere(rng, plan.m_X, d)
    count = plan.m_Phi * plan.m_X * d
    bits = rng.integers(0, 256, -(-count // 8), dtype=np.uint8)
    return SamplingSets(points=points, bits=bits, m_Phi=plan.m_Phi)


def _adjoint_term(chunk: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_i v_i S_i over one chunk of float signs (c, m_X, d), flattened
    (m_X * d); summing these over the chunks of SKETCH_CHUNK directions and
    finishing with :func:`_adjoint_matrix` is the one rule for Phi^*."""
    return v @ chunk.reshape(v.shape[0], -1)


def _adjoint_matrix(sets: SamplingSets, flat: np.ndarray) -> np.ndarray:
    """The summed chunk terms scaled once by 1/sqrt(m_Phi), as (d, m_X)."""
    flat *= sets.scale
    return np.ascontiguousarray(flat.reshape(sets.m_X, sets.d).T)


def apply_adjoint(sets: SamplingSets, v: np.ndarray) -> np.ndarray:
    """Phi^*(v) = sum_i v_i Phi_i, a (d, m_X) matrix.

    Sums ``S^T v`` over chunks of SKETCH_CHUNK sign rows and scales once, on
    either shape, so the flat operator is never built.  A collection's
    ``adjoint_y`` is this rule applied to its y, bit for bit.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (sets.m_Phi,):
        raise ValueError(f"v must have shape {(sets.m_Phi,)}, got {v.shape}")
    flat = np.zeros(sets.m_X * sets.d)
    for a, b, chunk in _float_chunks(sets):
        flat += _adjoint_term(chunk, v[a:b])
    return _adjoint_matrix(sets, flat)


@dataclass
class MeasurementBundle:
    """One collection's outputs: the measurement vector plus bookkeeping.

    adjoint_y is Phi^*(y), equal to ``apply_adjoint(sets, y)`` bit for bit.
    *_means are the noise-free mean rewards the queries computed:
    shifted_means is (m_Phi, m_X), base_means (m_X,).
    """

    y: np.ndarray
    adjoint_y: np.ndarray
    sets: SamplingSets
    plan: SamplingPlan
    budget_used: int
    base_means: np.ndarray
    shifted_means: np.ndarray


def collect_measurements(env: Environment, sets: SamplingSets, plan: SamplingPlan) -> MeasurementBundle:
    """Query the environment at base and shifted points and form y and Phi^*(y).

    Every distinct point is queried N times and averaged; y_i sums, over
    the base points j, the averaged reward at x_j + epsilon * phi_{i,j}
    minus the one at x_j, divided by epsilon.  Every direction has norm
    ``reach = epsilon * sqrt(d / m_Phi)``, so no shifted point lies further
    out than ``max_j ||x_j|| + reach``; that bound is checked against the
    action ball before the first query, so an infeasible plan costs no
    budget and draws no noise.  Base points are queried first, then shifted
    points grouped by direction index, in one pass over chunks of
    SKETCH_CHUNK directions.  Each chunk of signs becomes float once; the
    mean reward depends on a point only through its projection, so a
    shifted point is queried as ``A x_j + (epsilon / sqrt(m_Phi)) * (A s_ij)``
    and never built (its mean agrees with the built point's to rounding).
    The same float chunk then gives y's chunk and its Phi^*(y) term, so the
    bundle's adjoint_y equals ``apply_adjoint(sets, y)`` bit for bit and the
    solver never walks the signs again.
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
    worst = float(np.max(np.linalg.norm(sets.points, axis=1))) + reach
    if not worst <= 1.0 + env.nu + PLAN_SLACK:
        raise DomainError(
            f"shifted point outside the action ball: max norm {worst:.12g} > {1.0 + env.nu:.12g}"
        )

    start = env.query_count
    base = _project(env, sets.points)
    base_means, averaged_base = _query_projections(env, base, plan.N)
    shifted_means = np.empty((plan.m_Phi, plan.m_X))
    y = np.empty(plan.m_Phi)
    flat = np.zeros(sets.m_X * sets.d)
    step = plan.epsilon * sets.scale
    for a, b, chunk in _float_chunks(sets):
        shifted = base + step * _project(env, chunk.reshape(-1, sets.d)).reshape(b - a, plan.m_X, -1)
        means, averages = _query_projections(env, shifted.reshape(-1, base.shape[1]), plan.N)
        shifted_means[a:b] = means.reshape(b - a, plan.m_X)
        y[a:b] = (averages.reshape(b - a, plan.m_X) - averaged_base).sum(axis=1) / plan.epsilon
        flat += _adjoint_term(chunk, y[a:b])
    used = env.query_count - start
    expected = plan.budget()
    if used != expected:
        raise RuntimeError(f"budget accounting broken: used {used}, expected {expected}")
    return MeasurementBundle(
        y=y,
        adjoint_y=_adjoint_matrix(sets, flat),
        sets=sets,
        plan=plan,
        budget_used=used,
        base_means=base_means,
        shifted_means=shifted_means,
    )
