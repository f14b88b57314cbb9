"""Proximal operators of the structure-inducing norms and their ball projections.

Every operator returns a :class:`ProxResult` carrying the minimizer, the
objective value tau*f(x) + 0.5*||y - x||^2, and an optimality residual: the
distance from y - x to the tau-scaled subdifferential at the minimizer,
which is zero exactly when x solves the proximal problem.

Each operator moves only the magnitudes of :func:`proxmse.signals.split`
(|entries|, block norms or singular values) and rebuilds the point from
them: the prox (:func:`prox_step`) shrinks them by tau times their
weights, the ball projection (:func:`project_ball`) shrinks them by the
threshold of the l1 ball of magnitudes, and the dual norm
(:func:`dual_norm`) is their largest value. The thresholds
``soft_threshold``, ``weighted_soft_threshold``, ``block_soft_threshold``
and ``singular_value_threshold`` are :func:`prox_step` at the zero
structure of their norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidStructureError, require_nonneg
from .signals import (
    BlockSparseStructure,
    LowRankStructure,
    SignalInstance,
    SignalStructure,
    SparseStructure,
    WeightedSparseStructure,
    split,
)

# the families with a ball projection and a dual norm
BALL_KINDS = ("l1", "l12", "nuclear")


@dataclass(frozen=True)
class ProxResult:
    minimizer: np.ndarray
    objective: float
    residual: float


def prox_step(s: SignalStructure, y, tau: float) -> ProxResult:
    """The prox of tau times the norm of structure s at y.

    y is a vector of the structure's ambient dimension, or for the nuclear
    norm also a square matrix; the minimizer comes back in y's layout. Each
    magnitude m_j of y becomes max(m_j - tau * w_j, 0), with w_j the
    structure's ``coordinate_weights``.
    """
    tau = require_nonneg(tau, "tau")
    y = np.asarray(y, dtype=float)
    mags, rebuild = split(y, s.family, s.block_size)
    level = tau * s.coordinate_weights
    shrunk = np.maximum(mags - level, 0.0)
    x = rebuild(shrunk)
    obj = (level * shrunk).sum() + 0.5 * ((y - x) ** 2).sum()
    return ProxResult(x, float(obj), prox_residual(s, y, x, tau))


def soft_threshold(y, tau: float) -> ProxResult:
    """Shrink each entry of the vector y toward zero by tau; kills entries with |y_i| < tau."""
    return weighted_soft_threshold(y, tau, 1.0)


def weighted_soft_threshold(y, tau: float, weights) -> ProxResult:
    """Soft threshold with per-coordinate level tau * w_i (a scalar w: one level)."""
    tau = require_nonneg(tau, "tau")
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not (w >= 0).all():
        raise ValueError("weights must be nonnegative")
    if not w.ndim:
        return prox_step(_zero_structure("l1", y.size, None), y, tau * float(w))
    # one region per coordinate
    w = np.broadcast_to(w, y.shape).ravel()
    return prox_step(WeightedSparseStructure(y.size, [], [], np.arange(y.size), w), y, tau)


def block_soft_threshold(y, tau: float, block_size: int) -> ProxResult:
    """Scale each size-b block y_b by max(||y_b|| - tau, 0) / ||y_b||."""
    return prox_step(_zero_structure("l12", np.size(y), block_size), y, tau)


def singular_value_threshold(y, tau: float) -> ProxResult:
    """Soft threshold the singular values of a square matrix.

    Accepts a (d, d) matrix or its column-major flattening; the minimizer is
    returned in the same layout as the input.
    """
    return prox_step(_zero_structure("nuclear", np.size(y), None), y, tau)


# ---------------------------------------------------------------------------
# Euclidean projections onto norm balls, and the dual norms
# ---------------------------------------------------------------------------

def _l1_ball_shrink(mags: np.ndarray, radius: float) -> float:
    """Threshold theta such that sum max(mags - theta, 0) = radius (mags outside)."""
    u = np.sort(mags)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    ok = u > (css - radius) / j
    rho = int(np.max(np.flatnonzero(ok))) + 1
    return float((css[rho - 1] - radius) / rho)


def _ball_kind(kind: str) -> str:
    if kind not in BALL_KINDS:
        raise ValueError(f"unknown ball kind {kind!r}")
    return kind


def project_ball(y, kind: str, radius: float, *, block_size: int | None = None) -> np.ndarray:
    """Euclidean projection onto {x : f(x) <= radius} for f in {l1, l1,2, nuclear}.

    The magnitudes (|entries|, block norms, singular values) are projected
    onto the l1 ball by the sort-then-threshold rule. Points already inside
    the ball are returned unchanged.
    """
    radius = require_nonneg(radius, "radius")
    y = np.asarray(y, dtype=float)
    if radius == 0:
        return np.zeros_like(y)
    mags, rebuild = split(y, _ball_kind(kind), block_size)
    if mags.sum() <= radius:
        return y.copy()
    theta = _l1_ball_shrink(mags.ravel(), radius)
    return rebuild(np.maximum(mags - theta, 0.0))


def dual_norm(g: np.ndarray, kind: str, block_size: int | None = None) -> float:
    """Dual of the family's norm: the largest magnitude (entry, block norm, singular value)."""
    return float(np.max(split(g, _ball_kind(kind), block_size)[0]))


@dataclass(frozen=True)
class BallSpec:
    kind: str                      # "l1" | "l12" | "nuclear"
    radius: float
    block_size: int | None = None

    def project(self, x: np.ndarray) -> np.ndarray:
        return project_ball(x, self.kind, self.radius, block_size=self.block_size)

    def dual_norm(self, g: np.ndarray) -> float:
        return dual_norm(g, self.kind, self.block_size)


def ball_for(inst: SignalInstance) -> BallSpec:
    """The level-set ball {f(x) <= f(x0)} of the instance's structure norm."""
    s = inst.structure
    if s.family not in BALL_KINDS:
        raise InvalidStructureError(f"no ball projection for {type(s).__name__}")
    return BallSpec(s.family, s.norm(inst.values), s.block_size)


# ---------------------------------------------------------------------------
# Optimality residuals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _zero_structure(kind: str, size: int, block_size: int | None) -> SignalStructure:
    """The structure of the zero vector of length ``size`` under a norm family.

    Structures are immutable, so one per (family, size) serves every call.
    """
    # one magnitude per coordinate, block or matrix row; split checks the layout
    count = split(np.zeros(size), kind, block_size)[0].size
    if kind == "l1":
        return SparseStructure(count, [], [])
    if kind == "l12":
        return BlockSparseStructure(count, block_size, [], np.zeros((0, block_size)))
    if kind == "nuclear":
        return LowRankStructure(count, 0, np.zeros((count, 0)), np.zeros((count, 0)))
    raise InvalidStructureError(f"unknown norm family {kind!r}")


def prox_residual(spec, y, x_star, tau: float, *, block_size: int | None = None) -> float:
    """Distance from y - x_star to the tau-scaled subdifferential at x_star.

    A value <= tolerance certifies that x_star solves
    argmin_x tau*f(x) + 0.5*||y - x||^2. ``spec`` is a SignalStructure (for
    the weighted norm it supplies regions and weights) or one of the family
    tags 'l1', 'l12', 'nuclear'. Optimality needs a subgradient at the
    minimizer, so the structure is taken at x_star (its ``at`` method), not
    at the signal the problem started from. The distance is measured to the
    projection, a sum of squared differences, and not by the expanded scale
    profile: near an optimum that quadratic cancels to rounding noise of
    order 1e-16 * ||y - x_star||^2, whose square root is far above 1e-8.
    """
    y = np.asarray(y, dtype=float).ravel()
    x_star = np.asarray(x_star, dtype=float).ravel()
    if x_star.shape != y.shape:
        raise ValueError("x_star must match the dimension of y")
    tau = require_nonneg(tau, "tau")
    if tau == 0:
        return float(np.linalg.norm(y - x_star))
    s = _zero_structure(spec, y.size, block_size) if isinstance(spec, str) else spec
    g = y - x_star
    return float(np.linalg.norm(g - s.at(x_star).project_subdiff(g, tau)))
