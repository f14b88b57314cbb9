"""Proximal operators of the structure-inducing norms and their ball projections.

Every operator returns a :class:`ProxResult` carrying the minimizer, the
objective value tau*f(x) + 0.5*||y - x||^2, and an optimality residual: the
distance from y - x to the tau-scaled subdifferential at the minimizer,
which is zero exactly when x solves the proximal problem.

The formulas that belong to a norm family rather than to one structure are
keyed here, once each, by the family tag of :mod:`proxmse.signals` ("l1",
"wl1", "l12", "nuclear"): the prox (:func:`prox_step`), the ball projection
(:func:`project_ball`) and the dual norm (:func:`dual_norm`).
"""

from __future__ import annotations

import math
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
    as_matrix,
    as_vector,
)

# the families with a ball projection and a dual norm
BALL_KINDS = ("l1", "l12", "nuclear")


@dataclass(frozen=True)
class ProxResult:
    minimizer: np.ndarray
    objective: float
    residual: float


def _blocks(y: np.ndarray, block_size) -> np.ndarray:
    """The 1-D array y as rows of length block_size."""
    if block_size is None or block_size < 1:
        raise ValueError(f"block size must be a positive integer, got {block_size!r}")
    if y.ndim != 1 or y.size % block_size:
        raise ValueError(f"length {y.size} not divisible by block size {block_size}")
    return y.reshape(-1, block_size)


def _square(y: np.ndarray) -> tuple[np.ndarray, bool]:
    """A square matrix from y or its column-major flattening, and whether y was flat."""
    if y.ndim == 1:
        d = int(round(np.sqrt(y.size)))
        if d * d != y.size:
            raise ValueError("flattened input must have square length")
        return as_matrix(y, d), True
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise ValueError("matrix input must be square")
    return y, False


def soft_threshold(y, tau: float) -> ProxResult:
    """Coordinatewise shrink toward zero by tau; kills entries with |y_i| < tau."""
    return weighted_soft_threshold(y, tau, 1.0)


def weighted_soft_threshold(y, tau: float, weights) -> ProxResult:
    """Soft threshold with per-coordinate level tau * w_i (a scalar w: one level)."""
    tau = require_nonneg(tau, "tau")
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not (w >= 0).all():
        raise ValueError("weights must be nonnegative")
    level = tau * w
    x = np.where(y >= level, y - level, np.where(np.abs(y) < level, 0.0, y + level))
    obj = tau * (w * np.abs(x)).sum() + 0.5 * ((y - x) ** 2).sum()
    if w.ndim:
        # one region per coordinate
        w = np.broadcast_to(w, y.shape).ravel()
        res = prox_residual(WeightedSparseStructure(y.size, [], [], np.arange(y.size), w),
                            y, x, tau)
    else:
        res = prox_residual("l1", y, x, float(level))
    return ProxResult(x, float(obj), res)


def block_soft_threshold(y, tau: float, block_size: int) -> ProxResult:
    """Scale each size-b block by max(1 - tau/||y_b||, 0)."""
    tau = require_nonneg(tau, "tau")
    y = np.asarray(y, dtype=float)
    blocks = _blocks(y, block_size)
    norms = np.linalg.norm(blocks, axis=1)
    scale = np.zeros_like(norms)
    big = norms > tau
    scale[big] = 1.0 - tau / norms[big]
    x = (blocks * scale[:, None]).reshape(-1)
    xn = np.linalg.norm(x.reshape(-1, block_size), axis=1)
    obj = tau * xn.sum() + 0.5 * ((y - x) ** 2).sum()
    res = prox_residual("l12", y, x, tau, block_size=block_size)
    return ProxResult(x, float(obj), res)


def singular_value_threshold(y, tau: float) -> ProxResult:
    """Soft threshold the singular values of a square matrix.

    Accepts a (d, d) matrix or its column-major flattening; the minimizer is
    returned in the same layout as the input.
    """
    tau = require_nonneg(tau, "tau")
    m, flat_input = _square(np.asarray(y, dtype=float))
    u, sv, vt = np.linalg.svd(m)
    shrunk = np.maximum(sv - tau, 0.0)
    x = (u[:, : sv.size] * shrunk) @ vt
    obj = tau * shrunk.sum() + 0.5 * ((m - x) ** 2).sum()
    res = prox_residual("nuclear", as_vector(m), as_vector(x), tau)
    out = as_vector(x) if flat_input else x
    return ProxResult(out, float(obj), res)


_PROX = {
    "l1": lambda s, y, tau: soft_threshold(y, tau),
    "wl1": lambda s, y, tau: weighted_soft_threshold(y, tau, s.coordinate_weights),
    "l12": lambda s, y, tau: block_soft_threshold(y, tau, s.block_size),
    "nuclear": lambda s, y, tau: singular_value_threshold(y, tau),
}


def prox_step(s: SignalStructure, y: np.ndarray, tau: float) -> ProxResult:
    """The prox of tau times the norm of structure s, at the flat vector y."""
    return _PROX[s.family](s, y, tau)


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


def project_ball(y, kind: str, radius: float, *, block_size: int | None = None) -> np.ndarray:
    """Euclidean projection onto {x : f(x) <= radius} for f in {l1, l1,2, nuclear}.

    l1 uses the sort-then-threshold rule; l1,2 applies it to the vector of
    block norms; nuclear applies the l1 rule to the singular values. Points
    already inside the ball are returned unchanged.
    """
    radius = require_nonneg(radius, "radius")
    y = np.asarray(y, dtype=float)
    if radius == 0:
        return np.zeros_like(y)
    if kind == "l1":
        mags = np.abs(y)
        if mags.sum() <= radius:
            return y.copy()
        theta = _l1_ball_shrink(mags.ravel(), radius)
        return np.sign(y) * np.maximum(mags - theta, 0.0)
    if kind == "l12":
        blocks = _blocks(y, block_size)
        norms = np.linalg.norm(blocks, axis=1)
        if norms.sum() <= radius:
            return y.copy()
        theta = _l1_ball_shrink(norms, radius)
        new_norms = np.maximum(norms - theta, 0.0)
        scale = np.zeros_like(norms)
        nz = norms > 0
        scale[nz] = new_norms[nz] / norms[nz]
        return (blocks * scale[:, None]).reshape(-1)
    if kind == "nuclear":
        m, flat_input = _square(y)
        u, sv, vt = np.linalg.svd(m)
        if sv.sum() <= radius:
            return y.copy()
        theta = _l1_ball_shrink(sv, radius)
        x = (u[:, : sv.size] * np.maximum(sv - theta, 0.0)) @ vt
        return as_vector(x) if flat_input else x
    raise ValueError(f"unknown ball kind {kind!r}")


def dual_norm(g: np.ndarray, kind: str, block_size: int | None = None) -> float:
    """Dual of the family's norm: max entry, max block norm or top singular value."""
    if kind == "l1":
        return float(np.max(np.abs(g)))
    if kind == "l12":
        return float(np.max(np.linalg.norm(_blocks(g, block_size), axis=1)))
    if kind == "nuclear":
        return float(np.linalg.norm(as_matrix(g, math.isqrt(g.size)), 2))
    raise ValueError(f"unknown ball kind {kind!r}")


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
    if kind == "l1":
        return SparseStructure(size, [], [])
    if kind == "l12":
        t, b = _blocks(np.zeros(size), block_size).shape
        return BlockSparseStructure(t, b, [], np.zeros((0, b)))
    if kind == "nuclear":
        d = _square(np.zeros(size))[0].shape[0]
        return LowRankStructure(d, 0, np.zeros((d, 0)), np.zeros((d, 0)))
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
