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
(:func:`dual_norm`) is their largest value. :func:`prox_step` and the
thresholds ``soft_threshold``, ``weighted_soft_threshold``,
``block_soft_threshold`` and ``singular_value_threshold`` share one kernel
on a norm family, a shrink level per magnitude and a block size, and build
no structure object. The ball's threshold is the sort-then-threshold rule
:func:`threshold_root`, which also gives each sample's cone minimum in
:mod:`proxmse.geometry`. :class:`BallSpec` holds one ball, the constraint
set of :mod:`proxmse.lasso`, and gives its projection and dual norm.

Every operator also takes a stack of points along leading batch axes, in
the layout of :func:`proxmse.signals.split` ((..., n) vectors, (..., d, d)
matrices), and answers per row: each row of a stacked call is bitwise the
call on that row alone, so a single point is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStructureError, require_nonneg
from .signals import (
    RANK_TOL,
    SUPPORT_TOL,
    SignalInstance,
    SignalStructure,
    split,
    square_matrices,
)

# the families with a ball projection and a dual norm
BALL_KINDS = ("l1", "l12", "nuclear")


@dataclass(frozen=True)
class ProxResult:
    minimizer: np.ndarray
    objective: float | np.ndarray       # one per row for a stack
    residual: float | np.ndarray


def _per_row(values: np.ndarray):
    """A per-point result: a float for one point, the array of rows for a stack."""
    return float(values) if values.ndim == 0 else values


def prox_step(s: SignalStructure, y, tau: float) -> ProxResult:
    """The prox of tau times the norm of structure s at y.

    y is a vector of the structure's ambient dimension, or for the nuclear
    norm also a square matrix, or a stack of either in the layout of
    :func:`proxmse.signals.split`; the minimizer comes back in y's layout,
    and a stack gets one objective and one residual per row. Each magnitude
    m_j of y becomes max(m_j - tau * w_j, 0), with w_j the structure's
    ``coordinate_weights``.
    """
    tau = require_nonneg(tau, "tau")
    return _shrink(y, s.family, tau * s.coordinate_weights, s.block_size)


def _shrink(y, family: str, level, block_size: int | None) -> ProxResult:
    """The prox at y of the family's norm with weight ``level`` on each magnitude."""
    y = np.asarray(y, dtype=float)
    mags, rebuild = split(y, family, block_size)
    shrunk = np.maximum(mags - level, 0.0)
    x = rebuild(shrunk)
    rows = mags.shape[:-1]
    obj = ((level * shrunk).sum(axis=-1)
           + 0.5 * ((y - x) ** 2).reshape(rows + (-1,)).sum(axis=-1))
    return ProxResult(x, _per_row(obj), _per_row(_distance(y, x, family, level, block_size)))


def soft_threshold(y, tau: float) -> ProxResult:
    """Shrink each entry of the vector y toward zero by tau; kills entries with |y_i| < tau."""
    return _shrink(y, "l1", require_nonneg(tau, "tau"), None)


def weighted_soft_threshold(y, tau: float, weights) -> ProxResult:
    """Soft threshold with per-coordinate level tau * w_i (a scalar w: one level).

    The weights are finite and nonnegative, and broadcast to y's last axis.
    """
    tau = require_nonneg(tau, "tau")
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not (np.isfinite(w) & (w >= 0)).all():
        raise ValueError("weights must be finite and nonnegative")
    if w.ndim:
        w = np.broadcast_to(w, y.shape[-1:])
    return _shrink(y, "l1", tau * w, None)


def block_soft_threshold(y, tau: float, block_size: int) -> ProxResult:
    """Scale each size-b block y_b by max(||y_b|| - tau, 0) / ||y_b||."""
    return _shrink(y, "l12", require_nonneg(tau, "tau"), block_size)


def singular_value_threshold(y, tau: float) -> ProxResult:
    """Soft threshold the singular values of a square matrix.

    Accepts a (d, d) matrix or its column-major flattening; the minimizer is
    returned in the same layout as the input.
    """
    return _shrink(y, "nuclear", require_nonneg(tau, "tau"), None)


# ---------------------------------------------------------------------------
# Euclidean projections onto norm balls, and the dual norms
# ---------------------------------------------------------------------------

def threshold_root(u: np.ndarray, c1, c2: float = 0.0, w: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Per column of u, the root lam of c2*lam - c1 = sum_j w_j max(u_j - lam, 0).

    u holds J >= 1 thresholds a column, decreasing down axis 0, w their weights
    (None: ones). Sort-then-threshold (Duchi, Shalev-Shwartz, Singer & Chandra
    2008): lam is the candidate (c1 + top-j sum of w*u) / (c2 + top-j sum of w),
    written into ``out`` if given, of the last j whose u_j exceeds it. No
    candidate exceeds the root; where no u_j exceeds its own, the J-th comes
    back. The l1 ball of radius R is c1 = -R, c2 = 0, w = 1.
    """
    cand = np.cumsum(u if w is None else np.multiply(u, w, out=out), axis=0, out=out)
    cand += c1
    cand /= c2 + (np.arange(1, len(u) + 1).reshape((-1,) + (1,) * (u.ndim - 1))
                  if w is None else np.cumsum(w, axis=0))
    last = len(u) - 1 - np.argmax((u > cand)[::-1], axis=0)
    return cand[(last, *np.indices(last.shape, sparse=True))]


def _ball_kind(kind: str) -> str:
    if kind not in BALL_KINDS:
        raise ValueError(f"unknown ball kind {kind!r}")
    return kind


def project_ball(y, kind: str, radius: float, *, block_size: int | None = None) -> np.ndarray:
    """Euclidean projection onto {x : f(x) <= radius} for f in {l1, l1,2, nuclear}.

    The magnitudes (|entries|, block norms, singular values) are projected
    onto the l1 ball by the sort-then-threshold rule. A stack in the layout
    of :func:`proxmse.signals.split` is projected row by row. Points already
    inside the ball are returned unchanged.
    """
    radius = require_nonneg(radius, "radius")
    y = np.asarray(y, dtype=float)
    mags, rebuild = split(y, _ball_kind(kind), block_size)  # checked even at radius 0
    if radius == 0:
        return np.zeros_like(y)
    inside = mags.sum(axis=-1) <= radius
    rows_inside = np.count_nonzero(inside)
    if rows_inside == inside.size:
        return y.copy()
    theta = threshold_root(np.sort(mags.T, axis=0)[::-1], -radius).T
    x = rebuild(np.maximum(mags - theta[..., None], 0.0))
    if rows_inside:
        x[inside] = y[inside]
    return x


def dual_norm(g: np.ndarray, kind: str, block_size: int | None = None) -> float | np.ndarray:
    """Dual of the family's norm: the largest magnitude (entry, block norm,
    singular value), one per row for a stack."""
    return _per_row(np.max(split(g, _ball_kind(kind), block_size)[0], axis=-1))


@dataclass(frozen=True)
class BallSpec:
    """The ball {x : f(x) <= radius} of a norm family: its projection and its
    dual norm, the two maps the LASSO solver takes from it."""

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

def prox_residual(spec, y, x_star, tau: float, *,
                  block_size: int | None = None) -> float | np.ndarray:
    """Distance from y - x_star to the tau-scaled subdifferential at x_star.

    A value <= tolerance certifies that x_star solves
    argmin_x tau*f(x) + 0.5*||y - x||^2. ``spec`` is a SignalStructure (for
    the weighted norm it supplies the weights) or one of the family tags
    'l1', 'l12', 'nuclear'; y and x_star are one point or a stack in the
    layout of :func:`proxmse.signals.split`, and a stack gets one distance
    per row. Optimality needs a subgradient at the minimizer, so the
    structure is read from x_star, row by row, as masks and bases (no
    structure object is built): the support and signs, the active blocks
    and their directions, or the singular bases and rank of x_star. The
    distance is a sum of squared differences, not the expanded scale
    profile: near an optimum that quadratic cancels to rounding noise of
    order 1e-16 * ||y - x_star||^2, whose square root is far above 1e-8.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x_star, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x_star must match the dimension of y")
    tau = require_nonneg(tau, "tau")
    if isinstance(spec, str):
        family, level = _ball_kind(spec), tau
    else:
        family, level, block_size = spec.family, tau * spec.coordinate_weights, spec.block_size
    return _per_row(_distance(y, x, family, level, block_size))


def _distance(y: np.ndarray, x: np.ndarray, family: str, level,
              block_size: int | None) -> np.ndarray:
    """Per row, the distance from y - x to the subdifferential at x of the
    family's norm with weight ``level`` on each magnitude."""
    g = y - x
    if family == "nuclear":
        return _nuclear_distance(g, x, level)
    # support coordinates (active blocks) pin to level times x's signs
    # (directions); elsewhere the magnitudes of g may reach the level
    mags_x, rebuild_x = split(x, family, block_size)
    on = mags_x > SUPPORT_TOL
    pinned = split(g - rebuild_x(np.where(on, level, 0.0)), family, block_size)[0]
    free = np.maximum(split(g, family, block_size)[0] - level, 0.0)
    return np.linalg.norm(np.where(on, pinned, free), axis=-1)


def _nuclear_distance(g: np.ndarray, x: np.ndarray, tau: float) -> np.ndarray:
    """Per matrix, the distance from g to tau * subdiff of the nuclear norm at x.

    In the singular bases of x (its own SVD, rank from sv > RANK_TOL) the
    subgradients are tau on the diagonal of the range, zero across range and
    complement, and any matrix of spectral norm <= tau on the complement
    block, so that block's singular values only count above tau.
    """
    gm = square_matrices(g)[0]
    u, sv, vt = np.linalg.svd(square_matrices(x)[0])
    on = sv > RANK_TOL
    rotated = np.swapaxes(u, -1, -2) @ gm @ np.swapaxes(vt, -1, -2)
    complement = ~on[..., :, None] & ~on[..., None, :]
    pinned = rotated - tau * (np.eye(sv.shape[-1]) * on[..., None, :])
    inner = (np.where(complement, 0.0, pinned) ** 2).sum(axis=(-2, -1))
    block_sv = np.linalg.svd(np.where(complement, rotated, 0.0), compute_uv=False)
    return np.sqrt(inner + (np.maximum(block_sv - tau, 0.0) ** 2).sum(axis=-1))
