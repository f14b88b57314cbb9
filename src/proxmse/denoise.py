"""Denoising experiments: NMSE of proximal estimators across noise levels.

Three estimators of a structured signal x0 from y = x0 + sigma*v:

* regularized: argmin_x sigma*lam*f(x) + 0.5*||y - x||^2 (closed-form prox),
  whose worst-case NMSE equals the mean squared distance to lam*subdiff.
* constrained: Euclidean projection onto {f(x) <= f(x0)}, whose worst-case
  NMSE equals the cone MSD.
* mixed: nonnegativity-constrained l1 regularization (one-sided soft
  threshold), upper bounded by the Minkowski-sum distance estimate that the
  run records alongside the NMSE.

Small sigma exposes the worst case: the default grid spans 1e-3 to 1 times
the smallest structural feature of x0 so the first grid point sits deep in
the regime where the first-order approximation is exact.

Each noise level draws its trials' noise vectors v as consecutive rows of
one stream keyed (seed, sigma index, 0), the layout the Monte Carlo chunks of
:mod:`proxmse.geometry` use, so a run makes one stream per noise level. The
path has two entries so that it never equals a chunk's one-entry path: the
trials stay independent of a reference estimate drawn under the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import prox
from .errors import InvalidStructureError, NumericalError, require_int, require_nonneg
from .geometry import mean_stderr
from .signals import SignalInstance, SparseStructure
from .streams import stream

RESIDUAL_TOL = 1e-8
# trials stacked into one estimator call: the per-call cost of numpy is paid
# once per block, and memory stays O(BLOCK * n)
BLOCK = 64


@dataclass(frozen=True)
class SigmaRecord:
    """Per-noise-level NMSE statistics (and the mixed distance estimate, if any)."""

    sigma: float
    nmse_mean: float
    nmse_stderr: float
    trials: int
    d_mean: float | None = None
    d_stderr: float | None = None


@dataclass(frozen=True)
class DenoiseRun:
    lam: float | None
    records: tuple[SigmaRecord, ...]


def default_sigma_grid(inst: SignalInstance, points: int = 8) -> np.ndarray:
    """Logarithmic grid from 1e-3 to 1 times the smallest structural feature."""
    scale = inst.min_magnitude()
    return np.geomspace(1e-3 * scale, scale, points)


def trial_noise(seed: int, sigma_index: int, trial_index: int, dim: int) -> np.ndarray:
    """The standard normal draw used by trial (sigma_index, trial_index).

    It is row ``trial_index`` of the noise level's stream ``(seed,
    sigma_index, 0)``, whose rows the trials draw in order.
    """
    return stream(seed, sigma_index, 0).standard_normal((trial_index + 1, dim))[trial_index]


def _check_grid(sigma_grid) -> np.ndarray:
    grid = np.asarray(sigma_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("sigma grid must be a nonempty 1-D array")
    if not (np.all(np.isfinite(grid) & (grid > 0)) and np.all(np.diff(grid) > 0)):
        raise ValueError("sigma grid must be finite, strictly positive and sorted ascending")
    return grid


def _run(inst: SignalInstance, lam: float | None, sigma_grid, trials: int, seed: int,
         estimate, distance=None) -> DenoiseRun:
    """The trial loop of every estimator, BLOCK trials per call.

    Noise level si draws its trials' v as consecutive rows of the one
    stream ``(seed, si, 0)``, so trial ti sees ``trial_noise(seed, si, ti, n)``
    whatever the block size. A block's rows are drawn into one (BLOCK, n)
    buffer, and y into another, so memory is O(BLOCK * n + trials).
    ``estimate(Y, sigma)`` gets the rows
    y = x0 + sigma*v in the layout of :func:`proxmse.signals.split` (the
    structure's ``layout``: (B, n) vectors, or (B, d, d) matrices for low
    rank) and returns the estimates of x0 in that layout and each row's
    optimality residual (0 for an exact closed form), which must be at most
    1e-8; NaN fails, and the first failing trial raises with its index.
    ``distance(V)``, when given, returns one value per row of the (B, n)
    draws, recorded beside the NMSE.
    """
    trials = require_int(trials, "trials", 2)
    grid = _check_grid(sigma_grid)
    x0 = inst.values
    draws = np.empty((min(trials, BLOCK), inst.ambient_dim))
    Y = np.empty_like(draws)
    records = []
    for si, sigma in enumerate(grid):
        nmse, dvals = [], []
        rng = stream(seed, si, 0)
        for start in range(0, trials, BLOCK):
            block = range(start, min(start + BLOCK, trials))
            V = draws[:len(block)]
            rng.standard_normal(out=V)
            # the buffers are overwritten by the next block, which starts only
            # after this one's NMSE and distances have been taken
            y = Y[:len(block)]
            np.multiply(V, sigma, out=y)
            y += x0
            points, flatten = inst.structure.layout(y)
            X, residuals = estimate(points, sigma)
            failed = np.flatnonzero(~(residuals <= RESIDUAL_TOL))
            if failed.size:
                row = failed[0]
                raise NumericalError(
                    f"prox residual {residuals[row]:.3e} above {RESIDUAL_TOL} "
                    f"at sigma index {si}", index=block[row],
                )
            # one dot per trial, as for a single draw, so the sums round alike
            nmse.extend(float(err @ err) / (sigma * sigma) for err in flatten(X) - x0)
            if distance is not None:
                dvals.extend(distance(V))
        d_stats = mean_stderr(dvals) if dvals else (None, None)
        records.append(SigmaRecord(float(sigma), *mean_stderr(nmse), trials, *d_stats))
    return DenoiseRun(lam, tuple(records))


def run_regularized(inst: SignalInstance, lam: float, sigma_grid, trials: int,
                    seed: int) -> DenoiseRun:
    """NMSE of the prox estimator with penalty sigma*lam at each grid sigma.

    Every trial's optimality residual must certify the prox solve to 1e-8.
    """
    lam = require_nonneg(lam, "lam")

    def estimate(Y, sigma):
        step = prox.prox_step(inst.structure, Y, sigma * lam)
        return step.minimizer, step.residual

    return _run(inst, lam, sigma_grid, trials, seed, estimate)


def run_constrained(inst: SignalInstance, sigma_grid, trials: int, seed: int) -> DenoiseRun:
    """NMSE of the projection onto the norm ball of radius f(x0)."""
    ball = prox.ball_for(inst)
    return _run(inst, None, sigma_grid, trials, seed,
                lambda Y, sigma: (ball.project(Y), np.zeros(len(Y))))


def mixed_distance_sq(s: SparseStructure, g: np.ndarray, lam: float) -> float | np.ndarray:
    """Squared distance for the nonnegative + l1 estimator's error set.

    The set is the Minkowski sum of lam*subdiff(l1) at an entrywise-positive
    sparse point and the polar of the orthant's tangent cone: support
    coordinates pin to lam, off-support coordinates contribute only above lam.
    g is one vector (n,), or a stack (..., n) that gets one distance per row.
    """
    g = np.asarray(g, dtype=float)
    on = np.zeros(s.n, dtype=bool)
    on[s.support] = True
    # each part is gathered into contiguous rows, so a row sums as one vector
    pinned = np.ascontiguousarray(g[..., on])
    free = np.ascontiguousarray(g[..., ~on])
    return (((pinned - lam) ** 2).sum(axis=-1)
            + (np.maximum(free - lam, 0.0) ** 2).sum(axis=-1))


def run_mixed_nonneg_sparse(inst: SignalInstance, lam: float, sigma_grid,
                            trials: int, seed: int) -> DenoiseRun:
    """Nonnegativity-constrained l1 denoising of an entrywise-nonnegative signal.

    The estimator is the one-sided soft threshold max(y - sigma*lam, 0). Each
    record carries both the NMSE and the Minkowski-sum distance estimate from
    the same noise draws, so the upper-bound comparison shares randomness.
    """
    lam = require_nonneg(lam, "lam")
    s = inst.structure
    if not isinstance(s, SparseStructure):
        raise InvalidStructureError("mixed estimator requires a sparse instance")
    x0 = inst.values
    if np.any(x0 < 0) or np.any(x0[s.support] <= 0):
        raise ValueError("mixed estimator requires x0 >= 0 with positive support")
    return _run(inst, lam, sigma_grid, trials, seed,
                lambda Y, sigma: (np.maximum(Y - sigma * lam, 0.0), np.zeros(len(Y))),
                lambda V: mixed_distance_sq(s, V, lam))

