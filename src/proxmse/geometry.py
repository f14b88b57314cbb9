"""Gaussian squared-distance geometry of scaled subdifferentials.

The central quantity is dist(g, lam * subdiff(f, x0))^2 for standard normal
g. Its expectation over g (the mean squared distance, MSD) equals the
worst-case normalized MSE of the corresponding proximal denoiser, and its
per-sample minimum over lam >= 0 is the squared distance to the cone of
subgradients, whose expectation governs constrained denoising and the
measurement count at which the constrained-LASSO behavior switches.

All distances reduce to the same one-dimensional convex scale profile

    dist^2(lam) = c0 - 2*c1*lam + c2*lam^2 + sum_j w_j * max(nu_j - lam, 0)^2

with coefficients that each structure class computes in its ``profile``
method: for l1, nu holds the off-support magnitudes; for l1,2 the inactive
block norms; for the nuclear norm the singular values of the part of g
orthogonal to the signal's subspaces. Monte Carlo paths exploit this form to
vectorize over samples, and the pointwise distance is the profile of one
sample.

Minima over lam >= 0 are exact. Half the derivative of the profile,
h(lam) = c2*lam - c1 - sum_j w_j max(nu_j - lam, 0), is concave, nondecreasing
and linear on each active set A = {j : nu_j > lam}, where its root is
(c1 + sum_A w_j nu_j) / (c2 + sum_A w_j). Per sample, the sorted thresholds
take the sort-then-threshold rule of l1-ball projection (``threshold_root``):
the root of the last top-j set A whose j-th threshold exceeds it. The sums
over the samples take Newton steps (``_rise``) from lam = 0, which rise to the
smallest minimizer, A only shrinking, until A repeats: within J + 1 steps.

``estimate`` computes every Monte Carlo estimate in one pass, sweeping the
thresholds once per lam, once for the cone minima and once for the pooled
minimiser's bracket; only the pooled sums take Newton steps. A ``CHUNK`` of
4096 samples of sparse:500:20 holds 15.7 MB of thresholds, more than a
core's L2 cache, so ``_chunks`` draws and profiles each chunk in row tiles
of about ``TILE`` drawn entries (1 MB) and hands each tile to a visitor,
which takes all its passes while the tile is cached. ``_chunks`` rejects a
tile with a non-finite profile before any visit sees it, naming the first
bad sample, for every estimator.

A visit sees a tile sorted (``_Tile``): ``_chunks`` sorts each sample's
thresholds and copies them thresholds-major into one reused (J, rows)
buffer, so that rank j holds every sample's j-th smallest threshold, with
top[j], the largest of them, nondecreasing in j. No sample clips a
threshold of a rank whose top is at most lam, so every sweep (the profile
at a lam, a Newton pass, the bracket's clip and its mask) starts at the
first rank whose top exceeds the smallest lam of the sweep. On a 262-sample
tile of sparse:500:20 that is 82 of 480 ranks at lam = 1.5 and 6 at lam = 3,
and 31% of the tile over the lam grid 0:0.1:3. A sample's sum runs
down its column in rank order (``_column_sums``); a skipped rank would only
add exact zeros to it, and every profile computes a sample's coefficients
from that sample alone, so no result bit depends on where a sweep starts,
on the tile a sample lands in or on the other samples in it. ``_clip`` is
the one kernel that clips thresholds and counts what stays active, on a
tile or on the bracket's kept thresholds, and ``_squared`` the one that
squares and weights what it clipped.

The draw overlaps the rest: while a tile is profiled and visited, one worker
thread of ``_chunks`` draws the next tile into the other of two draw
buffers. The worker only draws; every profile and visit runs on the calling
thread, and the tiles come in the same order, so no result bit moves.

Memory follows the tile, plus a few numbers per sample. ``_chunks`` reuses
two draw buffers and one sorted-threshold buffer (and one for their weights)
for the whole call, and clips into the profile's own thresholds once they
are sorted and copied; the curve fills one (lams, samples) array in place.
The pooled minimiser lam* of the sample mean copies the sorted thresholds of
its first ``LEAD`` samples only until they are all drawn, then joins them
into one tile and takes that tile's own minimiser lam0; from then on it
keeps a bracket around lam0, a few standard errors of lam0 wide
(``_PooledMinimum``): a few sums per sample and the clip thresholds inside
the bracket. A flat profile (c2 = 0) needs no lead and no bracket: its lam*
is the largest threshold of all the samples.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (BoundNotValidError, InvalidStructureError, NumericalError, require_int,
                     require_nonneg)
from .prox import threshold_root
from .signals import ScaleProfile, SignalStructure, as_vector, require_count
from .streams import stream

# samples per chunk, chunk i drawn from stream (seed, i): it fixes which
# normals a call draws; the tile, not the chunk, sets the memory
CHUNK = 4096
# drawn entries per row tile: 1 MB of float64, whose profile stays in a 2 MB
# L2 cache while an estimator sweeps the tile many times
TILE = 1 << 17
# samples whose pooled minimiser lam0 centres the bracket of lam*; a call of at
# most LEAD samples takes lam0 itself. It is fixed, so the tiling moves no bit.
LEAD = 256
# half-width of that bracket in standard errors of lam0; a bracket that misses
# lam* costs one more pass over the samples
Z = 8.0


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo controls: sample count and seed.

    Samples are drawn in chunks of ``CHUNK`` = 4096; chunk i draws from an
    independent stream keyed (seed, i), so chunks may be evaluated in any order
    or in parallel without changing the result. No estimator caps ``samples``.
    """

    samples: int
    seed: int

    def __post_init__(self):
        # each count must be an integer (numpy integers included): a float
        # or a bool is rejected here, not truncated or failed on later; the
        # seed is checked here, not at the first draw
        for name, minimum in (("samples", 2), ("seed", 0)):
            object.__setattr__(self, name, require_int(getattr(self, name), name, minimum))

    @property
    def chunk(self) -> int:
        """``CHUNK``, for callers that read the chunk layout from the config."""
        return CHUNK


@dataclass(frozen=True)
class MsdEstimate:
    """Point estimate of a mean squared distance, with its standard error."""

    mean: float
    stderr: float
    samples: int
    lam: float | None = None


@dataclass(frozen=True)
class GeometryConstants:
    """Scalar invariants of a structure's subdifferential.

    subgradient_radius: largest Euclidean norm over the subdifferential.
    sphere_max_value:   largest norm value attainable on the unit sphere
                        while keeping the same subdifferential.
    tuning_lipschitz:   Lipschitz constant of the per-sample optimal scale
                        as a function of the Gaussian sample.
    dof:                degrees of freedom of the structure class.
    """

    subgradient_radius: float
    sphere_max_value: float
    tuning_lipschitz: float
    dof: int


# ---------------------------------------------------------------------------
# Pointwise distance and projection
# ---------------------------------------------------------------------------

def _check_vector(s: SignalStructure, g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.ndim == 2 and s.family == "nuclear" and g.shape == (s.d, s.d):
        g = as_vector(g)
    if g.shape != (s.ambient_dim,):
        raise ValueError(
            f"vector has shape {g.shape}, structure ambient dimension is {s.ambient_dim}"
        )
    if not np.isfinite(g).all():
        raise ValueError("vector must be finite")
    return g


def dist_sq_scaled_subdiff(s: SignalStructure, g: np.ndarray, lam: float) -> float:
    """Squared distance from g to the lam-scaled subdifferential at the signal.

    It is the structure's scale profile (see the module doc) of the one
    sample g, evaluated at lam; rounding can take that expanded quadratic a
    little below 0, so it is clipped there.
    Sparse: sum_S (g_i - lam*sign_i)^2 + sum_off max(|g_i| - lam, 0)^2.
    Block:  active blocks pin to lam*direction; inactive block norms clip at lam.
    Low rank: the component inside the singular subspaces pins to lam*u v^T;
    the orthogonal component's singular values clip at lam (spectral ball).
    Weighted sparse: the l1 formula with lam replaced by lam*w per region.
    """
    lam = require_nonneg(lam, "lam")
    g = _check_vector(s, g)
    return max(float(_profile_eval(_sorted(s.profile(g[None, :])), lam)[0]), 0.0)


def project_scaled_subdiff(s: SignalStructure, g: np.ndarray, lam: float) -> np.ndarray:
    """Closest point to g inside the lam-scaled subdifferential (unique)."""
    lam = require_nonneg(lam, "lam")
    return s.project_subdiff(_check_vector(s, g), lam)


# ---------------------------------------------------------------------------
# Reduced scale profiles (vectorized over Monte Carlo samples)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Tile:
    """A tile's profile with each sample's clip thresholds sorted, thresholds-major.

    nu[j, i] is sample i's (j+1)-th smallest threshold and w[j, i] its weight
    (None: all ones); top[j] = max_i nu[j, i] never decreases as j grows.
    c0, c1 and c2 are the profile's.
    """

    c0: np.ndarray          # (N,)
    c1: np.ndarray          # (N,)
    c2: float
    nu: np.ndarray          # (J, N)
    w: np.ndarray | None    # (J, N)
    top: np.ndarray         # (J,)

    def above(self, lam, t=None):
        """nu, w and t from the first rank whose top exceeds the smallest lam given;
        every earlier rank clips to 0 at each of those lam."""
        lam = np.asarray(lam)
        lo = int(self.top.searchsorted(lam.min() if lam.ndim else lam, "right"))
        return (self.nu[lo:], None if self.w is None else self.w[lo:],
                None if t is None else t[lo:])


def _transposed(a: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """a.T copied into out, or into a new array if out is None."""
    if out is None:
        return np.ascontiguousarray(a.T)
    out[...] = a.T
    return out


def _sorted(p: ScaleProfile, nu: np.ndarray | None = None,
            w: np.ndarray | None = None) -> _Tile:
    """p as a ``_Tile``, copied into the (J, N) buffers nu and w if given. Unit-weight
    thresholds are sorted in place in p.nu, which leaves p the same profile;
    weighted ones take a stable sort, so that tied thresholds keep their weights
    in the same order on every machine."""
    if p.w is None:
        p.nu.sort(axis=1)
        ranks = p.nu
    else:
        order = p.nu.argsort(axis=1, kind="stable")
        ranks, w = np.take_along_axis(p.nu, order, axis=1), _transposed(p.w[order], w)
    return _Tile(p.c0, p.c1, p.c2, _transposed(ranks, nu), None if p.w is None else w,
                 ranks.max(axis=0))


def _column_sums(t: np.ndarray):
    """The sum down each column of t, added in row order, so that a column carries
    the same bits alone and among others; a vector is summed whole."""
    if t.ndim == 2 and t.shape[1] == 1 and t.shape[0] > 1:
        return np.add.accumulate(t[:, 0])[-1:]  # numpy would sum a lone column pairwise
    return t.sum(axis=0)


def _squared(t: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Square the clipped thresholds t in place and weight them by w; returns t."""
    t *= t
    if w is not None:
        t *= w
    return t


def _profile_eval(p: _Tile, lam, t: np.ndarray | None = None) -> np.ndarray:
    """The profile at lam (a number, or one per sample), clipping into ``t`` if one is given."""
    lam = np.asarray(lam, dtype=float)
    nu, w, t = p.above(lam, t)
    t = np.subtract(nu, lam, out=t)
    np.maximum(t, 0.0, out=t)
    return p.c0 - 2.0 * p.c1 * lam + p.c2 * lam * lam + _column_sums(_squared(t, w))


def _clip(nu: np.ndarray, w: np.ndarray | None, lam, t: np.ndarray):
    """Fill t with max(nu - lam, 0); per column (a vector nu: in all), return the
    active count, the active weight sum_A w_j and the clipped sum sum_j w_j t_j."""
    np.subtract(nu, lam, out=t)
    np.maximum(t, 0.0, out=t)
    count = np.count_nonzero(t, axis=0)
    if w is None:
        return count, count, _column_sums(t)
    return count, _column_sums((t > 0.0) * w), _column_sums(t * w)


def _slopes(p: _Tile, lam, t: np.ndarray):
    """Each sample's active count, -h(lam) and h'(lam), clipping into t."""
    nu, w, t = p.above(lam, t)
    active, weight, clipped = _clip(nu, w, lam, t)
    return active, p.c1 + clipped - p.c2 * lam, p.c2 + weight


def _rise(h, lam: float, passes: int) -> float:
    """Newton steps from lam on the sums over the samples until the active set
    repeats (see the module doc), where h(lam) gives the active count, -h and h'."""
    count = -1
    for _ in range(passes):
        active, excess, slope = h(lam)
        if active == count:
            return lam
        lam += max(float(excess / slope), 0.0) if slope > 0 else 0.0
        count = active
    raise NumericalError(f"pooled active set still moving after {passes} passes")


def _require_finite(start: int, c0: np.ndarray, excess: np.ndarray) -> None:
    """Raise on the first sample whose c0 or ``excess`` (c1 plus a sum of its
    thresholds) is not finite."""
    bad = np.flatnonzero(~(np.isfinite(c0) & np.isfinite(excess)))
    if bad.size:
        raise NumericalError(f"non-finite scale profile at sample {start + bad[0]}",
                             index=int(start + bad[0]))


def _cone_argmin(p: _Tile, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample minimiser over lam >= 0 and minimum (see the module doc),
    writing the rule's candidates, then the clipped thresholds, into t."""
    # c1/c2 is the root where no threshold is active, and below it elsewhere; a
    # flat profile (c2 = 0, so c1 = 0) is constant from its largest threshold on
    lam = np.maximum(p.c1 / p.c2, 0.0) if p.c2 else p.nu.max(axis=0, initial=0.0)
    if p.c2 and len(p.nu):
        w = None if p.w is None else p.w[::-1]
        np.maximum(lam, threshold_root(p.nu[::-1], p.c1, p.c2, w, t), out=lam)
    return lam, _profile_eval(p, lam, t)


def _pooled_argmin(p: _Tile, t: np.ndarray):
    """The exact minimiser lam >= 0 of the profile summed over its samples,
    and each sample's -h(lam) and h'(lam) there, clipping into t."""
    lam = _rise(lambda lam: [x.sum() for x in _slopes(p, lam, t)], 0.0, p.nu.size + 2)
    return (lam, *_slopes(p, lam, t)[1:])


class _PooledMinimum:
    """The estimate at the pooled minimiser lam*; ``add`` visits the tiles of ``_chunks``.

    It holds memory set by the tile and a few numbers per sample, not every
    profile. Copies of the sorted thresholds of the first ``LEAD`` samples
    (the lead) are held until the lead is complete and then joined into one
    tile (a tile that straddles its end is cut, which moves no bit, as every
    sample's sums come from its own column). Its own pooled minimiser lam0
    (``_pooled_argmin``) is the result when the call has at most ``LEAD``
    samples. Otherwise lam0 centres the bracket [a, b] = [lam0 - r, lam0 + r],
    with r = ``Z`` standard errors of lam0 by the delta method, sd(h(lam0)) /
    (sqrt(LEAD) mean h'(lam0)) over the lead's samples. Each tile then leaves,
    per sample, c0, c1 and, over its clip thresholds above b, S0 = sum w, S1 =
    sum w (nu - b) and S2 = sum w (nu - b)^2 (centred at b, so that nothing
    cancels). Its thresholds in (a, b] are kept one by one as (value, weight),
    sample by sample and ascending within a sample, with one count per sample
    of how many it kept; those at or below a are dropped, as they clip to 0 at
    every lam >= a. If h(a) <= 0 <= h(b), Newton steps from a on what was kept
    (``_rise``, the one Newton loop; the kept thresholds are not sorted
    together) rise to lam* as they do on the whole profiles. If not, the
    bracket widens to an end that must hold lam* and the tiles are visited
    again: their streams are keyed, so the same samples come back. A flat
    profile (c2 = 0, so c1 = 0 too) takes no lead and no bracket: its summed
    profile falls until the largest threshold of all the samples, the largest
    top of any tile, and there every sample's value is its c0, which is all it
    keeps.
    """

    def __init__(self, s: SignalStructure, mc: McConfig):
        self.s, self.mc = s, mc
        self.lead = []  # copies of the lead's (c0, c1, nu, w) of each tile
        self.tuned: MsdEstimate | None = None
        self.kept = self.c0 = self.c2 = None

    def add(self, start: int, p: _Tile, t: np.ndarray) -> None:
        if self.kept is not None:
            self._keep(start, p, t)
        elif p.c2 == 0.0:  # flat: c0 and the largest threshold so far
            if self.c0 is None:
                self.c0, self.c2, self.top = np.empty(self.mc.samples), 0.0, 0.0
            self.c0[start:start + p.c0.size] = p.c0
            self.top = max(self.top, float(p.top.max(initial=0.0)))
        else:
            self._lead(start, p, t)

    def _lead(self, start: int, p: _Tile, t: np.ndarray) -> None:
        lead = min(LEAD, self.mc.samples)
        n = min(p.c0.size, lead - start)  # the tile's samples in the lead
        # nu and w are views of buffers that the next tile overwrites
        self.lead.append((p.c0[:n], p.c1[:n], p.nu[:, :n].copy(),
                          None if p.w is None else p.w[:, :n].copy()))
        if start + n < lead:
            return
        c0, c1, nu, w = (None if f[0] is None else np.concatenate(f, axis=-1)
                         for f in zip(*self.lead))
        self.lead, q = [], _Tile(c0, c1, p.c2, nu, w, nu.max(axis=1))
        u = np.empty_like(q.nu)
        lam0, excess, slope = _pooled_argmin(q, u)
        if self.mc.samples <= LEAD:
            self.tuned = MsdEstimate(*mean_stderr(_profile_eval(q, lam0, u)), lead, lam0)
            return
        se = float(excess.std(ddof=1)) / (math.sqrt(lead) * float(slope.mean()))
        r = Z * se if math.isfinite(se) else 0.0  # past the float range: left to the guard
        self._open(max(lam0 - r, 0.0), lam0 + r, p.c2)
        self._keep(0, q, u)
        # the rest of the tile; its top still bounds each rank
        self._keep(lead, _Tile(p.c0[n:], p.c1[n:], p.c2, p.nu[:, n:],
                               None if p.w is None else p.w[:, n:], p.top), t[:, n:])

    def _open(self, a: float, b: float, c2: float) -> None:
        n = self.mc.samples
        self.a, self.b, self.c2 = a, b, c2
        self.c0, self.c1, self.s0, self.s1, self.s2 = (np.empty(n) for _ in range(5))
        self.counts = np.empty(n, dtype=np.int32)  # kept thresholds of each sample
        self.above, self.kept = 0, ([], [])  # values, weights
        # on a redraw, the last pass's thresholds are freed before new ones are kept
        self.values = self.weights = self.scratch = None

    def _keep(self, start: int, p: _Tile, t: np.ndarray) -> None:
        cols = slice(start, start + p.c0.size)
        nu, w, t = p.above(self.b, t)
        count, self.s0[cols], self.s1[cols] = _clip(nu, w, self.b, t)
        self.above += int(count.sum())
        self.c0[cols], self.c1[cols] = p.c0, p.c1
        self.s2[cols] = _column_sums(_squared(t, w))
        nu, w, _ = p.above(self.a)
        inside = ((nu > self.a) & (nu <= self.b)).T  # sample-major
        self.counts[cols] = np.count_nonzero(inside, axis=1)
        values, weights = self.kept
        values.append(nu.T[inside])  # in sample order, ascending within a sample
        if w is not None:
            weights.append(w.T[inside])

    def _close(self) -> None:
        """Join the kept values, then the kept weights, and total the per-sample sums."""
        values, weights = self.kept
        self.kept = None
        self.values = np.concatenate(values)
        del values  # its parts are freed before the weights are joined
        self.weights = np.concatenate(weights) if weights else None
        self.scratch = np.empty_like(self.values)  # max(values - lam, 0) of each sweep
        self.sums = (float(self.c1.sum()), self.c0.size * self.c2,
                     float(self.s0.sum()), float(self.s1.sum()), float(np.abs(self.c1).sum()))

    def _pooled(self, lam: float) -> tuple[int, float, float, float]:
        """Active count, -h(lam), h'(lam) and the total size of the terms of -h(lam),
        of the summed profile at a <= lam <= b."""
        c1, c2, s0, s1, c1_size = self.sums
        count, weight, clipped = _clip(self.values, self.weights, lam, self.scratch)
        clipped = s1 + (self.b - lam) * s0 + float(clipped)  # every w_j (nu_j - lam)_+
        return (self.above + int(count), c1 + clipped - c2 * lam, c2 + s0 + float(weight),
                c1_size + clipped + c2 * lam)

    def _widened(self) -> tuple[float, float]:
        """[a, b] if it holds lam*, else a bracket that must hold it."""
        a, b = self.a, self.b
        _, low, slope, size_a = self._pooled(a)
        _, high, _, size_b = self._pooled(b)
        # -h adds terms of either sign, and rounds them far below 1e-13 of their
        # total size; a miss smaller than that moves lam* by as little
        tol = 1e-13 * max(size_a, size_b)
        if low < -tol and a > 0.0:
            # h(a) > 0, so lam* < a; concave h lies below its tangent at a,
            # which crosses 0 at or below lam*
            a = max(0.0, a + low / slope)
        if high > tol:
            # h(b) < 0, so lam* > b; past b, h rises at least at the rate c2 * N > 0
            b += high / self.sums[1]
        return a, b

    def result(self) -> MsdEstimate:
        """The estimate at lam*, visiting the samples again while the bracket misses it."""
        if self.tuned is not None:
            return self.tuned
        if self.c2 == 0.0:  # flat: lam* is the largest threshold, where each value is c0
            return MsdEstimate(*mean_stderr(self.c0), self.c0.size, self.top)
        for redraws in range(3):  # one redraw brackets lam*; a second guards the rounding
            self._close()
            a, b = self._widened()
            if (a, b) == (self.a, self.b):
                return self._minimum()
            if redraws < 2:
                self._open(a, b, self.c2)
                _chunks(self.s, self.mc, self._keep)
        raise NumericalError("pooled minimiser still outside its bracket after 2 redraws")

    def _minimum(self) -> MsdEstimate:
        """Newton steps from a (see the module doc), and each sample's value at lam*."""
        lam = _rise(lambda lam: self._pooled(lam)[:3], self.a, self.values.size + 2)
        d = self.b - lam
        v = self.c0 - 2.0 * self.c1 * lam + self.c2 * lam * lam
        v += self.s2 + d * (2.0 * self.s1 + d * self.s0)
        _clip(self.values, self.weights, lam, self.scratch)
        t, self.values = self.scratch, None  # room for the sample index of each kept threshold
        samples = np.repeat(np.arange(v.size), self.counts)
        v += np.bincount(samples, weights=_squared(t, self.weights), minlength=v.size)
        return MsdEstimate(*mean_stderr(v), v.size, lam)


def _chunks(s: SignalStructure, mc: McConfig, visit) -> None:
    """Call visit(start, tile, clip buffer) on each row tile of the sample streams, in order.

    Chunk i, the ``CHUNK`` samples from i * CHUNK on (fewer in the last),
    draws from stream (seed, i) a tile of rows at a time, about ``TILE``
    entries; rows drawn in consecutive blocks are bitwise those of one
    whole-chunk draw. One worker thread keeps the next tile drawn ahead:
    it makes each chunk's stream and fills the two draw buffers in turn, and
    tile i + 2 is drawn only once tile i's profile has returned (no profile
    shares memory with its draw). numpy releases the interpreter lock while
    it fills a buffer, so the draw overlaps the profile and the caller's
    visit, and every result bit stays the same. The worker only draws: each
    tile is profiled on the calling thread (every profile is row-independent).
    A tile whose c0 or c1 + sum nu is not finite raises NumericalError with
    the index of its first such sample; otherwise its thresholds are sorted
    (``_sorted``) into reused buffers, and it is visited as a ``_Tile``, with
    the profile's own nu, no longer needed, as the clip buffer. A draw's
    exception is raised here, and the worker is joined before this returns or
    raises. Memory is set by the tile, as long as ``visit`` keeps no view of
    the buffers.
    """
    rows = min(max(1, TILE // s.ambient_dim), CHUNK, mc.samples)
    tiles = []  # (chunk, first sample, rows)
    for ci, start in enumerate(range(0, mc.samples, CHUNK)):
        end = min(start + CHUNK, mc.samples)
        tiles += [(ci, lo, min(rows, end - lo)) for lo in range(start, end, rows)]
    draws, bufs = np.empty((2, rows, s.ambient_dim)), None
    free, drawn, closed, failed = (threading.Semaphore(2), threading.Semaphore(0),
                                   threading.Event(), [])

    def draw_ahead():
        try:
            for i, (ci, lo, n) in enumerate(tiles):
                free.acquire()  # buffer i % 2 is free once tile i - 2's profile has returned
                if closed.is_set():
                    return
                if lo == ci * CHUNK:
                    rng = stream(mc.seed, ci)
                rng.standard_normal(out=draws[i % 2, :n])
                drawn.release()
        except BaseException as exc:  # raised again on the calling thread
            failed.append(exc)
            drawn.release()

    worker = threading.Thread(target=draw_ahead, name="proxmse-draw")
    worker.start()
    try:
        for i, (_, lo, n) in enumerate(tiles):
            drawn.acquire()
            if failed:
                raise failed[0]
            p = s.profile(draws[i % 2, :n])
            free.release()
            # a NaN threshold fails every comparison, so no visit may see it first
            _require_finite(lo, p.c0, p.c1 + p.nu.sum(axis=1))
            if bufs is None:  # sorted thresholds and, if weighted, their weights
                bufs = np.empty((1 if p.w is None else 2, p.nu.shape[1], rows))
            tile = _sorted(p, *bufs[:, :, :n])
            # once copied, the profile's own thresholds are the tile's clip buffer
            visit(lo, tile, p.nu.reshape(tile.nu.shape))
            del p, tile  # freed before the next profile
    finally:
        closed.set()
        free.release()
        worker.join()


def mean_stderr(values) -> tuple[float, float]:
    """Sample mean and its standard error (ddof = 1)."""
    arr = np.asarray(values)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Estimates:
    """Estimates from one set of samples (see ``estimate``); a field not asked for is empty.

    curve:   E dist(g, lam*subdiff)^2 at each lam asked for, in order.
    cone:    E min_{lam>=0} dist(g, lam*subdiff)^2, the squared distance to the
             cone generated by the subdifferential, exact per sample.
    optimal: the estimate at lam* (its ``lam``), the exact minimiser of the
             sample mean (the smallest one when c2 = 0).
    """

    curve: list[MsdEstimate]
    cone: MsdEstimate | None
    optimal: MsdEstimate | None


def estimate(s: SignalStructure, mc: McConfig, lams=(), cone: bool = False,
             optimal: bool = False) -> Estimates:
    """Monte Carlo estimates of the mean squared distance from one pass over the samples.

    Each row tile's visit does all its work while the tile is cached: the
    profile at every lam, then the threshold rule of the cone minimum, then the
    pooled minimiser's bracket. The estimates share common random numbers, so
    comparing them carries no sampling noise.
    """
    lams = [require_nonneg(l, "lam") for l in lams]
    if not (lams or cone or optimal):
        raise ValueError("estimate needs lams, cone or optimal")
    values, minima = np.empty((len(lams), mc.samples)), np.empty(mc.samples) if cone else None
    tuned = _PooledMinimum(s, mc) if optimal else None

    def visit(start: int, p: _Tile, t: np.ndarray) -> None:
        rows = slice(start, start + p.c0.size)
        for row, lam in zip(values, lams):
            row[rows] = _profile_eval(p, lam, t)
        if cone:
            minima[rows] = _cone_argmin(p, t)[1]
        if optimal:
            tuned.add(start, p, t)

    _chunks(s, mc, visit)
    curve = [MsdEstimate(*mean_stderr(v), v.size, lam) for v, lam in zip(values, lams)]
    del values  # before the pooled minimiser's bracket closes, which may draw again
    return Estimates(curve, MsdEstimate(*mean_stderr(minima), minima.size) if cone else None,
                     tuned.result() if optimal else None)


def msd_lambda(s: SignalStructure, lam: float, mc: McConfig) -> MsdEstimate:
    """Monte Carlo estimate of E dist(g, lam*subdiff)^2 over standard normal g."""
    return estimate(s, mc, [lam]).curve[0]


def msd_lambda_curve(s: SignalStructure, lams, mc: McConfig) -> list[MsdEstimate]:
    """Estimates for several lam values sharing one set of Gaussian samples."""
    return estimate(s, mc, lams).curve


def msd_cone(s: SignalStructure, mc: McConfig) -> MsdEstimate:
    """Monte Carlo estimate of E min_{lam>=0} dist(g, lam*subdiff)^2."""
    return estimate(s, mc, cone=True).cone


def optimal_lambda(s: SignalStructure, mc: McConfig) -> tuple[float, MsdEstimate]:
    """Scale minimizing the Monte Carlo mean squared distance, and the estimate there."""
    tuned = estimate(s, mc, optimal=True).optimal
    return tuned.lam, tuned


# ---------------------------------------------------------------------------
# Exact l1 curve and closed-form bounds
# ---------------------------------------------------------------------------

def soft_tail_moment(lam: float) -> float:
    """E max(|g| - lam, 0)^2 for standard normal g, in closed form.

    2*((1 + lam^2)*sf(lam) - lam*pdf(lam)), with the normal tail
    sf(lam) = erfc(lam/sqrt(2))/2 and density pdf(lam) = exp(-lam^2/2)/sqrt(2*pi).
    """
    lam = float(lam)
    sf = 0.5 * math.erfc(lam / math.sqrt(2.0))
    pdf = math.exp(-0.5 * lam * lam) / math.sqrt(2.0 * math.pi)
    return 2.0 * ((1.0 + lam * lam) * sf - lam * pdf)


def msd_lambda_exact_l1(n: int, k: int, lam: float) -> float:
    """Exact E dist(g, lam*subdiff)^2 for a k-sparse signal under the l1 norm.

    Equals k*(1 + lam^2) + (n - k) * E max(|g| - lam, 0)^2: support
    coordinates are pinned to lam*sign, off-support coordinates clip at lam.
    """
    n = require_count(n, "n")
    k = require_count(k, "k", n)
    lam = require_nonneg(lam, "lam")
    return float(k * (1.0 + lam * lam) + (n - k) * soft_tail_moment(lam))


def geometry_constants(s: SignalStructure) -> GeometryConstants:
    """Subdifferential radius, peak sphere value, tuning Lipschitz constant, dof."""
    radius, peak = s.radius_and_peak()
    if peak <= 0:
        raise InvalidStructureError("structure has an empty support")
    return GeometryConstants(
        subgradient_radius=radius,
        sphere_max_value=peak,
        tuning_lipschitz=1.0 / peak,
        dof=s.dof,
    )


def table1_threshold(s: SignalStructure) -> float:
    """Smallest lam at which the closed-form MSD bound is valid."""
    return s.table1_threshold()


def table1_bound(s: SignalStructure, lam: float) -> float:
    """Closed-form upper bound on the MSD at scale lam.

    Sparse: (lam^2 + 3) k           for lam >= sqrt(2 log(n/k))
    Low rank: (lam^2 + 2d) r + 2d   for lam >= 2 sqrt(d)
    Block: (lam^2 + b + 2) k        for lam >= sqrt(b) + sqrt(2 log(t/k))
    """
    thr = s.table1_threshold()
    lam = require_nonneg(lam, "lam")
    if lam < thr:
        raise BoundNotValidError(
            f"bound requires lam >= {thr:.6g}, got {lam}", threshold=thr
        )
    return s.table1_bound(lam)


def _lipschitz_excess(radius_lipschitz: float, cone_msd: float) -> float:
    return 2.0 * math.pi * (
        radius_lipschitz ** 2 + radius_lipschitz * math.sqrt(cone_msd) + 1.0
    )


def lipschitz_upper_bound(s: SignalStructure, cone_msd: float) -> float:
    """Upper bound on the optimally tuned MSD from the cone MSD alone.

    cone_msd + 2*pi*(R^2 L^2 + R L sqrt(cone_msd) + 1), where R is the
    subdifferential radius and L the tuning Lipschitz constant. Unlike the
    sandwich gap this needs no norm value, only subdifferential data.
    """
    cone_msd = require_nonneg(cone_msd, "cone_msd")
    gc = geometry_constants(s)
    rl = gc.subgradient_radius * gc.tuning_lipschitz
    return float(cone_msd + _lipschitz_excess(rl, cone_msd))
