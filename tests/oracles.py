"""Independent brute-force oracles shared by the unit and acceptance tests.

Each oracle discretizes the free parameters of a scaled subdifferential (or
of a scalar proximal objective) and minimizes directly, or integrates
numerically, staying independent of the closed-form code paths it is used to
check. scipy, a test dependency only, supplies the quadrature.
"""

import math
from dataclasses import fields, replace

import numpy as np
from scipy import integrate

from proxmse import geometry, signals
from proxmse.streams import stream


def brute_sparse(support, signs, g, lam, step=1e-4):
    total = 0.0
    sset = {int(i): sgn for i, sgn in zip(support, signs)}
    grid = np.arange(-1.0, 1.0 + step / 2, step)
    for i, gi in enumerate(g):
        if i in sset:
            total += (gi - lam * sset[i]) ** 2
        else:
            total += np.min((gi - lam * grid) ** 2)
    return total


def brute_weighted(s, g, lam, step=1e-4):
    w = s.coordinate_weights
    sset = {int(i): sgn for i, sgn in zip(s.support, s.signs)}
    grid = np.arange(-1.0, 1.0 + step / 2, step)
    total = 0.0
    for i, gi in enumerate(g):
        if i in sset:
            total += (gi - lam * w[i] * sset[i]) ** 2
        else:
            total += np.min((gi - lam * w[i] * grid) ** 2)
    return total


def brute_block(s, g, lam, radial_step=1e-3, angle_step=1e-3):
    blocks = np.asarray(g).reshape(s.t, s.b)
    active = {int(i): d for i, d in zip(s.active, s.directions)}
    total = 0.0
    radii = np.arange(0.0, 1.0 + radial_step / 2, radial_step)
    for bi, gb in enumerate(blocks):
        if bi in active:
            total += np.sum((gb - lam * active[bi]) ** 2)
        elif s.b == 1:
            grid = np.arange(-1.0, 1.0 + radial_step / 2, radial_step)
            total += np.min((gb[0] - lam * grid) ** 2)
        elif s.b == 2:
            angles = np.arange(0.0, 2 * np.pi, angle_step)
            sx = np.outer(radii, np.cos(angles)).ravel()
            sy = np.outer(radii, np.sin(angles)).ravel()
            total += np.min((gb[0] - lam * sx) ** 2 + (gb[1] - lam * sy) ** 2)
        else:
            raise NotImplementedError("oracle covers block sizes 1 and 2")
    return total


def brute_lowrank_codim1(s, g, lam, step=1e-4):
    """Low-rank oracle for d - r = 1: the off part is a scalar in [-1, 1]."""
    assert s.d - s.r == 1
    m = signals.as_matrix(g, s.d)

    def complement(f):
        q, _ = np.linalg.qr(f, mode="complete")
        return q[:, s.r:]

    up = complement(s.u)
    vp = complement(s.v)
    fixed = s.u @ s.v.T
    free = up @ vp.T
    grid = np.arange(-1.0, 1.0 + step / 2, step)
    vals = [np.sum((m - lam * (fixed + w * free)) ** 2) for w in grid]
    return min(vals)


def grid_prox_scalar(y, tau, weight=1.0, step=1e-4):
    """Grid minimizer of 0.5*(y - x)^2 + tau*weight*|x|."""
    span = abs(y) + 1.0
    xs = np.arange(-span, span + step / 2, step)
    obj = 0.5 * (y - xs) ** 2 + tau * weight * np.abs(xs)
    return xs[int(np.argmin(obj))]


def combined_se(*ses):
    """The standard error of a sum or difference of independent estimates."""
    return math.sqrt(sum(s * s for s in ses))


def l1_ball_shrink(mags: np.ndarray, radius: float) -> np.ndarray:
    """Per row of mags, the theta with sum max(mags - theta, 0) = radius (rows outside).

    Sort-then-threshold (Duchi, Shalev-Shwartz, Singer & Chandra 2008): with
    the magnitudes in decreasing order, theta is the candidate
    (top-j sum - radius) / j of the last j whose j-th magnitude exceeds it.
    """
    u = np.sort(mags, axis=-1)[..., ::-1]
    count = u.shape[-1]
    cand = (np.cumsum(u, axis=-1) - radius) / np.arange(1, count + 1)
    last = count - 1 - np.argmax((u > cand)[..., ::-1], axis=-1)
    return cand[(*np.indices(last.shape, sparse=True), last)]


def householder_haar_columns(rng: np.random.Generator, d: int, r: int) -> np.ndarray:
    """Haar-random d x r matrix with orthonormal columns: Householder QR of a
    Gaussian matrix, the triangular factor's diagonal signs absorbed, at
    every width (``signals.haar_columns`` takes Cholesky QR when 2r <= d)."""
    g = rng.standard_normal((d, r))
    q, rr = np.linalg.qr(g)
    signs = np.sign(np.diag(rr))
    signs[signs == 0] = 1.0
    return q * signs


def lu_inverse_haar_columns(rng: np.random.Generator, d: int, r: int) -> np.ndarray:
    """Cholesky QR of a d x r Gaussian matrix with the triangular factor
    inverted by ``np.linalg.inv`` (an LU solve) at every width, for 2r <= d
    (``signals.haar_columns`` inverts it blockwise past r = 64)."""
    g = rng.standard_normal((d, r))
    return g @ np.linalg.inv(np.linalg.cholesky(g.T @ g)).T


def soft_tail_moment_quadrature(lam):
    """E max(|g| - lam, 0)^2 for standard normal g, by adaptive quadrature.

    Substituting t = lam + s turns 2 * int_lam^inf (t - lam)^2 pdf(t) dt into
    2 * pdf(lam) * int_0^inf s^2 exp(-lam*s - s^2/2) ds. That integrand peaks
    at some s <= sqrt(2) and carries no factor pdf(lam) (7.7e-23 at lam = 10),
    so a relative tolerance of 1e-13 is met for every lam >= 0. Integrating
    (t - lam)^2 pdf(t) from lam directly lost up to 3e-6 relative at lam = 5.
    """
    lam = float(lam)
    val, _ = integrate.quad(lambda s: s * s * math.exp(-lam * s - 0.5 * s * s), 0.0, math.inf,
                            epsabs=0.0, epsrel=1e-13)
    return 2.0 * math.exp(-0.5 * lam * lam) / math.sqrt(2.0 * math.pi) * val


def row_major_profile_eval(p, lam):
    """The scale profile at lam (a number, or one per sample) on the row-major
    (samples, thresholds) profile as the structure returns it: every threshold
    of every sample clipped, and each row summed as numpy sums it."""
    lam = np.asarray(lam, dtype=float)
    t = np.maximum(p.nu - lam[..., None], 0.0) ** 2
    if p.w is not None:
        t *= p.w
    return p.c0 - 2.0 * p.c1 * lam + p.c2 * lam * lam + t.sum(axis=1)


def whole_chunk_estimates(s, lams, mc):
    """``msd_lambda_curve``, ``msd_cone`` and ``optimal_lambda`` over undivided
    chunk profiles, as they ran before the profiles were cut into row tiles:
    per-sample values concatenated per estimator, pooled sums added per chunk.
    Each chunk is sorted as one tile, and every pooled clip sweeps all its ranks.
    The chunk is ``geometry.CHUNK`` as the call reads it, patched or not."""
    chunks, chunk = [], geometry.CHUNK
    for ci, start in enumerate(range(0, mc.samples, chunk)):
        G = stream(mc.seed, ci).standard_normal((min(chunk, mc.samples - start), s.ambient_dim))
        chunks.append((start, geometry._sorted(s.profile(G))))

    def estimate(values, lam=None):
        values = np.concatenate(values)
        return geometry.MsdEstimate(*geometry.mean_stderr(values), values.size, lam)

    curve = [estimate([geometry._profile_eval(p, lam) for _, p in chunks], lam) for lam in lams]
    buf = np.empty_like(chunks[0][1].nu)
    cone = estimate([geometry._cone_argmin(p, buf[:, : p.c0.size])[1] for _, p in chunks])
    lam, count = 0.0, -1
    for passes in range(sum(p.nu.size for _, p in chunks) + 2):
        active, excess, slope = 0, 0.0, 0.0
        for start, p in chunks:
            a, weight, clipped = geometry._clip(p.nu, p.w, lam, buf[:, : p.c0.size])
            e, sl = p.c1 + clipped - p.c2 * lam, p.c2 + weight
            if passes == 0:
                geometry._require_finite(start, p.c0, e)
            active, excess, slope = active + int(a.sum()), excess + e.sum(), slope + sl.sum()
        if active == count:
            break
        lam += max(float(excess / slope), 0.0) if slope > 0 else 0.0
        count = active
    else:
        raise AssertionError("pooled active set still moving")
    return curve, cone, (lam, estimate([geometry._profile_eval(p, lam) for _, p in chunks], lam))


def first_order_error(s, z, tau):
    """Error vector of the linearized problem: z minus its projection on tau*subdiff.

    For small noise the true prox error converges to this vector, which is
    what makes the small-sigma NMSE equal the mean squared distance.
    """
    return np.asarray(z, dtype=float) - geometry.project_scaled_subdiff(s, z, tau)


# The structure of the same norm at a point: support, active blocks or rank
# detected from the values, as the certificate in prox.prox_residual reads
# them. For a valid instance each reproduces the stored descriptor.

def signed_support_at(s, values):
    """Sparse or weighted sparse: the entries above 1e-12 and their signs."""
    support = np.flatnonzero(np.abs(values) > signals.SUPPORT_TOL)
    return replace(s, support=support, signs=np.sign(values[support]))


def block_at(s, values):
    """Block sparse: blocks with norm above 1e-12 are active."""
    blocks = values.reshape(s.t, s.b)
    norms = np.linalg.norm(blocks, axis=1)
    active = np.flatnonzero(norms > signals.SUPPORT_TOL)
    return replace(s, active=active, directions=blocks[active] / norms[active, None])


def lowrank_at(s, values):
    """Low rank: rank from the singular values above 1e-10.

    Singular-vector signs may differ from the stored factors; the geometry
    never sees them. The full SVD also gives the complement bases, which
    seed the derived structure's ``complements`` cache.
    """
    u, sv, vt = np.linalg.svd(signals.as_matrix(values, s.d))
    r = int(np.sum(sv > signals.RANK_TOL))
    out = replace(s, r=r, u=u[:, :r], v=vt[:r].T)
    out.__dict__["complements"] = (u[:, r:], vt[r:].T)
    return out


def same_subdifferential(a, b, tol):
    """Whether two structures of one class agree to within ``tol`` in every
    field. Low rank compares d, r, u v^T and the two subspace projectors,
    the data its subdifferential depends on, since the factors' signs may
    differ."""
    if type(a) is not type(b):
        return False
    if isinstance(a, signals.LowRankStructure):
        pairs = [(a.d, b.d), (a.r, b.r), (a.u @ a.v.T, b.u @ b.v.T),
                 (a.u @ a.u.T, b.u @ b.u.T), (a.v @ a.v.T, b.v @ b.v.T)]
    else:
        pairs = [(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)]
    return all(np.shape(x) == np.shape(y) and np.allclose(x, y, rtol=0.0, atol=tol)
               for x, y in pairs)
