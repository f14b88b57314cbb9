"""Structured test signals and their geometric descriptors.

Each structure records exactly the data the downstream distance formulas
consume: support and signs for sparse vectors, active blocks and unit
directions for block-sparse vectors, singular subspaces for low-rank
matrices. Values (magnitudes) live on :class:`SignalInstance`, not on the
structure, because the subdifferential geometry depends only on signs and
subspaces.

Each structure class also owns every formula that depends on its kind: the
norm value, the coefficients of the scale profile (:meth:`profile`, see
:mod:`proxmse.geometry`) and the projection onto the scaled
subdifferential, the geometry constants, the Table-1 threshold and bound,
the degrees of freedom, its label and its descriptor fields. ``family``
names the norm family ("l1", "wl1", "l12", "nuclear"). :func:`split` takes
a point apart into that family's magnitudes (|entries|, block norms or
singular values) and a map that rebuilds a point from new magnitudes; the
prox, the ball projection and the dual norm in :mod:`proxmse.prox`, and
each class's projection onto the scaled subdifferential, only move the
magnitudes.

Matrices are stored flattened column-major as vectors of length d*d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import InvalidStructureError, require_int
from .streams import stream

SUPPORT_TOL = 1e-12
RANK_TOL = 1e-10
ORTHO_TOL = 1e-10

# the most float64 entries one numpy array can hold: a larger count overflows
# numpy's sampling, or crashes it, instead of failing as a structure error
MAX_COUNT = np.iinfo(np.intp).max // np.dtype(float).itemsize
_COUNT_NAMES = {"n": "ambient dimension", "k": "support size", "t": "block count",
               "b": "block size", "d": "matrix side", "r": "rank"}


def require_count(value, name: str, high: int = MAX_COUNT, low: int = 1) -> int:
    """The structure count ``name`` as an int in [low, high]: TypeError naming
    it unless it is an integer (numpy's included), InvalidStructureError out of
    range. Every class, maker and :func:`proxmse.geometry.msd_lambda_exact_l1`
    checks its counts here, the ambient dimension (t*b, d*d) as "n" too."""
    value = require_int(value, name)
    if not low <= value <= high:
        limit = f"at most {high}" if value > high else "positive" if low else "nonnegative"
        raise InvalidStructureError(f"{_COUNT_NAMES[name]} must be {limit}, got {name}={value}")
    return value


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _frozen_indices(a, name: str, bound: int, distinct: bool = True) -> np.ndarray:
    """``a`` as read-only int indices in [0, bound), distinct unless told otherwise; an entry
    that is not a whole number (a fraction, NaN, inf or a bool) raises, not truncated."""
    a = np.asarray(a)
    if a.dtype.kind not in "iuf" or not np.all(np.isfinite(a) & (a == np.trunc(a))):
        raise InvalidStructureError(f"{name} indices must be whole numbers, got "
                                    f"{np.array2string(a, threshold=6)}")
    a = _frozen_array(a, dtype=int)
    if a.size and (a.min() < 0 or a.max() >= bound):
        raise InvalidStructureError(f"{name} index out of range")
    if distinct and np.unique(a).size < a.size:
        raise InvalidStructureError(f"{name} indices must be distinct")
    return a


@dataclass
class ScaleProfile:
    """Per-sample coefficients of dist^2 as a function of lam (see geometry's module doc).

    Every ``profile`` computes a row from its own sample alone, in C order, so
    a sample's coefficients carry the same bits whatever rows it comes with.
    """

    c0: np.ndarray          # (N,)
    c1: np.ndarray          # (N,)
    c2: float
    nu: np.ndarray          # (N, J) clip thresholds
    w: np.ndarray | None    # (J,) column weights, None means all ones


class _Structure:
    """Defaults every structure class shares; the formulas of each kind are its methods.

    Every class provides ``kind``, ``family``, ``block_size``, ``ambient_dim``,
    ``dof``, ``label``, ``norm(values)``, ``layout(rows)``, ``profile(G)``,
    ``project_subdiff(g, lam)``, ``radius_and_peak()`` (the largest
    subgradient norm and the largest norm value on the unit sphere with the
    same subdifferential), ``check_values(values)`` and
    ``min_magnitude(values)``; those with a closed-form bound also
    ``table1_threshold()`` and ``table1_bound(lam)``.
    """

    block_size = None
    descriptor_fields: tuple[str, ...] = ()
    # the weight of each magnitude of split() in the norm; the l1 classes
    # override it with one weight per coordinate
    coordinate_weights = 1.0

    def layout(self, rows: np.ndarray):
        """Stacked points (..., ambient_dim) in the layout :func:`split` reads,
        and the map that flattens that layout back; vectors need no change."""
        return rows, lambda points: points

    @property
    def label(self) -> str:
        """Compact tag used in CSV output, e.g. 'sparse:500:20'."""
        return ":".join([self.kind, *(str(getattr(self, f)) for f in self.descriptor_fields)])

    def table1_threshold(self) -> float:
        """Smallest lam at which the closed-form (Table 1) MSD bound holds."""
        raise InvalidStructureError(f"no closed-form bound for {type(self).__name__}")


class _SignedSupport(_Structure):
    """Validation and formulas of the weighted l1 norm sum_i w_i |x_i|, shared by the
    plain sparse structure (unit weights) and the weighted one."""

    def __post_init__(self):
        object.__setattr__(self, "n", require_count(self.n, "n"))
        object.__setattr__(self, "support", _frozen_indices(self.support, "support", self.n))
        object.__setattr__(self, "signs", _frozen_array(self.signs))
        if self.signs.shape != (self.k,) or not np.all(np.abs(self.signs) == 1.0):
            raise InvalidStructureError("signs must be exactly +-1 on the support")

    @property
    def k(self) -> int:
        return self.support.size

    @property
    def ambient_dim(self) -> int:
        return self.n

    @property
    def dof(self) -> int:
        """Parameter count of the structure class."""
        return self.k

    def norm(self, values) -> float:
        return float(np.sum(self.coordinate_weights * np.abs(values)))

    @cached_property
    def index_sets(self):
        """The off-support indices with positive and with zero weight, the positive
        weights (None when all are 1) and w * signs on the support."""
        w = self.coordinate_weights
        off = np.setdiff1d(np.arange(self.n), self.support)
        pos = off[w[off] > 0]
        unit = np.all(w[pos] == 1.0)
        return pos, off[w[off] == 0], None if unit else w[pos], w[self.support] * self.signs

    def profile(self, G: np.ndarray) -> ScaleProfile:
        """Support coordinates pin to lam*w*sign, the others clip at lam*w;
        zero-weight coordinates off the support count in full."""
        pos, zero, w, signed = self.index_sets
        gs = np.take(G, self.support, axis=1)
        nu = np.take(G, pos, axis=1)    # a row-major copy, so take |.| in place
        np.abs(nu, out=nu)
        if w is not None:
            nu /= w
        return ScaleProfile(
            c0=(gs ** 2).sum(axis=1) + (np.take(G, zero, axis=1) ** 2).sum(axis=1),
            c1=(gs * signed).sum(axis=1),
            c2=float((signed ** 2).sum()),
            nu=nu,
            w=None if w is None else w ** 2,
        )

    def project_subdiff(self, g: np.ndarray, lam: float) -> np.ndarray:
        w = self.coordinate_weights
        mags, rebuild = split(g, self.family)
        p = rebuild(np.minimum(mags, lam * w))
        p[self.support] = lam * w[self.support] * self.signs
        return p

    def radius_and_peak(self) -> tuple[float, float]:
        w = self.coordinate_weights
        return math.sqrt(float((w ** 2).sum())), math.sqrt(float((w[self.support] ** 2).sum()))

    def check_values(self, values: np.ndarray) -> None:
        off = np.concatenate(self.index_sets[:2])
        if off.size and np.max(np.abs(values[off])) > SUPPORT_TOL:
            raise InvalidStructureError("values leak outside the declared support")
        if np.any(np.sign(values[self.support]) != self.signs):
            raise InvalidStructureError("value signs disagree with the declared signs")

    def min_magnitude(self, values: np.ndarray) -> float:
        return float(np.min(np.abs(values[self.support])))


@dataclass(frozen=True, eq=False)
class SparseStructure(_SignedSupport):
    """k-sparse vector in R^n: support set and +-1 signs on the support.

    Its norm is l1, the weighted l1 norm with unit weights.
    """

    n: int
    support: np.ndarray
    signs: np.ndarray

    kind = "sparse"
    family = "l1"
    descriptor_fields = ("n", "k")

    @property
    def coordinate_weights(self) -> np.ndarray:
        return np.ones(self.n)

    def table1_threshold(self) -> float:
        return math.sqrt(2.0 * math.log(self.n / self.k))

    def table1_bound(self, lam: float) -> float:
        return float((lam * lam + 3.0) * self.k)


@dataclass(frozen=True, eq=False)
class WeightedSparseStructure(_SignedSupport):
    """Sparse vector with a region partition and one nonnegative weight per region.

    ``region_of[i]`` gives the region index of coordinate i; ``weights[j]`` is
    the penalty weight of region j.
    """

    n: int
    support: np.ndarray
    signs: np.ndarray
    region_of: np.ndarray
    weights: np.ndarray

    kind = "weighted"
    family = "wl1"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        object.__setattr__(self, "region_of", _frozen_indices(self.region_of, "region",
                                                              self.weights.size, False))
        if self.region_of.shape != (self.n,):
            raise InvalidStructureError("region_of must assign every coordinate")
        if not np.all(np.isfinite(self.weights) & (self.weights >= 0)):
            raise InvalidStructureError("weights must be finite and nonnegative")

    @property
    def coordinate_weights(self) -> np.ndarray:
        """Per-coordinate weight w_{region(i)}, shape (n,)."""
        return self.weights[self.region_of]

    @property
    def label(self) -> str:
        return f"weighted:{self.n}:{self.k}:{self.weights.size}"


@dataclass(frozen=True, eq=False)
class BlockSparseStructure(_Structure):
    """t blocks of size b (n = t*b); k active blocks each with a unit direction."""

    t: int
    b: int
    active: np.ndarray
    directions: np.ndarray

    kind = "block"
    family = "l12"
    descriptor_fields = ("t", "b", "k")

    def __post_init__(self):
        for name in ("t", "b"):
            object.__setattr__(self, name, require_count(getattr(self, name), name))
        require_count(self.ambient_dim, "n")
        object.__setattr__(self, "active", _frozen_indices(self.active, "active block", self.t))
        object.__setattr__(self, "directions", _frozen_array(self.directions))
        if self.directions.shape != (self.k, self.b):
            raise InvalidStructureError("one direction of length b per active block required")
        norms = np.linalg.norm(self.directions, axis=1)  # none when no block is active
        if np.any(np.abs(norms - 1.0) > ORTHO_TOL):
            raise InvalidStructureError("block directions must have unit Euclidean norm")

    @property
    def k(self) -> int:
        return self.active.size

    @property
    def ambient_dim(self) -> int:
        return self.t * self.b

    @property
    def block_size(self) -> int:
        return self.b

    @property
    def dof(self) -> int:
        return self.b * self.k

    def norm(self, values) -> float:
        """l1,2 norm: the sum of the block norms."""
        blocks = np.asarray(values, dtype=float).reshape(self.t, self.b)
        return float(np.sum(np.linalg.norm(blocks, axis=1)))

    @cached_property
    def inactive(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.t), self.active)

    def profile(self, G: np.ndarray) -> ScaleProfile:
        blocks = G.reshape(G.shape[0], self.t, self.b)
        ga = np.take(blocks, self.active, axis=1)
        return ScaleProfile(
            c0=(ga ** 2).sum(axis=(1, 2)),
            c1=(ga * self.directions).sum(axis=(1, 2)),
            c2=float(self.k),
            nu=np.linalg.norm(np.take(blocks, self.inactive, axis=1), axis=2),
            w=None,
        )

    def project_subdiff(self, g: np.ndarray, lam: float) -> np.ndarray:
        norms, rebuild = split(g, self.family, self.b)
        p = rebuild(np.minimum(norms, lam))
        p.reshape(self.t, self.b)[self.active] = lam * self.directions
        return p

    def radius_and_peak(self) -> tuple[float, float]:
        return math.sqrt(self.t), math.sqrt(self.k)

    def table1_threshold(self) -> float:
        return math.sqrt(self.b) + math.sqrt(2.0 * math.log(self.t / self.k))

    def table1_bound(self, lam: float) -> float:
        return float((lam * lam + self.b + 2.0) * self.k)

    def check_values(self, values: np.ndarray) -> None:
        blocks = values.reshape(self.t, self.b)
        if self.inactive.size and np.max(np.abs(blocks[self.inactive])) > SUPPORT_TOL:
            raise InvalidStructureError("values leak outside the active blocks")

    def min_magnitude(self, values: np.ndarray) -> float:
        blocks = values.reshape(self.t, self.b)
        return float(np.min(np.linalg.norm(blocks[self.active], axis=1)))


@dataclass(frozen=True, eq=False)
class LowRankStructure(_Structure):
    """Rank-r d x d matrix: orthonormal factors u, v of shape (d, r)."""

    d: int
    r: int
    u: np.ndarray
    v: np.ndarray

    kind = "lowrank"
    family = "nuclear"
    descriptor_fields = ("d", "r")

    def __post_init__(self):
        object.__setattr__(self, "d", require_count(self.d, "d"))
        require_count(self.ambient_dim, "n")
        object.__setattr__(self, "r", require_count(self.r, "r", self.d, low=0))
        object.__setattr__(self, "u", _frozen_array(self.u))
        object.__setattr__(self, "v", _frozen_array(self.v))
        if self.u.shape != (self.d, self.r) or self.v.shape != (self.d, self.r):
            raise InvalidStructureError("factors must have shape (d, r)")
        eye = np.eye(self.r)
        for name, f in (("u", self.u), ("v", self.v)):
            if self.r and np.max(np.abs(f.T @ f - eye)) > ORTHO_TOL:
                raise InvalidStructureError(f"factor {name} is not orthonormal to 1e-10")

    @property
    def ambient_dim(self) -> int:
        return self.d * self.d

    @property
    def dof(self) -> int:
        return self.r * (2 * self.d - self.r)

    def norm(self, values) -> float:
        """Nuclear norm: the sum of the singular values."""
        return float(np.sum(np.linalg.svd(as_matrix(values, self.d), compute_uv=False)))

    def layout(self, rows: np.ndarray):
        """Column-major flattenings (..., d*d) as matrices (..., d, d), and back."""
        return as_matrix(rows, self.d), as_vector

    @cached_property
    def complements(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal bases of the complements of range(u) and range(v)."""
        return _complement_basis(self.u), _complement_basis(self.v)

    @cached_property
    def direction(self) -> np.ndarray:
        return self.u @ self.v.T  # the subgradients' part inside the signal's subspaces

    def profile(self, G: np.ndarray) -> ScaleProfile:
        n_samp, d, r = G.shape[0], self.d, self.r
        mats = as_matrix(G, d)
        c0 = (mats ** 2).sum(axis=(1, 2))
        c1 = np.einsum("nij,ij->n", mats, self.direction)
        nu = np.zeros((n_samp, 0))
        if r < d:
            uperp, vperp = self.complements
            b = (uperp.T @ mats) @ vperp
            try:
                nu = np.linalg.svd(b, compute_uv=False)
            except np.linalg.LinAlgError:
                # LAPACK takes no NaN or inf: such a sample keeps NaN thresholds
                # (its c0 is not finite either), and geometry reports its index
                finite = np.isfinite(b).all(axis=(1, 2))
                nu = np.full((n_samp, d - r), np.nan)
                nu[finite] = np.linalg.svd(b[finite], compute_uv=False)
            c0 -= (b ** 2).sum(axis=(1, 2))
        return ScaleProfile(c0=c0, c1=c1, c2=float(r), nu=nu, w=None)

    def project_subdiff(self, g: np.ndarray, lam: float) -> np.ndarray:
        p = lam * self.u @ self.v.T
        if self.r < self.d:
            # the component outside the signal's subspaces, in the complement
            # bases, with its singular values clipped at lam (unchanged when
            # none exceeds lam, as at a prox solution)
            uperp, vperp = self.complements
            b = uperp.T @ as_matrix(g, self.d) @ vperp
            if np.linalg.norm(b, 2) > lam:
                sv, rebuild = split(b, self.family)
                b = rebuild(np.minimum(sv, lam))
            p = p + uperp @ b @ vperp.T
        return as_vector(p)

    def radius_and_peak(self) -> tuple[float, float]:
        return math.sqrt(self.d), math.sqrt(self.r)

    def table1_threshold(self) -> float:
        return 2.0 * math.sqrt(self.d)

    def table1_bound(self, lam: float) -> float:
        return float((lam * lam + 2.0 * self.d) * self.r + 2.0 * self.d)

    def check_values(self, values: np.ndarray) -> None:
        x = as_matrix(values, self.d)
        resid = x - self.u @ (self.u.T @ x @ self.v) @ self.v.T
        if np.max(np.abs(resid)) > 1e-9 * max(1.0, np.max(np.abs(x))):
            raise InvalidStructureError("values leave the declared singular subspaces")

    def min_magnitude(self, values: np.ndarray) -> float:
        sv = np.linalg.svd(as_matrix(values, self.d), compute_uv=False)
        return float(sv[self.r - 1])


def _complement_basis(u: np.ndarray) -> np.ndarray:
    d, r = u.shape
    q, _ = np.linalg.qr(u, mode="complete")
    # columns r..d of the full Q span the orthogonal complement of range(u)
    q_perp = q[:, r:]
    # re-orthogonalize against u explicitly to kill rounding leakage
    q_perp = q_perp - u @ (u.T @ q_perp)
    q_perp, _ = np.linalg.qr(q_perp)
    return q_perp


SignalStructure = Union[
    SparseStructure, WeightedSparseStructure, BlockSparseStructure, LowRankStructure
]


@dataclass(frozen=True, eq=False)
class SignalInstance:
    """A concrete signal: structure plus dense coefficient values.

    Values have length n (or d*d, column-major, for low-rank) and must be
    supported exactly on the structure's support/blocks/subspaces. The zero
    vector is rejected: every formula downstream assumes the signal does not
    already minimize its structure-inducing norm.
    """

    structure: SignalStructure
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        s = self.structure
        if self.values.shape != (s.ambient_dim,):
            raise InvalidStructureError("values must be a dense vector of the ambient dimension")
        if np.linalg.norm(self.values) <= SUPPORT_TOL:
            raise InvalidStructureError("signal values must not be the zero vector")
        s.check_values(self.values)

    @property
    def ambient_dim(self) -> int:
        return self.structure.ambient_dim

    def min_magnitude(self) -> float:
        """Smallest structural feature: min nonzero |entry| / block norm / singular value."""
        return self.structure.min_magnitude(self.values)


def as_matrix(values: np.ndarray, d: int) -> np.ndarray:
    """Reshape column-major flattenings (..., d*d) to matrices (..., d, d)."""
    values = np.asarray(values)
    return np.swapaxes(values.reshape(values.shape[:-1] + (d, d)), -1, -2)


def as_vector(matrix: np.ndarray) -> np.ndarray:
    """Flatten square matrices (..., d, d) column-major to (..., d*d), as a new array."""
    matrix = np.asarray(matrix)
    columns = np.array(np.swapaxes(matrix, -1, -2), order="C")
    return columns.reshape(matrix.shape[:-2] + (-1,))


def square_matrices(y) -> tuple[np.ndarray, bool]:
    """The matrices of a nuclear-norm input, and whether it came flattened.

    A 1-D input of length d*d is one matrix flattened column-major, a 2-D
    input is always one square matrix, and an input of shape (..., d, d) is
    a stack of them. A stack of flattened matrices is therefore never taken
    for one matrix; :func:`as_matrix` turns one into a stack.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        d = math.isqrt(y.size)
        if d * d != y.size:
            raise ValueError("flattened input must have square length")
        return as_matrix(y, d), True
    if y.ndim < 2 or y.shape[-1] != y.shape[-2]:
        raise ValueError("matrix input must be square")
    return y, False


def split(y, family: str, block_size: int | None = None):
    """The magnitudes of y under a norm family, and the map that rebuilds a point from them.

    The magnitudes are |y_i| for "l1" and "wl1", the norms of the size-b
    blocks of a vector for "l12", and the singular values of a square matrix
    for "nuclear". ``rebuild(m)`` returns the point in y's layout with y's
    signs, block directions or singular vectors and the magnitudes m; a zero
    block stays zero.

    Leading axes are a batch: y is (..., n) for the vector families and
    (..., d, d) for "nuclear" (see :func:`square_matrices` for its one-matrix
    forms), the magnitudes are (..., count) with one row per point, and
    ``rebuild`` takes rows of the same shape. Each row comes out bitwise as
    it does for that point alone.
    """
    y = np.asarray(y, dtype=float)
    if family in ("l1", "wl1"):
        return np.abs(y), lambda m: np.sign(y) * m
    if family == "l12":
        # a float or a bool raises TypeError naming the field, not numpy's own error
        if block_size is None or require_int(block_size, "block size") < 1:
            raise ValueError(f"block size must be a positive integer, got {block_size!r}")
        length = y.shape[-1] if y.ndim else 1
        if length % block_size:
            raise ValueError(f"length {length} not divisible by block size {block_size}")
        blocks = y.reshape(y.shape[:-1] + (-1, block_size))
        norms = np.linalg.norm(blocks, axis=-1)

        def rebuild_blocks(m):
            scale = np.zeros_like(norms)
            nz = norms > 0
            scale[nz] = m[nz] / norms[nz]
            return (blocks * scale[..., None]).reshape(y.shape)
        return norms, rebuild_blocks
    if family == "nuclear":
        mats, flat = square_matrices(y)
        u, sv, vt = np.linalg.svd(mats)

        def rebuild_matrix(m):
            x = (u * m[..., None, :]) @ vt
            return as_vector(x) if flat else x
        return sv, rebuild_matrix
    raise ValueError(f"unknown norm family {family!r}")


def _magnitudes(rng: np.random.Generator, count: int, law: str) -> np.ndarray:
    if law == "unit":
        return np.ones(count)
    if law == "uniform":
        return rng.uniform(1.0, 2.0, size=count)
    raise InvalidStructureError(f"unknown magnitude law {law!r} (use 'unit' or 'uniform')")


def make_sparse(n: int, k: int, magnitude_law: str = "uniform", seed: int = 0) -> SignalInstance:
    """Draw a k-sparse signal in R^n.

    Support positions are uniform without replacement, signs are uniform +-1,
    magnitudes follow ``magnitude_law`` ('unit' -> all ones, 'uniform' ->
    U[1,2], bounded away from zero so support detection is unambiguous).
    Deterministic given (arguments, seed). The counts pass
    :func:`require_count`, the check and bound the CLI applies.
    """
    n = require_count(n, "n")
    k = require_count(k, "k", n)
    rng = stream(seed)
    support = np.sort(rng.choice(n, size=k, replace=False))
    signs = rng.choice([-1.0, 1.0], size=k)
    mags = _magnitudes(rng, k, magnitude_law)
    values = np.zeros(n)
    values[support] = signs * mags
    return SignalInstance(SparseStructure(n, support, signs), values)


def make_block_sparse(t: int, b: int, k: int, seed: int = 0,
                      magnitude_law: str = "uniform") -> SignalInstance:
    """Draw a block-sparse signal: k of t size-b blocks active.

    Each active block holds a uniformly random unit direction scaled by a
    positive magnitude. The counts pass :func:`require_count`, as in the CLI.
    """
    t, b = require_count(t, "t"), require_count(b, "b")
    n, k = require_count(t * b, "n"), require_count(k, "k", t)
    rng = stream(seed)
    active = np.sort(rng.choice(t, size=k, replace=False))
    raw = rng.standard_normal((k, b))
    directions = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    mags = _magnitudes(rng, k, magnitude_law)
    values = np.zeros(n)
    blocks = values.reshape(t, b)
    blocks[active] = mags[:, None] * directions
    return SignalInstance(BlockSparseStructure(t, b, active, directions), values)


def make_low_rank(d: int, r: int, seed: int = 0,
                  magnitude_law: str = "uniform") -> SignalInstance:
    """Draw a rank-r d x d matrix X0 = U diag(s) V^T with Haar-random factors.

    U and V are the Q factors, with positive-diagonal triangular factors, of
    independent d x r Gaussian matrices (``haar_columns``: Cholesky QR when
    2r <= d, Householder otherwise), which makes them Haar distributed.
    Singular values are positive (per ``magnitude_law``). The counts pass
    :func:`require_count`, as in the CLI.
    """
    d = require_count(d, "d")
    require_count(d * d, "n")
    r = require_count(r, "r", d)
    rng = stream(seed)
    u = haar_columns(rng, d, r)
    v = haar_columns(rng, d, r)
    sv = np.sort(_magnitudes(rng, r, magnitude_law))[::-1]
    x = u @ np.diag(sv) @ v.T
    return SignalInstance(LowRankStructure(d, r, u, v), as_vector(x))


def _lower_inverse(l: np.ndarray) -> np.ndarray:
    """The inverse of a nonsingular lower-triangular k x k matrix L.

    ``np.linalg.inv`` solves L X = I by LU, about 8 times the flops of a
    triangular inverse, so past k = 64 L is split at h = k // 2 into
    [[A, 0], [C, D]] and the inverse is [[A^-1, 0], [-D^-1 C A^-1, D^-1]],
    with A^-1 and D^-1 by the same rule and the rest two matrix products.
    Up to k = 64 it is ``np.linalg.inv(L)``, bit for bit.
    """
    k = l.shape[0]
    if k <= 64:
        return np.linalg.inv(l)
    h = k // 2
    a_inv, d_inv = _lower_inverse(l[:h, :h]), _lower_inverse(l[h:, h:])
    return np.block([[a_inv, np.zeros((h, k - h))], [-(d_inv @ (l[h:, :h] @ a_inv)), d_inv]])


def haar_columns(rng: np.random.Generator, d: int, r: int) -> np.ndarray:
    """Haar-random d x r matrix with orthonormal columns: the Q factor of a
    d x r Gaussian matrix G whose triangular factor has a positive diagonal.

    Both branches draw only G, so they leave the stream in the same place.
    When 2r <= d, Q comes by Cholesky QR, Q = G L^-T with L L^T = G^T G:
    such a G has cond(G) near (sqrt d + sqrt r) / (sqrt d - sqrt r) <= 5.8,
    so Q is orthonormal to a few eps. L^-1 is ``_lower_inverse``'s blocked
    triangular inverse, which is ``np.linalg.inv`` itself when r <= 64.
    Cholesky QR's error grows like cond(G)^2 eps, and a G with 2r > d can be
    arbitrarily ill conditioned, so there Householder QR runs, with the
    triangular factor's diagonal signs absorbed into Q.
    """
    g = rng.standard_normal((d, r))
    if 2 * r <= d:
        return g @ _lower_inverse(np.linalg.cholesky(g.T @ g)).T
    q, rr = np.linalg.qr(g)
    signs = np.sign(np.diag(rr))
    signs[signs == 0] = 1.0
    return q * signs


def make_weighted_sparse(n: int, k: int, region_of, weights,
                         magnitude_law: str = "uniform", seed: int = 0) -> SignalInstance:
    """Sparse signal with per-region nonnegative weights on the penalty."""
    base = make_sparse(n, k, magnitude_law, seed)
    s = base.structure
    ws = WeightedSparseStructure(n, s.support, s.signs, np.asarray(region_of),
                                 np.asarray(weights, dtype=float))
    return SignalInstance(ws, base.values)


def nonnegative(inst: SignalInstance) -> SignalInstance:
    """Flip a sparse instance so every entry is nonnegative (signs all +1)."""
    s = inst.structure
    if not isinstance(s, SparseStructure):
        raise InvalidStructureError("nonnegative() applies to sparse instances only")
    flipped = SparseStructure(s.n, s.support, np.ones(s.k))
    return SignalInstance(flipped, np.abs(inst.values))


# the structures built by a seeded constructor, hence with a JSON descriptor
# and a CLI shorthand kind:field:field...
_MAKERS = {"sparse": make_sparse, "block": make_block_sparse, "lowrank": make_low_rank}
DESCRIPTOR_FIELDS = {cls.kind: cls.descriptor_fields
                     for cls in (SparseStructure, BlockSparseStructure, LowRankStructure)}


def instance_from_descriptor(desc: dict, magnitude_law: str = "uniform") -> SignalInstance:
    """Build a SignalInstance from a JSON-style descriptor dict such as
    {"kind": "sparse", "n": 500, "k": 20, "seed": 1}. The maker checks each
    count and the seed: a float, a string, a boolean or a missing field raises
    TypeError, not truncated, and a count out of range, or past
    :data:`MAX_COUNT`, raises InvalidStructureError, as for any caller."""
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in _MAKERS:
        raise InvalidStructureError(f"unknown structure kind {kind!r}")
    args = {name: desc.get(name) for name in (*DESCRIPTOR_FIELDS[kind], "seed")}
    return _MAKERS[kind](**args, magnitude_law=desc.get("magnitude_law", magnitude_law))
