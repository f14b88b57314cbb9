"""Structured test signals and their geometric descriptors.

Each structure records exactly the data the downstream distance formulas
consume: support and signs for sparse vectors, active blocks and unit
directions for block-sparse vectors, singular subspaces for low-rank
matrices. Values (magnitudes) live on :class:`SignalInstance`, not on the
structure, because the subdifferential geometry depends only on signs and
subspaces.

Matrices are stored flattened column-major as vectors of length d*d.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidStructureError
from .streams import stream

SUPPORT_TOL = 1e-12
RANK_TOL = 1e-10
ORTHO_TOL = 1e-10


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SparseStructure:
    """k-sparse vector in R^n: support set and +-1 signs on the support."""

    n: int
    support: np.ndarray
    signs: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "support", _frozen_array(self.support, dtype=int))
        object.__setattr__(self, "signs", _frozen_array(self.signs))
        if self.n < 1:
            raise InvalidStructureError("ambient dimension must be positive")
        k = self.support.size
        if k > self.n:
            raise InvalidStructureError(f"support size {k} exceeds ambient dimension {self.n}")
        if k != np.unique(self.support).size:
            raise InvalidStructureError("support indices must be distinct")
        if k and (self.support.min() < 0 or self.support.max() >= self.n):
            raise InvalidStructureError("support index out of range")
        if self.signs.shape != (k,) or not np.all(np.abs(self.signs) == 1.0):
            raise InvalidStructureError("signs must be exactly +-1 on the support")

    @property
    def k(self) -> int:
        return self.support.size

    @property
    def ambient_dim(self) -> int:
        return self.n

    kind = "sparse"


@dataclass(frozen=True, eq=False)
class WeightedSparseStructure:
    """Sparse vector with a region partition and one nonnegative weight per region.

    ``region_of[i]`` gives the region index of coordinate i; ``weights[j]`` is
    the penalty weight of region j.
    """

    n: int
    support: np.ndarray
    signs: np.ndarray
    region_of: np.ndarray
    weights: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "support", _frozen_array(self.support, dtype=int))
        object.__setattr__(self, "signs", _frozen_array(self.signs))
        object.__setattr__(self, "region_of", _frozen_array(self.region_of, dtype=int))
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        k = self.support.size
        if k > self.n or k != np.unique(self.support).size:
            raise InvalidStructureError("invalid support")
        if k and (self.support.min() < 0 or self.support.max() >= self.n):
            raise InvalidStructureError("support index out of range")
        if self.signs.shape != (k,) or not np.all(np.abs(self.signs) == 1.0):
            raise InvalidStructureError("signs must be exactly +-1 on the support")
        if self.region_of.shape != (self.n,):
            raise InvalidStructureError("region_of must assign every coordinate")
        t = self.weights.size
        if self.region_of.min() < 0 or self.region_of.max() >= t:
            raise InvalidStructureError("region index out of range")
        if np.any(self.weights < 0):
            raise InvalidStructureError("weights must be nonnegative")

    @property
    def k(self) -> int:
        return self.support.size

    @property
    def ambient_dim(self) -> int:
        return self.n

    @property
    def coordinate_weights(self) -> np.ndarray:
        """Per-coordinate weight w_{region(i)}, shape (n,)."""
        return self.weights[self.region_of]

    kind = "weighted"


@dataclass(frozen=True, eq=False)
class BlockSparseStructure:
    """t blocks of size b (n = t*b); k active blocks each with a unit direction."""

    t: int
    b: int
    active: np.ndarray
    directions: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "active", _frozen_array(self.active, dtype=int))
        object.__setattr__(self, "directions", _frozen_array(self.directions))
        if self.t < 1 or self.b < 1:
            raise InvalidStructureError("block counts must be positive")
        k = self.active.size
        if k > self.t or k != np.unique(self.active).size:
            raise InvalidStructureError(f"active block set invalid (k={k}, t={self.t})")
        if k and (self.active.min() < 0 or self.active.max() >= self.t):
            raise InvalidStructureError("active block index out of range")
        if self.directions.shape != (k, self.b):
            raise InvalidStructureError("one direction of length b per active block required")
        if k:
            norms = np.linalg.norm(self.directions, axis=1)
            if np.any(np.abs(norms - 1.0) > ORTHO_TOL):
                raise InvalidStructureError("block directions must have unit Euclidean norm")

    @property
    def k(self) -> int:
        return self.active.size

    @property
    def ambient_dim(self) -> int:
        return self.t * self.b

    kind = "block"


@dataclass(frozen=True, eq=False)
class LowRankStructure:
    """Rank-r d x d matrix: orthonormal factors u, v of shape (d, r)."""

    d: int
    r: int
    u: np.ndarray
    v: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "u", _frozen_array(self.u))
        object.__setattr__(self, "v", _frozen_array(self.v))
        if self.r > self.d:
            raise InvalidStructureError(f"rank {self.r} exceeds side {self.d}")
        if self.u.shape != (self.d, self.r) or self.v.shape != (self.d, self.r):
            raise InvalidStructureError("factors must have shape (d, r)")
        eye = np.eye(self.r)
        for name, f in (("u", self.u), ("v", self.v)):
            if self.r and np.max(np.abs(f.T @ f - eye)) > ORTHO_TOL:
                raise InvalidStructureError(f"factor {name} is not orthonormal to 1e-10")

    @property
    def ambient_dim(self) -> int:
        return self.d * self.d

    kind = "lowrank"


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
        if isinstance(s, (SparseStructure, WeightedSparseStructure)):
            off = np.setdiff1d(np.arange(s.n), s.support)
            if off.size and np.max(np.abs(self.values[off])) > SUPPORT_TOL:
                raise InvalidStructureError("values leak outside the declared support")
            if np.any(np.sign(self.values[s.support]) != s.signs):
                raise InvalidStructureError("value signs disagree with the declared signs")
        elif isinstance(s, BlockSparseStructure):
            blocks = self.values.reshape(s.t, s.b)
            inactive = np.setdiff1d(np.arange(s.t), s.active)
            if inactive.size and np.max(np.abs(blocks[inactive])) > SUPPORT_TOL:
                raise InvalidStructureError("values leak outside the active blocks")
        elif isinstance(s, LowRankStructure):
            x = as_matrix(self.values, s.d)
            resid = x - s.u @ (s.u.T @ x @ s.v) @ s.v.T
            if np.max(np.abs(resid)) > 1e-9 * max(1.0, np.max(np.abs(x))):
                raise InvalidStructureError("values leave the declared singular subspaces")

    @property
    def ambient_dim(self) -> int:
        return self.structure.ambient_dim

    def min_magnitude(self) -> float:
        """Smallest structural feature: min nonzero |entry| / block norm / singular value."""
        s = self.structure
        if isinstance(s, (SparseStructure, WeightedSparseStructure)):
            return float(np.min(np.abs(self.values[s.support])))
        if isinstance(s, BlockSparseStructure):
            blocks = self.values.reshape(s.t, s.b)
            return float(np.min(np.linalg.norm(blocks[s.active], axis=1)))
        sv = np.linalg.svd(as_matrix(self.values, s.d), compute_uv=False)
        return float(sv[s.r - 1])


def as_matrix(values: np.ndarray, d: int) -> np.ndarray:
    """Reshape a flattened (column-major) length-d*d vector to a d x d matrix."""
    return np.asarray(values).reshape((d, d), order="F")


def as_vector(matrix: np.ndarray) -> np.ndarray:
    """Flatten a square matrix column-major."""
    return np.asarray(matrix).flatten(order="F")


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
    Deterministic given (arguments, seed).
    """
    if k < 1 or k > n:
        raise InvalidStructureError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = stream(seed)
    support = np.sort(rng.choice(n, size=k, replace=False))
    signs = rng.choice([-1.0, 1.0], size=k)
    mags = _magnitudes(rng, k, magnitude_law)
    values = np.zeros(n)
    values[support] = signs * mags
    return SignalInstance(SparseStructure(n, support, signs, seed=seed), values)


def make_block_sparse(t: int, b: int, k: int, seed: int = 0,
                      magnitude_law: str = "uniform") -> SignalInstance:
    """Draw a block-sparse signal: k of t size-b blocks active.

    Each active block holds a uniformly random unit direction scaled by a
    positive magnitude.
    """
    if k < 1 or k > t:
        raise InvalidStructureError(f"need 1 <= k <= t, got k={k}, t={t}")
    if b < 1:
        raise InvalidStructureError("block size must be >= 1")
    rng = stream(seed)
    active = np.sort(rng.choice(t, size=k, replace=False))
    raw = rng.standard_normal((k, b))
    directions = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    mags = _magnitudes(rng, k, magnitude_law)
    values = np.zeros(t * b)
    blocks = values.reshape(t, b)
    blocks[active] = mags[:, None] * directions
    return SignalInstance(BlockSparseStructure(t, b, active, directions, seed=seed), values)


def make_low_rank(d: int, r: int, seed: int = 0,
                  magnitude_law: str = "uniform") -> SignalInstance:
    """Draw a rank-r d x d matrix X0 = U diag(s) V^T with Haar-random factors.

    U and V come from QR factorizations of independent Gaussian matrices with
    the triangular factor's diagonal signs absorbed, which makes them Haar
    distributed. Singular values are positive (per ``magnitude_law``).
    """
    if r < 1 or r > d:
        raise InvalidStructureError(f"need 1 <= r <= d, got r={r}, d={d}")
    rng = stream(seed)
    u = _haar_columns(rng, d, r)
    v = _haar_columns(rng, d, r)
    sv = np.sort(_magnitudes(rng, r, magnitude_law))[::-1]
    x = u @ np.diag(sv) @ v.T
    return SignalInstance(LowRankStructure(d, r, u, v, seed=seed), as_vector(x))


def _haar_columns(rng: np.random.Generator, d: int, r: int) -> np.ndarray:
    g = rng.standard_normal((d, r))
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
                                 np.asarray(weights, dtype=float), seed=seed)
    return SignalInstance(ws, base.values)


def nonnegative(inst: SignalInstance) -> SignalInstance:
    """Flip a sparse instance so every entry is nonnegative (signs all +1)."""
    s = inst.structure
    if not isinstance(s, SparseStructure):
        raise InvalidStructureError("nonnegative() applies to sparse instances only")
    flipped = SparseStructure(s.n, s.support, np.ones(s.k), seed=s.seed)
    return SignalInstance(flipped, np.abs(inst.values))


def degrees_of_freedom(s: SignalStructure) -> int:
    """Parameter count of the structure class: k, b*k, or r(2d - r)."""
    if isinstance(s, (SparseStructure, WeightedSparseStructure)):
        return s.k
    if isinstance(s, BlockSparseStructure):
        return s.b * s.k
    if isinstance(s, LowRankStructure):
        return s.r * (2 * s.d - s.r)
    raise InvalidStructureError(f"unknown structure {type(s).__name__}")


def norm_value(s: SignalStructure, values: np.ndarray) -> float:
    """Evaluate the structure-inducing norm (l1 / weighted l1 / l1,2 / nuclear)."""
    values = np.asarray(values, dtype=float)
    if isinstance(s, SparseStructure):
        return float(np.sum(np.abs(values)))
    if isinstance(s, WeightedSparseStructure):
        return float(np.sum(s.coordinate_weights * np.abs(values)))
    if isinstance(s, BlockSparseStructure):
        return float(np.sum(np.linalg.norm(values.reshape(s.t, s.b), axis=1)))
    if isinstance(s, LowRankStructure):
        return float(np.sum(np.linalg.svd(as_matrix(values, s.d), compute_uv=False)))
    raise InvalidStructureError(f"unknown structure {type(s).__name__}")


def derive_structure(inst: SignalInstance) -> SignalStructure:
    """Re-derive the geometric descriptor from the dense values.

    Support detection thresholds at 1e-12, rank detection at 1e-10. For a
    valid instance this reproduces the stored descriptor (for low-rank, up to
    the per-singular-vector sign convention, which the geometry never sees).
    """
    s = inst.structure
    if isinstance(s, (SparseStructure, WeightedSparseStructure)):
        support = np.flatnonzero(np.abs(inst.values) > SUPPORT_TOL)
        signs = np.sign(inst.values[support])
        if isinstance(s, WeightedSparseStructure):
            return WeightedSparseStructure(s.n, support, signs, s.region_of, s.weights)
        return SparseStructure(s.n, support, signs)
    if isinstance(s, BlockSparseStructure):
        blocks = inst.values.reshape(s.t, s.b)
        norms = np.linalg.norm(blocks, axis=1)
        active = np.flatnonzero(norms > SUPPORT_TOL)
        directions = blocks[active] / norms[active, None]
        return BlockSparseStructure(s.t, s.b, active, directions)
    if isinstance(s, LowRankStructure):
        u, sv, vt = np.linalg.svd(as_matrix(inst.values, s.d))
        r = int(np.sum(sv > RANK_TOL))
        return LowRankStructure(s.d, r, u[:, :r], vt[:r].T)
    raise InvalidStructureError(f"unknown structure {type(s).__name__}")


def structures_equivalent(a: SignalStructure, b: SignalStructure, tol: float = 1e-10) -> bool:
    """Geometric equality: same subdifferential, ignoring seed provenance.

    Low-rank factors compare through u v^T and the two subspace projectors,
    which is exactly the data the subdifferential depends on.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, SparseStructure):
        return a.n == b.n and np.array_equal(a.support, b.support) and np.array_equal(a.signs, b.signs)
    if isinstance(a, WeightedSparseStructure):
        return (a.n == b.n and np.array_equal(a.support, b.support)
                and np.array_equal(a.signs, b.signs)
                and np.array_equal(a.region_of, b.region_of)
                and np.allclose(a.weights, b.weights, atol=tol))
    if isinstance(a, BlockSparseStructure):
        return (a.t == b.t and a.b == b.b and np.array_equal(a.active, b.active)
                and np.allclose(a.directions, b.directions, atol=tol))
    if isinstance(a, LowRankStructure):
        if a.d != b.d or a.r != b.r:
            return False
        return (np.allclose(a.u @ a.v.T, b.u @ b.v.T, atol=tol)
                and np.allclose(a.u @ a.u.T, b.u @ b.u.T, atol=tol)
                and np.allclose(a.v @ a.v.T, b.v @ b.v.T, atol=tol))
    return False


def structure_label(s: SignalStructure) -> str:
    """Compact human-readable tag used in CSV output, e.g. 'sparse:500:20'."""
    if isinstance(s, SparseStructure):
        return f"sparse:{s.n}:{s.k}"
    if isinstance(s, WeightedSparseStructure):
        return f"weighted:{s.n}:{s.k}:{s.weights.size}"
    if isinstance(s, BlockSparseStructure):
        return f"block:{s.t}:{s.b}:{s.k}"
    if isinstance(s, LowRankStructure):
        return f"lowrank:{s.d}:{s.r}"
    raise InvalidStructureError(f"unknown structure {type(s).__name__}")


def structure_to_json(s: SignalStructure) -> str:
    """Serialize the constructor descriptor, e.g. {"kind":"sparse","n":500,"k":20,"seed":1}."""
    if s.seed is None:
        raise InvalidStructureError("structure was not built by a seeded constructor")
    if isinstance(s, SparseStructure):
        d = {"kind": "sparse", "n": s.n, "k": s.k, "seed": s.seed}
    elif isinstance(s, BlockSparseStructure):
        d = {"kind": "block", "t": s.t, "b": s.b, "k": s.k, "seed": s.seed}
    elif isinstance(s, LowRankStructure):
        d = {"kind": "lowrank", "d": s.d, "r": s.r, "seed": s.seed}
    else:
        raise InvalidStructureError(f"no JSON descriptor for {type(s).__name__}")
    return json.dumps(d)


def instance_from_descriptor(desc: dict, magnitude_law: str = "uniform") -> SignalInstance:
    """Build a SignalInstance from a JSON-style descriptor dict."""
    try:
        kind = desc["kind"]
        seed = int(desc["seed"])
        law = desc.get("magnitude_law", magnitude_law)
        if kind == "sparse":
            return make_sparse(int(desc["n"]), int(desc["k"]), law, seed)
        if kind == "block":
            return make_block_sparse(int(desc["t"]), int(desc["b"]), int(desc["k"]), seed, law)
        if kind == "lowrank":
            return make_low_rank(int(desc["d"]), int(desc["r"]), seed, law)
    except KeyError as exc:
        raise InvalidStructureError(f"descriptor missing field {exc}") from exc
    raise InvalidStructureError(f"unknown structure kind {kind!r}")


def structure_from_json(text: str) -> SignalStructure:
    """Inverse of :func:`structure_to_json` (rebuilds via the seeded constructor)."""
    try:
        desc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidStructureError(f"bad structure JSON: {exc}") from exc
    return instance_from_descriptor(desc).structure
